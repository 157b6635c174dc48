"""Background patrol scrubbing of latent DRAM cell flips.

Latent single-bit upsets are harmless on their own — SECDED corrects
them the moment anything reads the word. The danger is *pairing*: two
singles accumulating in the same 64-bit codeword become a detected-but-
uncorrectable double. A patrol scrubber bounds the window in which a
single can sit unread: every ``interval`` accelerated steps it walks
backed physical memory, re-encoding every word through the SECDED
pipeline — singles are corrected and written back, doubles are repaired
from the host's coherent copy (counted, but off the demand path, so
they never abort a step), and triple-plus words alias silently into the
backing store just as they would on a demand read.

The walk is priced like hardware patrol: streaming every *backed* byte
through the vault controllers at ``bandwidth`` with a per-byte patrol
energy, plus the usual correct-and-writeback cost per repaired word.
The runtime charges it to the ledger's ``scrub`` category — background
maintenance, deliberately separate from the ``fault`` category that
prices demand-path adjudication.

``interval=0`` disables patrol entirely: :meth:`PatrolScrubber.tick`
never fires, no ledger entries appear, and the run is bit-identical to
one without a scrubber — the golden-baseline guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.checks import check_int, check_real
from repro.faults.ecc import (OUTCOME_CORRECTED, OUTCOME_DETECTED,
                              SecdedModel, popcount)
from repro.faults.injector import FaultInjector
from repro.memmgmt.physmem import PhysicalMemory
from repro.memsys.address import AddressMapping
from repro.metrics import ExecResult, ZERO


@dataclass(frozen=True)
class ScrubConfig:
    """Patrol-scrub policy and cost constants.

    Attributes:
        interval: accelerated steps between patrol passes; 0 disables.
        bandwidth: patrol streaming bandwidth over backed memory, B/s.
        e_patrol_per_byte: patrol read-verify energy per byte, J.
    """

    interval: int = 0
    bandwidth: float = 12.8e9
    e_patrol_per_byte: float = 6e-12

    def __post_init__(self) -> None:
        check_int("interval", self.interval, 0)
        check_real("bandwidth", self.bandwidth, positive=True)
        check_real("e_patrol_per_byte", self.e_patrol_per_byte, least=0.0)


@dataclass
class ScrubStats:
    """What patrol passes found and fixed (off the demand path)."""

    passes: int = 0
    bytes_scanned: int = 0
    words_corrected: int = 0        # latent singles drained
    words_repaired: int = 0         # at-rest doubles, host-repaired
    words_silent: int = 0           # triple-plus, aliased into cells


class PatrolScrubber:
    """Walks backed physical memory between steps, draining latent flips."""

    def __init__(self, injector: FaultInjector, phys: PhysicalMemory,
                 config: Optional[ScrubConfig] = None,
                 ecc: Optional[SecdedModel] = None,
                 mapping: Optional[AddressMapping] = None):
        self.injector = injector
        self.phys = phys
        self.config = config if config is not None else ScrubConfig()
        self.ecc = ecc if ecc is not None else injector.ecc
        self.mapping = mapping
        self.stats = ScrubStats()
        self._steps_since_scrub = 0
        #: vault -> joules of the most recent patrol pass (the thermal
        #: model's heat feed). Patrol-stream energy lands on the vault
        #: whose stripe was walked and correction energy on the vault
        #: holding the corrected word — never smeared globally. Empty
        #: until a pass runs, or when no address mapping is attached.
        self.last_vault_energy: Dict[int, float] = {}

    def tick(self) -> Optional[ExecResult]:
        """Account one completed accelerated step; patrol when due.

        Returns the pass's cost when a patrol ran, else ``None``.
        """
        if self.config.interval <= 0:
            return None
        self._steps_since_scrub += 1
        if self._steps_since_scrub < self.config.interval:
            return None
        self._steps_since_scrub = 0
        return self.scrub()

    def scrub(self) -> ExecResult:
        """One full patrol pass over backed physical memory."""
        inj = self.injector
        ecc_on = inj.config.ecc_enabled
        corrections = 0
        drained = 0
        corr_by_vault: Dict[int, int] = {}
        for word, mask in inj.all_latent_words():
            drained += 1
            outcome = (self.ecc.classify(popcount(mask)) if ecc_on
                       else None)
            if outcome == OUTCOME_CORRECTED:
                self.stats.words_corrected += 1
                corrections += 1
            elif outcome == OUTCOME_DETECTED:
                # at-rest double: repaired from the host's coherent copy
                # (one writeback), never surfaces on the demand path
                self.stats.words_repaired += 1
                corrections += 1
            else:
                # ECC off, or >= 3 flips aliasing to a valid codeword:
                # the patrol write-back pins the corruption into the cells
                self.stats.words_silent += 1
                self.phys.apply_flips(word, mask)
            if outcome in (OUTCOME_CORRECTED, OUTCOME_DETECTED) \
                    and self.mapping is not None:
                v = self.mapping.unit_of(word)
                corr_by_vault[v] = corr_by_vault.get(v, 0) + 1
            inj.clear_latent_word(word)
        self.stats.passes += 1
        regions = self.phys.regions()
        scanned = sum(size for _, size in regions)
        self.stats.bytes_scanned += scanned
        if self.mapping is not None:
            per_corr = self.ecc.correction_cost(1).energy
            e_byte = self.config.e_patrol_per_byte
            self.last_vault_energy = {
                v: b * e_byte + corr_by_vault.get(v, 0) * per_corr
                for v, b in self._vault_bytes(regions).items()}
        cost = ExecResult(time=scanned / self.config.bandwidth,
                          energy=scanned * self.config.e_patrol_per_byte)
        if corrections:
            cost = cost.plus(self.ecc.correction_cost(corrections))
        return cost if scanned or corrections else ZERO

    def _vault_bytes(self, regions: Sequence[Tuple[int, int]]
                     ) -> Dict[int, int]:
        """Patrol bytes per vault over the given ``(start, size)`` regions.

        The interleave's XOR-fold vault permutation is a bijection
        within every aligned cycle of ``units * interleave_bytes``
        bytes, so each vault owns exactly ``interleave_bytes`` of every
        full cycle; only the unaligned head and tail need per-block
        :meth:`~repro.memsys.address.AddressMapping.unit_of` calls.
        """
        m = self.mapping
        assert m is not None
        interleave = m.interleave_bytes
        cycle = m.units * interleave
        out: Dict[int, int] = dict.fromkeys(range(m.units), 0)

        def walk_blocks(addr: int, stop: int) -> None:
            while addr < stop:
                block_end = min(stop, (addr // interleave + 1) * interleave)
                out[m.unit_of(addr)] += block_end - addr
                addr = block_end

        for start, size in regions:
            end = start + size
            head_end = min(end, -(-start // cycle) * cycle)
            walk_blocks(start, head_end)
            if end > head_end:
                full = (end - head_end) // cycle
                if full:
                    for v in out:
                        out[v] += full * interleave
                walk_blocks(head_end + full * cycle, end)
        return out

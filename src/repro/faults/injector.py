"""Deterministic, seedable fault injection.

One :class:`FaultInjector` drives every fault model in the package from
a single ``numpy`` PRNG, so a campaign run is exactly reproducible from
its seed:

* **DRAM bit flips** — on every hooked physical-memory read, each data
  bit flips independently with probability ``dram_bit_error_rate``.
  Flips are grouped into 64-bit ECC codewords and adjudicated by the
  :class:`~repro.faults.ecc.SecdedModel`: single-bit errors are
  corrected (the caller sees clean data, the correction cost is
  queued), double-bit errors raise
  :class:`~repro.faults.ecc.UncorrectableEccError`, and triple-plus
  flips (or any flip with ECC disabled) silently corrupt the returned
  bytes.
* **Latent cell flips** — with per-bit probability
  ``latent_flip_rate`` per accelerated step, upsets land in the DRAM
  *cells* of backed physical memory and stay there (the injector's
  latent-flip map) until something adjudicates the word: the
  accelerators' direct-TSV datapath
  (:class:`~repro.faults.datapath.DatapathEcc`) on operand fetch, the
  background patrol scrubber
  (:class:`~repro.faults.scrub.PatrolScrubber`) between steps, or a
  write that re-encodes the codeword. Unlike the per-read model above,
  latent flips *accumulate*: two singles landing in the same word pair
  into an uncorrectable double — the failure mode patrol scrubbing
  exists to prevent. Deposits draw from a dedicated PRNG stream, so a
  campaign's flip placement is identical across scrub-interval
  settings.
* **Descriptor-word corruption** — with probability
  ``descriptor_corruption_rate`` per fetch, one aligned 32-bit word of
  the fetched descriptor image is replaced with a different random
  word (models TSV / command-path upsets).
* **CU / doorbell hangs** — with probability ``hang_rate`` per
  doorbell, the configuration unit never responds
  (:class:`CuHangError`; the runtime's watchdog turns this into a
  bounded timeout plus retry).
* **Tile failures** — with probability ``tile_fail_rate`` per
  descriptor execution, one healthy accelerator tile hard-fails for
  the rest of the run (the runtime reroutes its vault stripe to the
  surviving tiles, and degrades to host execution only when no tile
  is left).
* **NoC link failures** — with probability ``link_fail_rate`` per
  descriptor execution, one healthy mesh link hard-fails for the rest
  of the run; the adaptive router detours around it.
* **NoC link flaps** — with probability ``link_flap_rate`` per
  descriptor execution, one healthy mesh link is down for just that
  execution (marginal TSV/driver contact), then comes back.

The injector is pure policy: the subsystems own small hooks
(`PhysicalMemory.fault_hook`, `ConfigurationUnit.faults`) that stay
``None`` — and cost nothing — in the fault-free configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.checks import check_int, check_real
from repro.faults.ecc import (ECC_WORD_BITS, OUTCOME_CORRECTED,
                              OUTCOME_DETECTED, OUTCOME_SILENT,
                              SecdedModel, UncorrectableEccError)
from repro.metrics import ExecResult


class CuHangError(Exception):
    """The configuration unit stopped responding to the doorbell."""


@dataclass(frozen=True)
class FaultConfig:
    """Rates of every fault model (all default to 'no faults')."""

    seed: int = 0
    dram_bit_error_rate: float = 0.0        # per data bit per read
    latent_flip_rate: float = 0.0            # per backed bit per step
    descriptor_corruption_rate: float = 0.0  # per descriptor fetch
    hang_rate: float = 0.0                   # per doorbell
    tile_fail_rate: float = 0.0              # per descriptor execution
    link_fail_rate: float = 0.0              # per descriptor execution
    link_flap_rate: float = 0.0              # per descriptor execution
    ecc_enabled: bool = True

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        for f in fields(self):
            if f.name.endswith("_rate"):
                rate = getattr(self, f.name)
                check_real(f.name, rate)
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(
                        f"{f.name} must be in [0, 1], got {rate}")


@dataclass
class FaultStats:
    """Counters of injected faults and how they were adjudicated."""

    reads_checked: int = 0
    bits_flipped: int = 0
    words_corrected: int = 0
    words_uncorrectable: int = 0
    words_silent: int = 0
    latent_flips_deposited: int = 0
    words_rewritten: int = 0                 # latent flips dropped by writes
    descriptor_corruptions: int = 0
    cu_hangs: int = 0
    tile_failures: int = 0
    link_failures: int = 0
    link_flaps: int = 0

    @property
    def faulty_words(self) -> int:
        return (self.words_corrected + self.words_uncorrectable
                + self.words_silent)

    @property
    def injected_events(self) -> int:
        """All fault events the injector produced."""
        return (self.faulty_words + self.descriptor_corruptions
                + self.cu_hangs + self.tile_failures
                + self.link_failures + self.link_flaps)

    @property
    def detected_events(self) -> int:
        """Events the hardened stack noticed (everything but silent)."""
        return self.injected_events - self.words_silent

    @property
    def detection_rate(self) -> float:
        if not self.injected_events:
            return 1.0
        return self.detected_events / self.injected_events

    def clear(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


class FaultInjector:
    """Seeded source of every injected fault (see module docstring)."""

    def __init__(self, config: Optional[FaultConfig] = None,
                 ecc: Optional[SecdedModel] = None, **rates):
        if config is not None and rates:
            raise ValueError("pass either a FaultConfig or keyword rates")
        self.config = config if config is not None else FaultConfig(**rates)
        self.ecc = ecc if ecc is not None else SecdedModel()
        self.stats = FaultStats()
        self._rng = np.random.default_rng(self.config.seed)
        # latent cell flips draw from their own stream so that scrub
        # policy (which consumes no randomness) can never perturb the
        # deposit sequence of a seeded campaign
        self._latent_rng = np.random.default_rng((self.config.seed, 1))
        self._pending_corrections = 0
        #: 8-byte-aligned word address -> 64-bit mask of flipped cells
        self._latent: Dict[int, int] = {}
        #: vault index -> accepted latent flips (thermal-coupled runs;
        #: populated only when deposits are given a ``vault_of`` mapping)
        self.latent_deposits_by_vault: Dict[int, int] = {}

    def reset(self) -> None:
        """Re-seed the PRNGs and zero the statistics and latent map."""
        self._rng = np.random.default_rng(self.config.seed)
        self._latent_rng = np.random.default_rng((self.config.seed, 1))
        self.stats.clear()
        self._pending_corrections = 0
        self._latent.clear()
        self.latent_deposits_by_vault.clear()

    # -- DRAM data path (PhysicalMemory.fault_hook) --------------------------

    def dram_read(self, addr: int, data: bytes) -> bytes:
        """Adjudicate one physical read; returns the bytes the CPU or
        accelerator actually observes."""
        rate = self.config.dram_bit_error_rate
        if rate <= 0.0 or not data:
            return data
        self.stats.reads_checked += 1
        nbits = len(data) * 8
        k = int(self._rng.binomial(nbits, rate))
        if k == 0:
            return data
        k = min(k, nbits)
        positions = self._rng.choice(nbits, size=k, replace=False)
        self.stats.bits_flipped += k
        by_word: Dict[int, List[int]] = {}
        for pos in positions:
            by_word.setdefault(int(pos) // ECC_WORD_BITS, []).append(int(pos))
        corrupted: Optional[bytearray] = None
        uncorrectable = 0
        for _, bits in sorted(by_word.items()):
            if self.config.ecc_enabled:
                outcome = self.ecc.classify(len(bits))
            else:
                outcome = OUTCOME_SILENT
            if outcome == OUTCOME_CORRECTED:
                self.stats.words_corrected += 1
                self._pending_corrections += 1
            elif outcome == OUTCOME_DETECTED:
                self.stats.words_uncorrectable += 1
                uncorrectable += 1
            else:                                   # silent corruption
                self.stats.words_silent += 1
                if corrupted is None:
                    corrupted = bytearray(data)
                for bit in bits:
                    corrupted[bit // 8] ^= 1 << (bit % 8)
        if uncorrectable:
            raise UncorrectableEccError(addr, uncorrectable)
        return bytes(corrupted) if corrupted is not None else data

    def drain_correction_cost(self) -> Tuple[ExecResult, int]:
        """Cost of ECC corrections since the last drain (for the ledger)."""
        n = self._pending_corrections
        self._pending_corrections = 0
        return self.ecc.correction_cost(n), n

    def queue_correction(self, n: int = 1) -> None:
        """Queue ``n`` correct-and-writeback events for the next drain.

        Used by the datapath ECC layer and the patrol scrubber, whose
        corrections ride the same ledger plumbing as the per-read model's.
        """
        self._pending_corrections += n

    # -- latent cell flips (the accelerator datapath / scrub model) ----------

    @property
    def latent_word_count(self) -> int:
        """Words currently carrying at least one latent cell flip."""
        return len(self._latent)

    def plant_latent_flips(self, addr: int, bits: Sequence[int]) -> int:
        """Plant cell flips in the 64-bit codeword containing ``addr``.

        ``bits`` are bit offsets (0..63) within that codeword. Returns
        the word's 8-byte-aligned physical address. Test hook: lets a
        fault battery construct exact single/double/triple-bit words.
        """
        word = addr & ~(ECC_WORD_BITS // 8 - 1)
        mask = self._latent.get(word, 0)
        for bit in bits:
            if not 0 <= bit < ECC_WORD_BITS:
                raise ValueError(f"bit offset {bit} outside the codeword")
            mask |= 1 << bit
        if mask:
            self._latent[word] = mask
            self.stats.latent_flips_deposited += len(bits)
        return word

    def deposit_latent_flips(
            self, regions: Sequence[Tuple[int, int]],
            factors: Optional[Sequence[float]] = None,
            cap: float = 1.0,
            vault_of: Optional[Callable[[np.ndarray], np.ndarray]] = None
    ) -> int:
        """One accelerated step's worth of new latent cell flips.

        Draws ``Binomial(total backed bits, latent_flip_rate)`` upset
        positions uniformly over the given ``(start, size)`` regions and
        ORs them into the latent map (an upset pins the cell to a wrong
        value; a second hit on the same cell changes nothing). Returns
        the number of flips deposited. Consumes the dedicated latent
        PRNG identically regardless of scrub or read activity.

        ``vault_of`` maps an int64 array of byte addresses to their
        vaults (``AddressMapping.units_of``); with it, accepted flips
        are also counted per vault.

        Thermal coupling (``factors`` given) uses *thinning*: candidates
        are drawn at the capped rate ``latent_flip_rate * cap``, and a
        candidate landing on byte ``b`` is accepted iff its paired
        uniform ``u`` satisfies ``u * cap < factors[vault of b]`` — so
        a vault with Arrhenius factor ``f`` sees flips at exactly
        ``rate * f`` while the seeded candidate stream stays identical
        across envelope and throttle policies. Hotter vaults accept a
        pointwise *superset* of a cooler run's flips: cross-run
        monotonicity holds by construction, not by luck. When
        ``factors`` is ``None`` the legacy single-rate path runs,
        consuming the PRNG byte-identically to earlier releases (the
        golden-baseline guarantee). After the draws the candidates are
        mapped, thinned and ORed in as arrays, in ascending position
        order, exactly as the per-candidate loop kept in
        ``tests/faults/helpers.py``.
        """
        rate = self.config.latent_flip_rate
        if rate <= 0.0 or not regions:
            return 0
        total_bits = sum(size for _, size in regions) * 8
        if total_bits <= 0:
            return 0
        if factors is None:
            k = int(self._latent_rng.binomial(total_bits, rate))
            if k == 0:
                return 0
            k = min(k, total_bits)
            positions = self._latent_rng.choice(total_bits, size=k,
                                                replace=False)
            uniforms = None
        else:
            k = int(self._latent_rng.binomial(
                total_bits, min(rate * cap, 1.0)))
            if k == 0:
                return 0
            k = min(k, total_bits)
            positions = self._latent_rng.choice(total_bits, size=k,
                                                replace=False)
            uniforms = self._latent_rng.random(k)
        # map the ascending positions onto their regions: a zero-size
        # region ends where its predecessor does, so the right-sided
        # search never lands on it
        positions = np.sort(positions)
        starts = np.array([start for start, _ in regions], dtype=np.int64)
        sizes = np.array([size for _, size in regions], dtype=np.int64) * 8
        ends = np.cumsum(sizes)
        region = np.searchsorted(ends, positions, side="right")
        rest = positions - (ends[region] - sizes[region])
        byte = starts[region] + (rest >> 3)
        vault = vault_of(byte) if vault_of is not None else None
        if uniforms is not None:
            # uniforms pair with the candidates in ascending order
            factor = (np.asarray(factors, dtype=np.float64)[vault]
                      if vault is not None else 1.0)
            keep = uniforms * cap < factor
            byte, rest = byte[keep], rest[keep]
            if vault is not None:
                vault = vault[keep]
        word_mask = ECC_WORD_BITS // 8 - 1
        bit = (byte & word_mask) * 8 + (rest & 7)
        latent = self._latent
        for word, b in zip((byte & ~word_mask).tolist(), bit.tolist()):
            latent[word] = latent.get(word, 0) | (1 << b)
        deposited = int(byte.size)
        if vault is not None:
            by_vault = self.latent_deposits_by_vault
            # a Counter keeps first-seen order, as the per-flip count did
            for v, n in Counter(vault.tolist()).items():
                by_vault[v] = by_vault.get(v, 0) + n
        self.stats.latent_flips_deposited += deposited
        return deposited

    def latent_words(self, ranges: Sequence[Tuple[int, int]]
                     ) -> List[Tuple[int, int]]:
        """``(word, mask)`` latent entries overlapping any ``(start,
        size)`` byte range, in ascending word order.

        The overlap query is vectorized: one integer comparison per
        (word, range) pair over a numpy view of the latent map instead
        of a nested Python loop — exact, order-preserving, and pinned
        against the scalar walk by ``tests/faults/test_injector.py``.
        """
        if not self._latent or not ranges:
            return []
        word_bytes = ECC_WORD_BITS // 8
        words = np.fromiter(self._latent.keys(), dtype=np.int64,
                            count=len(self._latent))
        hit = np.zeros(words.size, dtype=bool)
        for start, size in ranges:
            hit |= (words + word_bytes > start) & (words < start + size)
        out = sorted(int(w) for w in words[hit])
        return [(w, self._latent[w]) for w in out]

    def all_latent_words(self) -> List[Tuple[int, int]]:
        """Every latent ``(word, mask)`` entry, ascending (for patrol)."""
        return sorted(self._latent.items())

    def clear_latent_word(self, word: int) -> None:
        """Drop a word's latent flips (corrected, repaired, or
        overwritten by a re-encoding write)."""
        self._latent.pop(word, None)

    # -- command path (ConfigurationUnit hooks) ------------------------------

    def corrupt_descriptor(self, raw: bytes) -> bytes:
        """Maybe corrupt one aligned 32-bit word of a fetched descriptor."""
        rate = self.config.descriptor_corruption_rate
        if rate <= 0.0 or len(raw) < 4:
            return raw
        if self._rng.random() >= rate:
            return raw
        idx = int(self._rng.integers(len(raw) // 4))
        old = raw[idx * 4:idx * 4 + 4]
        new = old
        while new == old:
            new = self._rng.bytes(4)
        self.stats.descriptor_corruptions += 1
        return raw[:idx * 4] + new + raw[idx * 4 + 4:]

    def sample_hang(self) -> bool:
        """Does this doorbell ring hang the configuration unit?"""
        if self.config.hang_rate <= 0.0:
            return False
        if self._rng.random() < self.config.hang_rate:
            self.stats.cu_hangs += 1
            return True
        return False

    def sample_tile_failure(self) -> Optional[int]:
        """Index of a tile (0-based draw) to hard-fail, or None."""
        if self.config.tile_fail_rate <= 0.0:
            return None
        if self._rng.random() < self.config.tile_fail_rate:
            self.stats.tile_failures += 1
            return int(self._rng.integers(1 << 30))
        return None

    def sample_link_failure(self) -> Optional[int]:
        """Draw for a mesh link to hard-fail this execution, or None.

        The caller maps the draw onto its list of currently healthy
        links (the injector is pure policy and owns no topology)."""
        if self.config.link_fail_rate <= 0.0:
            return None
        if self._rng.random() < self.config.link_fail_rate:
            self.stats.link_failures += 1
            return int(self._rng.integers(1 << 30))
        return None

    def sample_link_flap(self) -> Optional[int]:
        """Draw for a mesh link that is down for this execution only."""
        if self.config.link_flap_rate <= 0.0:
            return None
        if self._rng.random() < self.config.link_flap_rate:
            self.stats.link_flaps += 1
            return int(self._rng.integers(1 << 30))
        return None

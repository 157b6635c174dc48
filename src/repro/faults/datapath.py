"""In-datapath SECDED adjudication for the accelerators' TSV reads.

The accelerators read operands straight off the stacked DRAM's TSVs
through zero-copy numpy views (:meth:`PhysicalMemory.ndarray`), so the
per-read fault hook on the byte-copy :meth:`PhysicalMemory.read` path
never sees them. :class:`DatapathEcc` closes that gap: at every
accelerated step's operand fetch the configuration unit hands it the
step's physical operand ranges, and it adjudicates each 64-bit codeword
that carries latent cell flips (the injector's latent-flip map) exactly
the way the vault controller's SECDED pipeline would:

========  ===========================================================
flips     outcome
========  ===========================================================
0         clean — word streams through untouched
1         corrected on the fly; the flip is scrubbed from the cells
          and one correct-and-writeback cost is queued for the ledger
2         detected, not correctable: :class:`UncorrectableEccError`
          is raised (the runtime's retry machinery takes over) and the
          trapped line is demand-repaired from the host's coherent
          copy, so the retry reads clean data
>= 3      may alias to a valid codeword: *silent* corruption — the
          flips are applied to the backing store, so the functional
          result really is wrong
========  ===========================================================

With ECC disabled every dirty word takes the silent row. Write ranges
re-encode their codewords, so latent flips under them are simply
dropped. Words the step never touches stay latent — that is the gap
the patrol scrubber (:mod:`repro.faults.scrub`) exists to drain.

Costs are *queued*, not charged in place: the runtime drains them into
the ledger's ``fault`` category (``ecc-stream`` for the re-decode drain
of dirty words, ``ecc-correction`` for correct-and-writeback events),
so a fault-free step charges exactly nothing and the ECC-off path is
bit-identical to the unguarded runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.ecc import (ECC_WORD_BITS, SecdedModel,
                              UncorrectableEccError)
from repro.faults.injector import FaultInjector
from repro.memmgmt.physmem import PhysicalMemory
from repro.metrics import ExecResult, ZERO

#: Bytes per SECDED codeword.
WORD_BYTES = ECC_WORD_BITS // 8


@dataclass
class DatapathStats:
    """Adjudication counters of the datapath ECC layer alone."""

    guards: int = 0                 # operand-fetch adjudication passes
    words_checked: int = 0          # dirty words adjudicated
    words_corrected: int = 0
    words_repaired: int = 0         # detected doubles demand-repaired
    words_silent: int = 0
    words_rewritten: int = 0        # flips dropped by write re-encode


def merge_ranges(ranges: Sequence[Tuple[int, int]]
                 ) -> List[Tuple[int, int]]:
    """Coalesce ``(start, size)`` byte ranges into disjoint ascending
    spans (adjudication then visits each codeword at most once)."""
    spans = sorted((start, start + size) for start, size in ranges
                   if size > 0)
    out: List[Tuple[int, int]] = []
    for start, end in spans:
        if out and start <= out[-1][1]:
            prev_start, prev_end = out[-1]
            out[-1] = (prev_start, max(prev_end, end))
        else:
            out.append((start, end))
    return [(start, end - start) for start, end in out]


class DatapathEcc:
    """SECDED adjudication at the accelerator operand-fetch boundary."""

    def __init__(self, injector: FaultInjector, phys: PhysicalMemory,
                 ecc: Optional[SecdedModel] = None):
        self.injector = injector
        self.phys = phys
        self.ecc = ecc if ecc is not None else injector.ecc
        self.stats = DatapathStats()
        self._pending_stream = ZERO

    def guard(self, reads: Sequence[Tuple[int, int]],
              writes: Sequence[Tuple[int, int]] = ()) -> None:
        """Adjudicate one step's operand fetch.

        ``reads``/``writes`` are ``(physical start, size)`` byte ranges.
        Raises :class:`UncorrectableEccError` when any read codeword
        carries a detected double-bit error (after repairing it, so the
        runtime's retry succeeds). Cheap no-op when the latent map is
        empty.
        """
        inj = self.injector
        if inj.latent_word_count == 0:
            return
        self.stats.guards += 1
        ecc_on = inj.config.ecc_enabled
        detected: List[int] = []
        dirty = inj.latent_words(merge_ranges(reads))
        if dirty:
            # Classify every dirty codeword in one batch: popcount over
            # the flip masks, then SECDED adjudication as boolean
            # predicates (1 flip corrected, 2 detected, >= 3 silent;
            # ECC off sends every dirty word down the silent row).
            masks = np.fromiter((m for _, m in dirty), dtype=np.uint64,
                                count=len(dirty))
            flips = np.bitwise_count(masks)
            if ecc_on:
                is_corr = flips == 1
                is_det = flips == 2
                is_silent = flips >= 3
            else:
                is_corr = np.zeros(len(dirty), dtype=bool)
                is_det = is_corr
                is_silent = ~is_corr
            n_corr = int(np.count_nonzero(is_corr))
            n_det = int(np.count_nonzero(is_det))
            n_silent = int(np.count_nonzero(is_silent))
            inj.stats.words_corrected += n_corr
            self.stats.words_corrected += n_corr
            # the trap handler demand-repairs detected doubles from the
            # host's coherent copy (one writeback event each), so the
            # descriptor retry reads clean data
            inj.stats.words_uncorrectable += n_det
            self.stats.words_repaired += n_det
            inj.queue_correction(n_corr + n_det)
            inj.stats.words_silent += n_silent
            self.stats.words_silent += n_silent
            for idx in range(len(dirty)):       # ascending word order
                word, mask = dirty[idx]
                if is_silent[idx]:              # silent corruption
                    self.phys.apply_flips(word, mask)
                elif is_det[idx]:
                    detected.append(word)
                inj.clear_latent_word(word)
            self.stats.words_checked += len(dirty)
            self._pending_stream = self._pending_stream.plus(
                self.ecc.stream_overhead(len(dirty) * WORD_BYTES))
        for word, _ in inj.latent_words(merge_ranges(writes)):
            # a write re-encodes the whole codeword: latent flips gone
            inj.clear_latent_word(word)
            inj.stats.words_rewritten += 1
            self.stats.words_rewritten += 1
        if detected:
            raise UncorrectableEccError(detected[0], len(detected))

    def drain_stream_overhead(self) -> ExecResult:
        """Re-decode drain cost accumulated since the last drain."""
        cost = self._pending_stream
        self._pending_stream = ZERO
        return cost

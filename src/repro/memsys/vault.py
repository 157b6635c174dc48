"""Vault/channel controller: banks behind one shared data bus.

The controller services an ordered request stream with a small FR-FCFS
reorder window: among the oldest ``window`` pending requests it prefers one
that hits an already-open row, falling back to the oldest request. This is
the scheduling policy real vault controllers (and the paper's in-house
simulator) use to recover row-buffer locality from interleaved streams.

A drain is a pure function of its columns: every bank starts closed,
every ready time and the bus start at 0, and nothing outlives the call
(a drain models one operation executing from a quiescent device). The
drain loop is the flattened twin of the per-bank row-buffer FSM that
the tests keep as the reference: bank state lives in local lists and
the per-access arithmetic is inlined, so a 64K-request window drains
without any per-request attribute or method dispatch. Each input column
becomes a Python list once (numpy ``tolist``), with no per-element
conversion. Most requests are row hits at the head of the queue, so the
head is tested first and the rest of the reorder window is scanned only
when the head misses. Every float operation happens in exactly the
order (and with exactly the operands) of the reference FSM — the timing
recurrence ``finish = max(col + t_cas, bus_free) + t_burst`` is a
genuine serial dependence and must not be reassociated, which is why it
stays a lean loop instead of a numpy kernel (see DESIGN.md). The rest
of the FSM's bookkeeping is exact by monotonicity, given the
non-negative delays :class:`DramTiming` enforces: every ready time
starts at 0 and only grows, so the FSM's ``max(now, ready)`` with
``now = 0`` is the ready time itself; ``ready_pre`` never decreases
and an open-row miss activates after ``ready_pre + t_rp`` anyway, so
the FSM's running ``ready_act`` never binds and a closed row activates
at 0; a reorder swap only permutes requests, so request and write
counts are totals of the input and the loop counts only misses; the
bus time never decreases, so the drain finishes at the last burst; and
a hit issues at ``col_at = ready_col``, so it sets ``ready_col = col_at
+ t_ccd`` uncompared. Bit-identity against the reference FSM drain is
pinned by ``tests/memsys/test_vectorized_diff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.memsys.result import BankStats
from repro.memsys.timing import DramTiming


@dataclass
class VaultResult:
    """Drain outcome for one vault/channel."""

    finish_time: float
    stats: BankStats


class VaultController:
    """Memory controller for the banks behind one data bus."""

    def __init__(self, timing: DramTiming, window: int = 8):
        if window < 1:
            raise ValueError("reorder window must be >= 1")
        self.timing = timing
        self.window = window

    def service_arrays(self, req_banks: Sequence[int],
                       req_rows: Sequence[int],
                       req_writes: Sequence[bool]) -> VaultResult:
        """Drain parallel (bank, row, is_write) columns from a quiescent
        vault.

        Accepts numpy arrays or lists; each column is converted to a
        Python list exactly once (``tolist``). Returns the completion
        time of the last data burst (0 for no requests) plus the
        drain's event counters.
        """
        (t_rcd, t_cas, t_rp, t_ras, t_wr, t_ccd,
         t_burst) = self.timing.drain_constants
        n_banks = self.timing.banks
        writes = np.asarray(req_writes, dtype=bool)
        n_writes = int(np.count_nonzero(writes))
        open_row = [-1] * n_banks
        ready_col = [0.0] * n_banks
        ready_pre = [0.0] * n_banks
        misses = 0
        pending_b = np.asarray(req_banks).tolist()
        pending_r = np.asarray(req_rows).tolist()
        pending_w = writes.tolist()
        bus = 0.0
        head = 0
        n = len(pending_b)
        window = self.window
        while head < n:
            bank = pending_b[head]
            row = pending_r[head]
            is_write = pending_w[head]
            hit = open_row[bank] == row
            if not hit:
                # FR-FCFS: the oldest row hit in the window goes first and
                # the displaced head takes its slot; no hit -> the head
                limit = head + window
                if limit > n:
                    limit = n
                i = head + 1
                while i < limit:
                    if open_row[pending_b[i]] == pending_r[i]:
                        hit = True
                        bank, pending_b[i] = pending_b[i], bank
                        row, pending_r[i] = pending_r[i], row
                        is_write, pending_w[i] = pending_w[i], is_write
                        break
                    i += 1
            head += 1
            # the reference FSM's access (same operations, same order)
            if hit:
                col_at = ready_col[bank]
                ready_col[bank] = col_at + t_ccd
            else:
                misses += 1
                act_at = (ready_pre[bank] + t_rp if open_row[bank] >= 0
                          else 0.0)
                open_row[bank] = row
                ready_pre[bank] = act_at + t_ras
                col_at = act_at + t_rcd
                rc = col_at + t_ccd
                if rc > ready_col[bank]:
                    ready_col[bank] = rc
            cas_at = col_at + t_cas
            # the burst waits for the bus and then holds it until done
            bus = (bus if cas_at < bus else cas_at) + t_burst
            rp = bus + t_wr if is_write else cas_at
            if rp > ready_pre[bank]:
                ready_pre[bank] = rp
        stats = BankStats(activates=misses, row_hits=n - misses,
                          row_misses=misses, reads=n - n_writes,
                          writes=n_writes)
        return VaultResult(finish_time=bus, stats=stats)

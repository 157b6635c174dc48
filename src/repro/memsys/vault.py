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
``now = 0`` is the ready time itself. The FSM's precharge-ready time
is the max of three kinds of term since the bank's last activate: its
``act_at + t_ras``, each read's ``cas_at`` and each write's ``finish +
t_wr``. Only a miss reads it, so the loop keeps the last term of each
kind per bank (``act_pre``, ``last_rd``, ``last_wr``), stores each
access's term uncompared, and an open-row miss activates at ``max(
act_pre, last_rd, last_wr) + t_rp``: a bank's ``cas_at`` never
decreases and neither does the bus, so the last term of a kind is its
largest, and a term left from before the current activate is at most
the old precharge-ready time, so at most ``act_at`` and the new
``act_pre``. The FSM's running ``ready_act`` never binds (an open-row
miss activates no earlier than that bound plus ``t_rp`` anyway) and a
closed row activates at 0. A reorder swap only permutes requests, so
request and write counts are totals of the input and the loop counts
only misses; the bus time never decreases, so the drain finishes at
the last burst; and a hit issues at ``col_at = ready_col``, so it sets
``ready_col = col_at + t_ccd`` uncompared. Bit-identity against the
reference FSM drain is pinned by ``tests/memsys/test_vectorized_diff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.checks import check_int
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
        check_int("window", window, 1)
        self.timing = timing
        # a numpy int would turn the scan bounds into numpy scalars
        self.window = int(window)

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
        # the three terms of the precharge bound, maxed only at a miss
        act_pre = [0.0] * n_banks
        last_rd = [0.0] * n_banks
        last_wr = [0.0] * n_banks
        misses = 0
        pending_b = np.asarray(req_banks).tolist()
        pending_r = np.asarray(req_rows).tolist()
        pending_w = writes.tolist()
        bus = 0.0
        n = len(pending_b)
        window = self.window
        for head in range(n):
            bank = pending_b[head]
            row = pending_r[head]
            if open_row[bank] != row:
                # FR-FCFS: the oldest row hit in the window goes first and
                # the displaced head takes its slot; no hit -> the head
                limit = head + window
                if limit > n:
                    limit = n
                i = head + 1
                while i < limit:
                    hit_bank = pending_b[i]
                    if open_row[hit_bank] == pending_r[i]:
                        # the hit path reads the flag at ``head`` and
                        # no row; later heads start at ``head + 1``
                        pending_b[i] = bank
                        pending_r[i] = row
                        bank = hit_bank
                        pending_w[head], pending_w[i] = (pending_w[i],
                                                         pending_w[head])
                        break
                    i += 1
                else:
                    # a miss: the reference FSM's activate, same order
                    misses += 1
                    if open_row[bank] >= 0:
                        pre_at = act_pre[bank]
                        if last_rd[bank] > pre_at:
                            pre_at = last_rd[bank]
                        if last_wr[bank] > pre_at:
                            pre_at = last_wr[bank]
                        act_at = pre_at + t_rp
                    else:
                        act_at = 0.0
                    open_row[bank] = row
                    act_pre[bank] = act_at + t_ras
                    col_at = act_at + t_rcd
                    rc = col_at + t_ccd
                    if rc > ready_col[bank]:
                        ready_col[bank] = rc
                    cas_at = col_at + t_cas
                    bus = (bus if cas_at < bus else cas_at) + t_burst
                    if pending_w[head]:
                        last_wr[bank] = bus + t_wr
                    else:
                        last_rd[bank] = cas_at
                    continue
            # a row hit issues at the bank's column-ready time
            col_at = ready_col[bank]
            ready_col[bank] = col_at + t_ccd
            cas_at = col_at + t_cas
            # the burst waits for the bus and then holds it until done
            bus = (bus if cas_at < bus else cas_at) + t_burst
            if pending_w[head]:
                last_wr[bank] = bus + t_wr
            else:
                last_rd[bank] = cas_at
        stats = BankStats(activates=misses, row_hits=n - misses,
                          row_misses=misses, reads=n - n_writes,
                          writes=n_writes)
        return VaultResult(finish_time=bus, stats=stats)

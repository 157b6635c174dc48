"""Vault/channel controller: banks behind one shared data bus.

The controller services an ordered request stream with a small FR-FCFS
reorder window: among the oldest ``window`` pending requests it prefers one
that hits an already-open row, falling back to the oldest request. This is
the scheduling policy real vault controllers (and the paper's in-house
simulator) use to recover row-buffer locality from interleaved streams.

The drain loop here is the flattened twin of :meth:`Bank.access`: bank
state lives in local lists and the per-access arithmetic is inlined, so
a 64K-request window drains without any per-request attribute or method
dispatch. Each input column becomes a Python list once (numpy
``tolist``), with no per-element conversion. Most requests are row hits
at the head of the queue, so the head is tested first and the rest of
the reorder window is scanned only when the head misses. Every float
operation happens in exactly the order (and with exactly the operands)
of the reference bank FSM — the timing recurrence
``finish = max(col + t_cas, bus_free) + t_burst`` is a genuine serial
dependence and must not be reassociated, which is why it stays a lean
loop instead of a numpy kernel (see DESIGN.md). The rest of the FSM's
bookkeeping is exact by monotonicity, given the non-negative delays
:class:`DramTiming` enforces: a reorder swap only permutes requests, so
per-bank request and write counts are ``bincount``s of the input and
the loop counts only misses; ``done`` never decreases, so the drain
finishes at the last burst; ``ready_pre`` never decreases and an
open-row miss activates after ``ready_pre + t_rp`` anyway, so
``ready_act = max(ready_act, ready_pre + t_rp)`` is folded once per
touched bank after the loop; and a hit issues at ``col_at >=
ready_col``, so it sets ``ready_col = col_at + t_ccd`` uncompared.
Bit-identity against the reference :class:`Bank` FSM drain, which lives
in the tests, is pinned by ``tests/memsys/test_vectorized_diff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.memsys.bank import Bank, BankStats
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
        self.banks = [Bank(timing) for _ in range(timing.banks)]
        self._bus_free_at = 0.0

    def service_arrays(self, req_banks: Sequence[int],
                       req_rows: Sequence[int],
                       req_writes: Sequence[bool],
                       start: float = 0.0) -> VaultResult:
        """Drain parallel (bank, row, is_write) columns starting no
        earlier than ``start``.

        Accepts numpy arrays or lists; each column is converted to a
        Python list exactly once (``tolist``). Bank state is loaded from
        (and stored back to) the :class:`Bank` objects, so successive
        calls on one controller carry open rows, timing constraints and
        the bus across calls. Returns the completion time of the last
        data burst plus merged bank statistics.
        """
        (t_rcd, t_cas, t_rp, t_ras, t_wr, t_ccd,
         t_burst) = self.timing.drain_constants
        bank_objs = self.banks
        n_banks = len(bank_objs)
        banks = np.asarray(req_banks, dtype=np.int64)
        writes = np.asarray(req_writes, dtype=bool)
        n_total = np.bincount(banks, minlength=n_banks).tolist()
        n_writes = np.bincount(banks[writes], minlength=n_banks).tolist()
        open_row = [b.open_row for b in bank_objs]
        ready_act = [b._ready_act for b in bank_objs]
        ready_col = [b._ready_col for b in bank_objs]
        ready_pre = [b._ready_pre for b in bank_objs]
        n_miss = [0] * n_banks
        pending_b = banks.tolist()
        pending_r = np.asarray(req_rows).tolist()
        pending_w = writes.tolist()
        bus = self._bus_free_at
        now = start if start > bus else bus
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
            # inlined Bank.access (same operations, same order)
            if hit:
                rc = ready_col[bank]
                col_at = now if now > rc else rc
                ready_col[bank] = col_at + t_ccd
            else:
                n_miss[bank] += 1
                ra = ready_act[bank]
                if open_row[bank] >= 0:
                    rp = ready_pre[bank]
                    pre_at = now if now > rp else rp
                    act_at = pre_at + t_rp
                    if act_at < ra:
                        act_at = ra
                else:
                    act_at = now if now > ra else ra
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
        self._bus_free_at = bus
        stats = BankStats()
        for idx, b in enumerate(bank_objs):
            b.open_row = open_row[idx]
            b._ready_col = ready_col[idx]
            b._ready_pre = ready_pre[idx]
            if n_total[idx]:
                ra = ready_pre[idx] + t_rp
                if ra > b._ready_act:
                    b._ready_act = ra
            misses = n_miss[idx]
            b.stats.add_counts(n_total[idx] - misses, misses,
                               n_total[idx] - n_writes[idx], n_writes[idx])
            stats.merge(b.stats)
        return VaultResult(finish_time=bus if n else now, stats=stats)

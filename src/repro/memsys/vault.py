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
loop instead of a numpy kernel (see DESIGN.md). Bit-identity against
the reference :class:`Bank` FSM drain, which lives in the tests, is
pinned by ``tests/memsys/test_vectorized_diff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.memsys.bank import Bank, BankStats
from repro.memsys.timing import DramTiming


@dataclass
class VaultResult:
    """Drain outcome for one vault/channel."""

    finish_time: float
    stats: BankStats


def _as_list(column: Sequence) -> list:
    """A fresh Python list of ``column``: numpy's ``tolist`` (native
    ints/bools in one pass) or a copy of a sequence."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


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
        open_row = [b.open_row for b in bank_objs]
        ready_act = [b._ready_act for b in bank_objs]
        ready_col = [b._ready_col for b in bank_objs]
        ready_pre = [b._ready_pre for b in bank_objs]
        n_hits = [0] * len(bank_objs)
        n_miss = [0] * len(bank_objs)
        n_reads = [0] * len(bank_objs)
        n_writes = [0] * len(bank_objs)
        pending_b = _as_list(req_banks)
        pending_r = _as_list(req_rows)
        pending_w = _as_list(req_writes)
        bus = self._bus_free_at
        now = start if start > bus else bus
        finish = now
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
                n_hits[bank] += 1
                rc = ready_col[bank]
                col_at = now if now > rc else rc
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
            data_start = col_at + t_cas
            if data_start < bus:
                data_start = bus
            done = data_start + t_burst
            rc = col_at + t_ccd
            if rc > ready_col[bank]:
                ready_col[bank] = rc
            if is_write:
                n_writes[bank] += 1
                rp = done + t_wr
            else:
                n_reads[bank] += 1
                rp = col_at + t_cas
            if rp > ready_pre[bank]:
                ready_pre[bank] = rp
            ra = ready_pre[bank] + t_rp
            if ra > ready_act[bank]:
                ready_act[bank] = ra
            bus = done
            if done > finish:
                finish = done
        self._bus_free_at = bus
        stats = BankStats()
        for idx, b in enumerate(bank_objs):
            b.open_row = open_row[idx]
            b._ready_act = ready_act[idx]
            b._ready_col = ready_col[idx]
            b._ready_pre = ready_pre[idx]
            b.stats.add_counts(n_hits[idx], n_miss[idx], n_reads[idx],
                               n_writes[idx])
            stats.merge(b.stats)
        return VaultResult(finish_time=finish, stats=stats)

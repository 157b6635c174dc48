"""Request-tuple front ends and scalar references for memsys tests.

The library drains traces only as parallel columns
(:meth:`VaultController.service_arrays`,
:meth:`MemoryDevice.run_trace_arrays`); tests that build short traces
by hand as tuples go through these wrappers. The per-access bank FSM
the drain loop flattens, and the element-path burst coalescer and the
gang-loop stream merge that the library's closed-form windows and
sort-based merge replaced, live here as references.
"""

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.memsys.device import MemoryDevice
from repro.memsys.result import BankStats, MemResult
from repro.memsys.timing import DramTiming
from repro.memsys.trace import (GANG_ELEMS, StreamSpec, _element_addrs,
                                _emit_window_array, _merge_window_arrays)
from repro.memsys.vault import VaultController, VaultResult

#: A device-level request: (physical address, is_write).
Request = Tuple[int, bool]


@dataclass
class Bank:
    """Reference row-buffer FSM of one bank: the open row plus the
    earliest instants at which the next ACTIVATE, column command and
    PRECHARGE may legally issue. The caller owns the shared data bus:
    the bank reports when its burst finishes, given when the bus frees.
    """

    timing: DramTiming
    open_row: int = -1
    _ready_act: float = 0.0      # earliest next ACTIVATE
    _ready_col: float = 0.0      # earliest next READ/WRITE column command
    _ready_pre: float = 0.0      # earliest next PRECHARGE
    stats: BankStats = field(default_factory=BankStats)

    def access(self, row: int, is_write: bool, now: float,
               bus_free_at: float) -> float:
        """One burst access to ``row`` no earlier than ``now``; returns
        when its data burst finishes on the bus (the new bus-free
        time)."""
        t = self.timing
        if self.open_row == row:
            self.stats.row_hits += 1
            col_at = max(now, self._ready_col)
        else:
            self.stats.row_misses += 1
            if self.open_row >= 0:
                pre_at = max(now, self._ready_pre)
                act_at = max(pre_at + t.t_rp, self._ready_act)
            else:
                act_at = max(now, self._ready_act)
            self.stats.activates += 1
            self.open_row = row
            self._ready_pre = act_at + t.t_ras
            col_at = act_at + t.t_rcd

        # The data burst must also wait for the shared bus.
        data_start = max(col_at + t.t_cas, bus_free_at)
        finish = data_start + t.t_burst

        self._ready_col = max(self._ready_col, col_at + t.t_ccd)
        if is_write:
            self.stats.writes += 1
            self._ready_pre = max(self._ready_pre, finish + t.t_wr)
        else:
            self.stats.reads += 1
            self._ready_pre = max(self._ready_pre, col_at + t.t_cas)
        self._ready_act = max(self._ready_act, self._ready_pre + t.t_rp)
        return finish

    def row_is_open(self, row: int) -> bool:
        return self.open_row == row


def service(controller: VaultController,
            requests: Sequence[Tuple[int, int, bool]]) -> VaultResult:
    """Drain (bank, row, is_write) tuples on ``controller``."""
    return controller.service_arrays([r[0] for r in requests],
                                     [r[1] for r in requests],
                                     [r[2] for r in requests])


def run_trace(device: MemoryDevice,
              requests: Iterable[Request]) -> MemResult:
    """Drain (address, is_write) tuples on ``device``."""
    reqs = list(requests)
    addrs = np.fromiter((r[0] for r in reqs), dtype=np.int64,
                        count=len(reqs))
    writes = np.fromiter((r[1] for r in reqs), dtype=bool, count=len(reqs))
    return device.run_trace_arrays(addrs, writes)


def merge_streams(streams: Sequence[StreamSpec], n_samples: Sequence[int],
                  burst_bytes: int) -> List[Request]:
    """The merged sampled windows as (address, is_write) tuples."""
    addrs, writes = _merge_window_arrays(streams, n_samples, burst_bytes)
    return [(int(a), bool(w)) for a, w in zip(addrs, writes)]


def emit_stream_window(stream: StreamSpec, n_sample: int,
                       burst_bytes: int) -> List[Request]:
    """Expand the first ``n_sample`` elements into burst requests."""
    addrs = _emit_window_array(stream, n_sample, burst_bytes)
    w = stream.is_write
    return [(int(a), w) for a in addrs]


def reference_window_array(stream: StreamSpec, n_sample: int,
                           burst_bytes: int) -> np.ndarray:
    """Element-path burst coalescer: every touch's address, then a
    keep-mask over consecutive same-block touches (gathers never
    coalesce)."""
    addrs = _element_addrs(stream, n_sample)
    if addrs.size == 0:
        return addrs
    blocks = addrs // burst_bytes
    if stream.kind == "gather":
        return blocks * burst_bytes
    keep = np.empty(blocks.size, dtype=bool)
    keep[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    return blocks[keep] * burst_bytes


def merge_plan(window_lens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Gang-granular interleave order: ``(window, start, take)`` chunks.

    Replays the proportional round-robin exactly — the stream least far
    through its window (by the same float fraction comparison) issues
    the next gang — but over whole gangs instead of single requests.
    """
    cursors = [0] * len(window_lens)
    remaining = sum(window_lens)
    plan: List[Tuple[int, int, int]] = []
    while remaining:
        best = -1
        best_frac = 2.0
        for idx, length in enumerate(window_lens):
            if cursors[idx] >= length:
                continue
            frac = cursors[idx] / length
            if frac < best_frac:
                best_frac = frac
                best = idx
        take = min(GANG_ELEMS, window_lens[best] - cursors[best])
        plan.append((best, cursors[best], take))
        cursors[best] += take
        remaining -= take
    return plan


def reference_merge_arrays(streams: Sequence[StreamSpec],
                           n_samples: Sequence[int], burst_bytes: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Merged ``(addresses, is_write)`` arrays of the element-path
    windows, copied gang by gang in :func:`merge_plan` order."""
    windows = [reference_window_array(s, n, burst_bytes)
               for s, n in zip(streams, n_samples)]
    plan = merge_plan([w.size for w in windows])
    total = sum(take for _, _, take in plan)
    addrs = np.empty(total, dtype=np.int64)
    writes = np.empty(total, dtype=bool)
    pos = 0
    for idx, start, take in plan:
        addrs[pos:pos + take] = windows[idx][start:start + take]
        writes[pos:pos + take] = streams[idx].is_write
        pos += take
    return addrs, writes

"""Request-tuple front ends and array-path references for memsys tests.

The library drains traces only as parallel columns
(:meth:`VaultController.service_arrays`,
:meth:`MemoryDevice.run_trace_arrays`); tests that build short traces
by hand as tuples go through these wrappers. The element-path burst
coalescer and the gang-loop stream merge that the library's closed-form
windows and sort-based merge replaced live here as references.
"""

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.memsys.device import MemoryDevice, Request
from repro.memsys.result import MemResult
from repro.memsys.trace import (GANG_ELEMS, StreamSpec, _element_addrs,
                                _emit_window_array)
from repro.memsys.vault import VaultController, VaultResult


def service(controller: VaultController,
            requests: Sequence[Tuple[int, int, bool]],
            start: float = 0.0) -> VaultResult:
    """Drain (bank, row, is_write) tuples on ``controller``."""
    return controller.service_arrays([r[0] for r in requests],
                                     [r[1] for r in requests],
                                     [r[2] for r in requests], start)


def run_trace(device: MemoryDevice,
              requests: Iterable[Request]) -> MemResult:
    """Drain (address, is_write) tuples on ``device``."""
    reqs = list(requests)
    addrs = np.fromiter((r[0] for r in reqs), dtype=np.int64,
                        count=len(reqs))
    writes = np.fromiter((r[1] for r in reqs), dtype=bool, count=len(reqs))
    return device.run_trace_arrays(addrs, writes)


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

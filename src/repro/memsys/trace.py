"""Access-stream specifications, window sampling, and extrapolation.

Operations describe their memory behaviour as a set of :class:`StreamSpec`
objects (sequential scans, strided walks, gathers, blocked walks). The
trace machinery expands a *sampled window* of those streams into burst
requests, drains it on a cycle-level device, and extrapolates linearly to
the full working set. Table 2 working sets reach 1 GB; sampling keeps the
cycle-level model tractable while preserving the row-buffer and
bank-conflict behaviour that determines achieved bandwidth (validated by
``tests/memsys/test_trace.py::test_extrapolation_linearity``).

Window emission and the stream merge are exact integer reformulations
of a per-touch walk: seq and strided windows with a positive step, and
blocked windows one dense block at a time, are closed-form burst ranges
(:func:`_emit_window_array`, :func:`_block_runs`), and the proportional
round-robin merge is one stable sort of the gangs on ``(gang start /
window length, stream index)`` that then copies whole gangs
(:func:`_merge_window_arrays`). The per-touch coalescer and gang loop
they replace are the references in ``tests/memsys/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.checks import check_int
from repro.memsys.device import MemoryDevice
from repro.memsys.result import MemResult

#: Default number of elements sampled per simulation across all streams.
DEFAULT_WINDOW_ELEMS = 65536

#: Elements issued per stream before rotating to the next stream. Models
#: the depth of per-stream buffers in the access generators.
GANG_ELEMS = 64


def _lcg(state: int) -> int:
    """Deterministic 63-bit linear congruential step (for gathers)."""
    return (state * 6364136223846793005 + 1442695040888963407) & (
        (1 << 63) - 1)


@dataclass(frozen=True)
class StreamSpec:
    """One access stream of an operation.

    Attributes:
        base: starting physical address.
        n_elems: number of element touches in the full stream.
        elem_bytes: bytes per touched element.
        is_write: write stream if True.
        stride: byte distance between consecutive touches (defaults to
            ``elem_bytes``, i.e. a dense sequential scan).
        region_bytes: for ``kind='gather'``, the size of the region the
            gather indexes into.
        block_elems: for ``kind='blocked'``, elements per dense block.
        block_stride: for ``kind='blocked'``, byte distance between the
            starts of consecutive blocks.
        kind: ``'seq' | 'strided' | 'gather' | 'blocked'``.
    """

    base: int
    n_elems: int
    elem_bytes: int
    is_write: bool = False
    stride: int = 0
    region_bytes: int = 0
    block_elems: int = 0
    block_stride: int = 0
    kind: str = "seq"

    def __post_init__(self) -> None:
        check_int("n_elems", self.n_elems, 0)
        check_int("elem_bytes", self.elem_bytes, 1)
        # streams are built on every execute: fields that are all
        # Python ints (the cores' case) cost one identity test each
        if not (type(self.base) is type(self.stride) is int
                and type(self.region_bytes) is type(self.block_elems)
                is type(self.block_stride) is int):
            for name in ("base", "stride", "region_bytes", "block_elems",
                         "block_stride"):
                check_int(name, getattr(self, name))
        if type(self.is_write) is not bool and not isinstance(
                self.is_write, np.bool_):
            raise TypeError("is_write must be a bool, got "
                            f"{type(self.is_write).__name__}")
        if self.kind not in ("seq", "strided", "gather", "blocked"):
            raise ValueError(f"unknown stream kind: {self.kind!r}")
        if self.kind == "gather" and self.region_bytes <= 0:
            raise ValueError("gather streams need region_bytes > 0")
        if self.kind == "blocked" and (self.block_elems <= 0
                                       or self.block_stride <= 0):
            raise ValueError("blocked streams need block_elems and "
                             "block_stride > 0")

    @property
    def total_bytes(self) -> int:
        """Useful payload bytes of the full stream."""
        return self.n_elems * self.elem_bytes

    def element_addr(self, i: int) -> int:
        """Physical address of the ``i``-th touched element."""
        if self.kind == "seq":
            return self.base + i * self.elem_bytes
        if self.kind == "strided":
            step = self.stride if self.stride else self.elem_bytes
            return self.base + i * step
        if self.kind == "blocked":
            block, off = divmod(i, self.block_elems)
            return self.base + block * self.block_stride + (
                off * self.elem_bytes)
        # gather: deterministic pseudo-random index into the region
        state = _lcg(i + 0x9E3779B9)
        region_elems = max(1, self.region_bytes // self.elem_bytes)
        return self.base + (state % region_elems) * self.elem_bytes


def seq_read(base: int, n_bytes: int, elem_bytes: int = 4) -> StreamSpec:
    """Convenience: dense sequential read of ``n_bytes``."""
    return StreamSpec(base=base, n_elems=n_bytes // elem_bytes,
                      elem_bytes=elem_bytes, is_write=False)


def seq_write(base: int, n_bytes: int, elem_bytes: int = 4) -> StreamSpec:
    """Convenience: dense sequential write of ``n_bytes``."""
    return StreamSpec(base=base, n_elems=n_bytes // elem_bytes,
                      elem_bytes=elem_bytes, is_write=True)


def _element_addrs(stream: StreamSpec, n_sample: int) -> np.ndarray:
    """Addresses of the first ``n_sample`` element touches (int64).

    Vectorized counterpart of :meth:`StreamSpec.element_addr`: the
    sequential/strided/blocked kinds are pure integer arithmetic, and
    the gather kind runs the 63-bit LCG in uint64 — wrapping modulo
    2**64 and masking to 63 bits leaves the low bits (the only ones the
    modulus reduction sees) exactly equal to the scalar path's.
    """
    if n_sample <= 0:
        return np.empty(0, dtype=np.int64)
    idx = np.arange(n_sample, dtype=np.int64)
    if stream.kind == "seq":
        return stream.base + idx * stream.elem_bytes
    if stream.kind == "strided":
        step = stream.stride if stream.stride else stream.elem_bytes
        return stream.base + idx * step
    if stream.kind == "blocked":
        block, off = np.divmod(idx, stream.block_elems)
        return (stream.base + block * stream.block_stride
                + off * stream.elem_bytes)
    # gather: the deterministic LCG over the region
    state = idx.astype(np.uint64) + np.uint64(0x9E3779B9)
    with np.errstate(over="ignore"):
        state = (state * np.uint64(6364136223846793005)
                 + np.uint64(1442695040888963407))
    state &= np.uint64((1 << 63) - 1)
    region_elems = max(1, stream.region_bytes // stream.elem_bytes)
    picks = (state % np.uint64(region_elems)).astype(np.int64)
    return stream.base + picks * stream.elem_bytes


def _emit_window_array(stream: StreamSpec, n_sample: int,
                       burst_bytes: int) -> np.ndarray:
    """Burst-request addresses of one stream's sampled window (int64).

    Consecutive touches that fall into the same burst-aligned block are
    coalesced — a dense scan costs one request per burst, a wide-strided
    walk costs one request per element. That asymmetry is exactly what
    makes transpose-like patterns slow on DRAM.

    Seq and strided windows with a positive step are closed form: with
    ``step <= burst_bytes`` consecutive touches advance at most one
    block, so every block from the first touch's to the last touch's is
    requested exactly once; with ``step > burst_bytes`` every touch
    lands in a new block, so nothing coalesces. Blocked windows with
    ``elem_bytes <= burst_bytes`` are the same rule per dense block
    (:func:`_block_runs`). Gathers never coalesce; negative strides and
    blocked walks of wider elements coalesce touch by touch.
    """
    if n_sample <= 0:
        return np.empty(0, dtype=np.int64)
    step = 0
    if stream.kind in ("seq", "strided"):
        step = (stream.stride if stream.kind == "strided" else 0) or (
            stream.elem_bytes)
    if 0 < step <= burst_bytes:
        last = stream.base + (n_sample - 1) * step
        return np.arange(stream.base // burst_bytes,
                         last // burst_bytes + 1,
                         dtype=np.int64) * burst_bytes
    if stream.kind == "blocked" and stream.elem_bytes <= burst_bytes:
        return _block_runs(stream, n_sample, burst_bytes) * burst_bytes
    blocks = _element_addrs(stream, n_sample) // burst_bytes
    if stream.kind == "gather" or step > burst_bytes:
        return blocks * burst_bytes
    keep = np.empty(blocks.size, dtype=bool)
    keep[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    return blocks[keep] * burst_bytes


def _block_runs(stream: StreamSpec, n_sample: int,
                burst_bytes: int) -> np.ndarray:
    """Burst indices of a blocked window whose elements fit a burst.

    Each dense block requests every burst from its first touch's
    (``start // burst_bytes``) to its last touch's, once; the last block
    may be partial. Across a block boundary only the previous block's
    last burst can repeat as the next block's first, so a run starting
    on its predecessor's last burst starts one later (and an emptied
    run leaves that last burst as the one to compare against).
    """
    per = stream.block_elems
    blocks = -(-n_sample // per)
    starts = stream.base + np.arange(blocks, dtype=np.int64) * (
        stream.block_stride)
    touches = np.full(blocks, per, dtype=np.int64)
    touches[-1] = n_sample - (blocks - 1) * per
    lo = starts // burst_bytes
    hi = (starts + (touches - 1) * stream.elem_bytes) // burst_bytes
    lo[1:] += lo[1:] == hi[:-1]
    lens = hi - lo + 1
    ends = np.cumsum(lens)
    return np.repeat(lo - (ends - lens), lens) + np.arange(
        int(ends[-1]), dtype=np.int64)


def _merge_window_arrays(streams: Sequence[StreamSpec],
                         n_samples: Sequence[int], burst_bytes: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Merged ``(addresses, is_write)`` arrays of the sampled windows.

    Proportional round-robin: the stream least far through its window
    issues its next gang of ``GANG_ELEMS`` requests, ties going to the
    lower stream index. Each stream's gang fractions ``gang start /
    window length`` rise strictly, so that greedy order is a k-way merge
    of them: one stable sort of the gangs' fractions (the same IEEE
    division the greedy compares), concatenated in stream order. The
    windows sit in rows of ``GANG_ELEMS`` slots, one gang a row, so the
    merge copies whole rows in that order; a window's last gang may be
    short, and its unused slots are dropped at the end.
    """
    windows = [_emit_window_array(s, n, burst_bytes)
               for s, n in zip(streams, n_samples)]
    if not windows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    sizes = [w.size for w in windows]
    gangs = [-(-size // GANG_ELEMS) for size in sizes]
    order = np.argsort(np.concatenate(
        [np.arange(0, size, GANG_ELEMS) / size for size in sizes]),
        kind="stable")
    rows = np.empty((len(order), GANG_ELEMS), dtype=np.int64)
    slots = rows.reshape(-1)
    first = 0
    for window, count in zip(windows, gangs):
        slots[first * GANG_ELEMS:first * GANG_ELEMS + window.size] = window
        first += count
    addrs = rows[order].reshape(-1)
    writes = np.repeat(
        np.repeat([s.is_write for s in streams], gangs)[order], GANG_ELEMS)
    short = [(last - 1, size % GANG_ELEMS) for last, size in
             zip(accumulate(gangs), sizes) if size % GANG_ELEMS]
    if not short:
        return addrs, writes
    # drop the unused slots of each short gang: keep the runs between
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    runs = []
    begin = 0
    for slot, used in sorted((int(where[gang]) * GANG_ELEMS, used)
                             for gang, used in short):
        runs.append(slice(begin, slot + used))
        begin = slot + GANG_ELEMS
    runs.append(slice(begin, addrs.size))
    return (np.concatenate([addrs[run] for run in runs]),
            np.concatenate([writes[run] for run in runs]))


def simulate_streams(device: MemoryDevice, streams: Sequence[StreamSpec],
                     window_elems: int = DEFAULT_WINDOW_ELEMS) -> MemResult:
    """Drain ``streams`` on ``device``, sampling a window and extrapolating.

    All streams are shortened by the *same* fraction so their mixing ratio
    (and therefore bank-conflict behaviour) is preserved, then the result
    is scaled back up linearly.
    """
    check_int("window_elems", window_elems, 1)
    streams = [s for s in streams if s.n_elems > 0]
    if not streams:
        return MemResult(time=0.0, energy=0.0, bytes_moved=0)
    total_elems = sum(s.n_elems for s in streams)
    fraction = min(1.0, window_elems / total_elems)
    n_samples = [max(1, int(round(s.n_elems * fraction))) for s in streams]
    addrs, writes = _merge_window_arrays(streams, n_samples,
                                         device.request_bytes)
    window_result = device.run_trace_arrays(addrs, writes)
    sampled_elems = sum(n_samples)
    scale = total_elems / sampled_elems
    return window_result.scaled(scale)

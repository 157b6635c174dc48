"""The DOT accelerator (cblas_sdot / cblas_cdotc_sub).

Supports real and complex-conjugated dot products — the complex variant
is what STAP's 16M ``cblas_cdotc_sub`` calls map to — with the strided
access the BLAS interface allows. The scalar result is written back to a
physical output address, matching the ``_sub`` (store-result) interface.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.accel.base import (AcceleratorCore, Operand, StrideTable,
                              loop_lattice)
from repro.accel.synthesis import LogicBlock
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memmgmt.physmem import PhysMemError
from repro.memsys.trace import StreamSpec
from repro.mkl.profiles import OpProfile, cdotc_profile, dot_profile

_FORMAT = struct.Struct("<qqqqiiB")

DTYPE_F32 = 0
DTYPE_C64 = 1

#: Largest conjugated copy of ``x`` (bytes) the lattice form of a cdotc
#: loop makes; a larger loop runs per iteration, one row copy at a time.
LATTICE_COPY_BYTES = 1 << 24


@dataclass(frozen=True)
class DotParams:
    """Parameters of one DOT invocation.

    Attributes:
        n: elements per vector.
        x_pa / y_pa: operand physical addresses.
        out_pa: where the scalar result is stored.
        incx / incy: element strides (BLAS increments).
        dtype: DTYPE_F32 (sdot) or DTYPE_C64 (cdotc: conj(x).y).
    """

    n: int
    x_pa: int
    y_pa: int
    out_pa: int
    incx: int = 1
    incy: int = 1
    dtype: int = DTYPE_F32

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('x_pa', 'y_pa', 'out_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.n, self.x_pa, self.y_pa, self.out_pa,
                            self.incx, self.incy, self.dtype)

    @classmethod
    def unpack(cls, data: bytes) -> "DotParams":
        n, x_pa, y_pa, out_pa, incx, incy, dtype = _FORMAT.unpack(
            data[:_FORMAT.size])
        return cls(n=n, x_pa=x_pa, y_pa=y_pa, out_pa=out_pa, incx=incx,
                   incy=incy, dtype=dtype)

    @property
    def elem_bytes(self) -> int:
        return 8 if self.dtype == DTYPE_C64 else 4


class DotAccelerator(AcceleratorCore):
    """Dual-stream reduce: per-tile partial sums, NoC reduction tree."""

    name = "DOT"
    opcode = 2
    logic = LogicBlock(fpus=4, sram_kb=2, extra_area=0.010,
                       extra_pw_per_ghz=0.002)   # the reduction tree
    params_type = DotParams

    def run(self, space: UnifiedAddressSpace, params: DotParams) -> None:
        self.bind(space, params, {})(0)

    def bind(self, space: UnifiedAddressSpace, params: DotParams,
             offsets: Mapping[str, Sequence[int]]) -> Callable[[int], None]:
        """Per iteration, slice each operand's window out of the region
        that holds it: the same views (pointer, dtype, strides, shape)
        the per-call path built, so the same BLAS call. BLAS returns 0
        for ``n == 0``, whatever the increments."""
        n = params.n
        np_dtype = np.complex64 if params.dtype == DTYPE_C64 else np.float32
        conj = params.dtype == DTYPE_C64
        x = _window(space, params.x_pa, offsets.get("x_pa"),
                    params.incx, n, params.elem_bytes)
        y = _window(space, params.y_pa, offsets.get("y_pa"),
                    params.incy, n, params.elem_bytes)
        out = _window(space, params.out_pa, offsets.get("out_pa"),
                      1, 1, params.elem_bytes)
        incx, incy = params.incx, params.incy

        def step(i: int) -> None:
            xv = x(i).view(np_dtype)[::incx]
            yv = y(i).view(np_dtype)[::incy]
            value = np.dot(np.conj(xv) if conj else xv, yv)
            out(i).view(np_dtype)[0] = value
        return step

    def run_lattice(self, space: UnifiedAddressSpace, params: DotParams,
                    strides: Optional[StrideTable], count: int) -> bool:
        """All ``count`` iterations as one stacked ``np.matmul`` over
        strided lattice views of the regions: row ``i`` of ``x``, ``y``
        and ``out`` is iteration ``i``'s window. For each row numpy
        makes the same ``@TYPE@_dot`` BLAS call that :meth:`bind`'s step
        makes through ``np.dot``, with the same increments: cdotc's
        ``x`` is conjugated into a fresh C-contiguous array, so each row
        has unit stride as ``np.conj`` of one window has, and ``y`` keeps
        its increment. The stored bytes are therefore identical. The
        lattice runs only when

        * each window has elements, and cdotc's copy of ``x`` stays
          within :data:`LATTICE_COPY_BYTES`;
        * both increments are positive (``np.dot`` copies a negative-
          stride operand to contiguous memory first; matmul walks it);
        * each operand's whole lattice extent lies in one region, and
          its base offset there and its deltas are whole elements (a
          walk-off then fails in the steps, where and as it always did);
        * no iteration reads what an earlier one stored (the ``out``
          extent is disjoint from the ``x`` and ``y`` extents), and no
          two iterations store to one address (the last store wins).
        """
        lattice = loop_lattice(strides, count)
        n, eb = params.n, params.elem_bytes
        conj = params.dtype == DTYPE_C64
        if (lattice is None or n < 1 or params.incx < 1 or params.incy < 1
                or conj and count * n * eb > LATTICE_COPY_BYTES):
            return False
        trips, deltas = lattice
        zeros = (0,) * len(trips)
        if not _distinct(trips, deltas.get("out_pa", zeros)):
            return False
        np_dtype = np.dtype(np.complex64 if conj else np.float32)
        views = []
        for field, inc, elems in (("x_pa", params.incx, n),
                                  ("y_pa", params.incy, n),
                                  ("out_pa", 1, 1)):
            view = _lattice(space, getattr(params, field), trips,
                            deltas.get(field, zeros), inc, elems, np_dtype)
            if view is None:
                return False
            views.append(view)
        (x, x_span), (y, y_span), (out, out_span) = views
        if _overlap(out_span, x_span) or _overlap(out_span, y_span):
            return False
        if conj:
            x = np.conjugate(x, out=np.empty(x.shape, np_dtype))
        out[...] = np.matmul(x[..., None, :], y[..., :, None])[..., 0]
        return True

    def operands(self, params: DotParams) -> Dict[str, Operand]:
        eb = params.elem_bytes
        return {"x_pa": Operand(_span(params.n, params.incx, eb),
                                reads=True),
                "y_pa": Operand(_span(params.n, params.incy, eb),
                                reads=True),
                "out_pa": Operand(eb, writes=True)}

    def accumulates(self, params: DotParams) -> bool:
        # the ``*_sub`` idiom deposits every iteration's partial result
        # into one shared scalar; the LOOP serialises the deposits
        return True

    def profile(self, params: DotParams) -> OpProfile:
        if params.dtype == DTYPE_C64:
            return cdotc_profile(params.n)
        return dot_profile(params.n)

    def streams(self, params: DotParams) -> List[StreamSpec]:
        if params.incx == 0 or params.incy == 0:
            raise ValueError(f"DOT increments must be non-zero: "
                             f"incx={params.incx}, incy={params.incy}")
        if params.dtype not in (DTYPE_F32, DTYPE_C64):
            raise ValueError(f"unknown DOT dtype {params.dtype}")
        eb = params.elem_bytes
        out = []
        for base, inc in ((params.x_pa, params.incx),
                          (params.y_pa, params.incy)):
            if abs(inc) == 1:
                out.append(StreamSpec(base=base, n_elems=params.n,
                                      elem_bytes=eb))
            else:
                out.append(StreamSpec(base=base, n_elems=params.n,
                                      elem_bytes=eb, kind="strided",
                                      stride=abs(inc) * eb))
        return out

    def footprint_streams(self, params: DotParams) -> List[StreamSpec]:
        # the result cell is written too; it has no timed stream, so
        # guarding it leaves modelled time unchanged
        return self.streams(params) + [StreamSpec(
            base=params.out_pa, n_elems=1, elem_bytes=params.elem_bytes,
            is_write=True)]


def _span(n: int, inc: int, elem_bytes: int) -> int:
    """Bytes ``n`` elements ``inc`` apart cover, first to last."""
    return (1 + (n - 1) * abs(inc)) * elem_bytes if n > 0 else 0


def _window(space: UnifiedAddressSpace, pa: int,
            column: Optional[Sequence[int]], inc: int, n: int,
            elem_bytes: int) -> Callable[[int], np.ndarray]:
    """The bytes one operand touches at each loop iteration: ``n``
    elements ``inc`` apart from ``pa + column[i]`` (``pa`` itself when
    the operand does not move). Every access is checked against its
    region; the last region found is kept, so a loop that stays inside
    one allocation looks it up once."""
    nbytes = _span(n, inc, elem_bytes)
    start, end, backing = 0, -1, None

    def window(i: int) -> np.ndarray:
        nonlocal start, end, backing
        addr = pa + column[i] if column is not None else pa
        if not start <= addr <= end - nbytes:
            start, backing = space.pa_region(addr, nbytes)
            end = start + len(backing)
        off = addr - start
        return backing[off:off + nbytes]
    return window


def _lattice(space: UnifiedAddressSpace, pa: int, trips: Sequence[int],
             deltas: Sequence[int], inc: int, n: int, dtype: np.dtype):
    """Every iteration's window of one operand as the rows of one
    strided view of its region, with the byte extent ``(lo, hi)`` the
    rows cover; ``None`` when that extent leaves one region or a row is
    not element-aligned in it."""
    eb = dtype.itemsize
    if any(delta % eb for delta in deltas):
        return None
    reaches = [delta * (trip - 1) for trip, delta in zip(trips, deltas)]
    lo = pa + sum(r for r in reaches if r < 0)
    hi = pa + sum(r for r in reaches if r > 0) + (1 + (n - 1) * inc) * eb
    try:
        start, backing = space.pa_region(lo, hi - lo)
    except PhysMemError:
        return None
    if (pa - start) % eb:
        return None
    rows = backing[lo - start:hi - start].view(dtype)[(pa - lo) // eb:]
    view = as_strided(rows, shape=tuple(trips) + (n,),
                      strides=tuple(deltas) + (inc * eb,))
    return view, (lo, hi)


def _overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _distinct(trips: Sequence[int], deltas: Sequence[int]) -> bool:
    """Whether no two iterations share an offset, by a sufficient test:
    taken by step size, each moving level's step passes the reach of all
    finer levels, as in a mixed radix."""
    reach = 0
    for step, trip in sorted((abs(delta), trip)
                             for trip, delta in zip(trips, deltas)
                             if trip > 1):
        if step <= reach:
            return False
        reach += step * (trip - 1)
    return True

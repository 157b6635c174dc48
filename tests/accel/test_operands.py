"""Each core's operand declaration against the bytes it touches.

``AcceleratorCore.operands`` is what the compiler's alias, bounds and
race analyses read. These tests run every core through an address
space that records each span it maps (``pa_ndarray``/``pa_region``)
and compare memory before and after, then check that

* each mapped span lies inside a declared operand;
* each changed byte lies inside an operand declared written;
* every declared operand is mapped.

They cover all seven cores on Table 2 parameters at three scales, in
place where the core allows it, and looped DOT through both ``bind``
and ``run_lattice``.
"""

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.accel.base import StrideTable, linear_strides, offset_columns
from repro.accel.dot import DTYPE_C64, DTYPE_F32, DotParams
from repro.accel.layer import CORES
from repro.accel.resmp import ResmpParams
from repro.accel.spmv import SpmvParams
from repro.eval.workloads import OP_ORDER, TABLE2
from repro.memmgmt import MealibDriver, UnifiedAddressSpace

SCALES = (1e-4, 1e-3, 4e-3)

Span = Tuple[int, int]                   # [lo, hi)


class RecordingSpace:
    """An address space that records every ``[lo, hi)`` a core maps."""

    def __init__(self, space: UnifiedAddressSpace):
        self.space = space
        self.mapped: List[Span] = []

    def pa_ndarray(self, pa, dtype, shape):
        size = np.dtype(dtype).itemsize * int(np.prod(shape))
        self.mapped.append((pa, pa + size))
        return self.space.pa_ndarray(pa, dtype, shape)

    def pa_region(self, pa, n):
        self.mapped.append((pa, pa + n))
        return self.space.pa_region(pa, n)

    def __getattr__(self, name):
        return getattr(self.space, name)


def _placed(core, params, rng) -> Tuple[RecordingSpace, object]:
    """One region holding every operand of ``params`` (whose addresses
    are offsets from 0), filled with small random floats, and the
    parameters moved into it."""
    end = max(getattr(params, f) + op.size
              for f, op in core.operands(params).items())
    space = UnifiedAddressSpace(MealibDriver(stack_bytes=64 << 20))
    buf, words = space.alloc_array((-(-end // 4) + 16,), np.float32)
    words[:] = rng.standard_normal(len(words))
    return RecordingSpace(space), replace(params, **{
        f: buf.pa + getattr(params, f) for f in params.ADDR_FIELDS})


def _valid_inputs(space: RecordingSpace, params, rng) -> None:
    """Operands whose bytes the core reads as structure, not numbers."""
    space = space.space
    if isinstance(params, SpmvParams):
        rows, nnz = params.rows, params.nnz
        indptr = space.pa_ndarray(params.indptr_pa, np.int64, (rows + 1,))
        indptr[:] = np.arange(rows + 1) * (nnz // rows)
        indices = space.pa_ndarray(params.indices_pa, np.int64, (nnz,))
        indices[:] = rng.integers(0, params.cols, nnz)
    elif isinstance(params, ResmpParams):
        shape = (params.blocks, params.n_out)
        space.pa_ndarray(params.knots_pa, np.float32,
                         (params.n_in,))[:] = np.arange(params.n_in)
        space.pa_ndarray(params.sites_pa, np.float32, shape)[:] = \
            rng.uniform(0, params.n_in - 1, shape)


def _image(space: RecordingSpace) -> List[np.ndarray]:
    return [space.space.pa_region(start, size)[1].copy()
            for start, size in space.driver.phys.regions()]


def _inside(span: Span, spans: List[Span]) -> bool:
    return any(lo <= span[0] and span[1] <= hi for lo, hi in spans)


def _check(space: RecordingSpace, before: List[np.ndarray],
           operands: List[Dict[str, Span]], writes: List[Dict[str, Span]],
           every_operand: bool) -> None:
    """``operands``/``writes``: per iteration, field -> declared span."""
    fields = {f for ops in operands for f in ops}
    hulls = {f: (min(ops[f][0] for ops in operands),
                 max(ops[f][1] for ops in operands)) for f in fields}
    mapped = [s for s in space.mapped if s[1] > s[0]]
    for span in mapped:
        assert _inside(span, list(hulls.values())), span
    for (start, size), old in zip(space.driver.phys.regions(), before):
        written = np.zeros(size, bool)
        for ops in writes:
            for lo, hi in ops.values():
                written[max(lo - start, 0):max(hi - start, 0)] = True
        changed = space.space.pa_region(start, size)[1] != old
        stray = np.flatnonzero(changed & ~written)
        assert not len(stray), start + stray[:8]
    for f, hull in hulls.items():
        if hull[1] == hull[0]:
            continue
        if every_operand:
            assert _inside(hull, mapped), f
        else:
            assert any(hull[0] <= lo and hi <= hull[1]
                       for lo, hi in mapped), f


def _spans(core, params, role: str = "any") -> Dict[str, Span]:
    return {f: (getattr(params, f), getattr(params, f) + op.size)
            for f, op in core.operands(params).items()
            if role == "any" or getattr(op, role)}


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("op", OP_ORDER)
def test_declaration_covers_what_the_core_touches(op, scale):
    rng = np.random.default_rng(7)
    core = CORES[op]
    space, params = _placed(core, TABLE2[op].params(scale), rng)
    _valid_inputs(space, params, rng)
    before = _image(space)
    core.run(space, params)
    _check(space, before, [_spans(core, params)],
           [_spans(core, params, "writes")], every_operand=True)


@pytest.mark.parametrize("op", ["FFT", "RESHP"])
def test_in_place_declaration(op):
    rng = np.random.default_rng(11)
    core = CORES[op]
    assert core.inplace_exact
    space, params = _placed(core, TABLE2[op].params(0.0), rng)
    params = replace(params, dst_pa=params.src_pa)
    before = _image(space)
    core.run(space, params)
    _check(space, before, [_spans(core, params)],
           [_spans(core, params, "writes")], every_operand=True)


def test_only_fft_and_reshp_run_in_place():
    assert {n for n, core in CORES.items() if core.inplace_exact} \
        == {"FFT", "RESHP"}


#: (params with addresses from 0, stride table, count): a STAP-shaped
#: two-level cdotc nest and a one-level sdot strided on both operands
LOOPS = [
    (DotParams(n=16, x_pa=0, y_pa=4 * 3 * 16 * 8, out_pa=2 * 4 * 3 * 16 * 8,
               dtype=DTYPE_C64),
     StrideTable(trips=(4, 3), deltas={"x_pa": (3 * 16 * 8, 16 * 8),
                                       "y_pa": (3 * 16 * 8, 16 * 8),
                                       "out_pa": (3 * 8, 8)}), 12),
    (DotParams(n=32, x_pa=0, y_pa=4096, out_pa=8192, incx=3, incy=2,
               dtype=DTYPE_F32),
     linear_strides(DotParams, {"x_pa": 4 * 32, "y_pa": 4 * 64,
                                "out_pa": 4}), 10),
]


@pytest.mark.parametrize("lattice", [False, True], ids=["bind", "lattice"])
@pytest.mark.parametrize("loop", range(len(LOOPS)))
def test_looped_dot_stays_in_its_operands(loop, lattice):
    params, strides, count = LOOPS[loop]
    rng = np.random.default_rng(loop)
    core = CORES["DOT"]
    space, params = _placed(core, params, rng)
    columns = offset_columns(strides, range(count))
    iterations = [replace(params, **{f: getattr(params, f) + col[i]
                                     for f, col in columns.items()})
                  for i in range(count)]
    before = _image(space)
    if lattice:
        assert core.run_lattice(space, params, strides, count)
    else:
        step = core.bind(space, params, columns)
        for i in range(count):
            step(i)
    # bind looks a region up only when an iteration leaves the last one
    # it found, so there each operand need only be mapped somewhere
    _check(space, before, [_spans(core, p) for p in iterations],
           [_spans(core, p, "writes") for p in iterations],
           every_operand=lattice)

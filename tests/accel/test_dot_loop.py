"""Looped DOT passes, bound once per execute, against the per-iteration
reference (``shift_params`` plus one typed view per operand per call,
in ``tests.accel.helpers``): the bytes of every region must match
exactly, errors included. Also DOT's decode-time rejections and its
``n == 0`` result, through ``acc_execute(functional=True)``."""

import itertools
import random

import numpy as np
import pytest

from repro.accel import AxpyParams, DotParams, DTYPE_C64
from repro.accel.base import StrideTable
from repro.accel.dot import DTYPE_F32
from repro.core import DescriptorError, MealibSystem, ParamStore
from repro.core import config_unit
from repro.core.config_unit import CompInstance, _checked_plan
from repro.memmgmt import PhysMemError
from tests.accel.helpers import offsets, restore, run_loop, snapshot

INCREMENTS = (1, 2, -1, -3)


@pytest.fixture
def system():
    return MealibSystem(stack_bytes=64 << 20)


@pytest.fixture(params=[None, 5], ids=["one-bind", "chunk5"])
def chunk(request, monkeypatch):
    """Bind once per execute, or every 5 iterations: the columns of a
    later chunk start mid-table."""
    if request.param is not None:
        monkeypatch.setattr(config_unit, "LOOP_BIND_CHUNK", request.param)


def fill(view, rng):
    view[:] = rng.standard_normal(view.shape)
    if np.iscomplexobj(view):
        view.imag = rng.standard_normal(view.shape)


def reach(table, count, field):
    """Lowest and highest offset ``field`` takes over the loop."""
    offs = [offsets(table, i)[field] for i in range(count)]
    return min(offs), max(offs)


def operand(system, rng, table, count, field, nbytes, dtype):
    """A separate allocation, filled from ``rng``, holding every
    iteration's access of ``field``; returns the base address iteration
    0 uses."""
    lo, hi = reach(table, count, field)
    itemsize = np.dtype(dtype).itemsize
    elems = (hi - lo + nbytes) // itemsize + 1
    buf, view = system.space.alloc_array((elems,), dtype)
    fill(view, rng)
    return buf.pa - lo


def random_table(rng, levels, eb, n):
    trips = tuple(rng.randint(1, 3) for _ in range(levels))
    deltas = {f: tuple(rng.choice((0, 1, -1, 2, n, -n)) * eb
                       for _ in range(levels))
              for f in DotParams.ADDR_FIELDS}
    return StrideTable(trips=trips, deltas=deltas)


def assert_bound_matches_reference(system, comps, count):
    """Run the pass through ``run_functional`` and through the
    per-iteration reference from the same bytes; compare every region
    and any error."""
    space = system.space
    before = snapshot(space)
    try:
        run_loop(space, comps, count)
        expected_error = None
    except PhysMemError as exc:
        expected_error = str(exc)
    expected = snapshot(space)
    restore(space, before)
    plan = _checked_plan(tuple(comps), count)
    if expected_error is None:
        system.config_unit.run_functional(plan)
    else:
        with pytest.raises(PhysMemError) as info:
            system.config_unit.run_functional(plan)
        assert str(info.value) == expected_error
    assert snapshot(space) == expected
    return expected_error


@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_bound_dot_loop_matches_reference(system, chunk, dtype, levels):
    """F32 and C64, every increment pair, n in {0, 1, 16}, 1-4-level
    tables, operands in separate allocations; counts at and past the
    table total (the table wraps)."""
    rng = random.Random(100 * dtype + levels)
    data = np.random.default_rng(levels)
    np_dtype = np.complex64 if dtype == DTYPE_C64 else np.float32
    eb = np.dtype(np_dtype).itemsize
    core = system.layer.accelerator("DOT")
    for incx, incy, n in itertools.product(INCREMENTS, INCREMENTS,
                                           (0, 1, 16)):
        table = random_table(rng, levels, eb, max(n, 1))
        count = table.total + rng.choice((0, 0, 3))
        spans = {"x_pa": (1 + (n - 1) * abs(incx)) * eb if n else 0,
                 "y_pa": (1 + (n - 1) * abs(incy)) * eb if n else 0,
                 "out_pa": eb}
        params = DotParams(n=n, incx=incx, incy=incy, dtype=dtype, **{
            f: operand(system, data, table, count, f, nbytes, np_dtype)
            for f, nbytes in spans.items()})
        comp = CompInstance(core=core, params=params, strides=table)
        assert assert_bound_matches_reference(system, [comp],
                                              count) is None


@pytest.mark.parametrize("walker", DotParams.ADDR_FIELDS)
@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
def test_loop_walking_off_a_region_fails_at_the_same_iteration(
        system, chunk, walker, dtype):
    """One operand walks past the end of its one-page allocation, the
    last one made: the same PhysMemError at the same iteration, after
    the same earlier writes."""
    np_dtype = np.complex64 if dtype == DTYPE_C64 else np.float32
    eb = np.dtype(np_dtype).itemsize
    n = 16
    step = n * eb + eb
    rng = np.random.default_rng(7)
    bufs = {}
    for field in sorted(DotParams.ADDR_FIELDS, key=lambda f: f == walker):
        buf, view = system.space.alloc_array((4096 // eb,), np_dtype)
        fill(view, rng)
        bufs[field] = buf.pa
    deltas = {f: ((step if f == walker else eb),)
              for f in DotParams.ADDR_FIELDS}
    params = DotParams(n=n, dtype=dtype, x_pa=bufs["x_pa"],
                       y_pa=bufs["y_pa"], out_pa=bufs["out_pa"])
    comp = CompInstance(core=system.layer.accelerator("DOT"),
                        params=params,
                        strides=StrideTable(trips=(0,), deltas=deltas))
    error = assert_bound_matches_reference(system, [comp],
                                           4096 // step + 3)
    assert error is not None and "crosses region end" in error


def test_two_comp_looped_pass_keeps_iteration_order(system, chunk):
    """AXPY accumulates row i into y, then DOT(y, ones) stores the
    running total: only COMP-by-COMP iteration order gives prefix
    sums."""
    rows, n = 6, 32
    rng = np.random.default_rng(3)
    xb, x = system.space.alloc_array((rows, n), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    ob, ones = system.space.alloc_array((n,), np.float32)
    sb, sums = system.space.alloc_array((rows,), np.float32)
    x[:] = rng.integers(-4, 5, (rows, n))
    y[:] = 0.0
    ones[:] = 1.0
    axpy = CompInstance(
        core=system.layer.accelerator("AXPY"),
        params=AxpyParams(n=n, alpha=1.0, x_pa=xb.pa, y_pa=yb.pa),
        strides=StrideTable(trips=(0,), deltas={"x_pa": (n * 4,),
                                                "y_pa": (0,)}))
    dot = CompInstance(
        core=system.layer.accelerator("DOT"),
        params=DotParams(n=n, x_pa=yb.pa, y_pa=ob.pa, out_pa=sb.pa),
        strides=StrideTable(trips=(0,), deltas={"x_pa": (0,),
                                                "y_pa": (0,),
                                                "out_pa": (4,)}))
    assert assert_bound_matches_reference(system, [axpy, dot], rows) is None
    np.testing.assert_array_equal(sums, np.cumsum(x.sum(axis=1)))


# -- through acc_execute -------------------------------------------------------

def dot_plan(system, n, incx=1, incy=1, dtype=DTYPE_F32):
    """A one-COMP DOT descriptor over backed buffers; the result slot
    starts at 99."""
    np_dtype = np.complex64 if dtype == DTYPE_C64 else np.float32
    xb, x = system.space.alloc_array((64,), np_dtype)
    yb, y = system.space.alloc_array((64,), np_dtype)
    ob, out = system.space.alloc_array((1,), np_dtype)
    x[:] = np.arange(64)
    y[:] = 2.0
    out[:] = 99.0
    store = ParamStore()
    store.add("d.para", DotParams(n=n, x_pa=xb.pa, y_pa=yb.pa, out_pa=ob.pa,
                                  incx=incx, incy=incy, dtype=dtype).pack())
    plan = system.runtime.acc_plan("PASS { COMP DOT d.para }", store,
                                   in_size=1024, out_size=8)
    return plan, out


@pytest.mark.parametrize("bad", [dict(incx=0), dict(incy=0),
                                 dict(dtype=2), dict(dtype=255)])
def test_dot_rejects_what_it_cannot_run_at_decode(system, bad):
    """A zero increment or an unknown dtype is a malformed descriptor,
    rejected before any functional effect."""
    plan, out = dot_plan(system, 4, **bad)
    with pytest.raises(DescriptorError, match="DOT parameters"):
        system.runtime.acc_execute(plan, functional=True)
    assert out[0] == 99.0


@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
@pytest.mark.parametrize("inc", INCREMENTS)
def test_dot_of_no_elements_stores_zero(system, dtype, inc):
    """BLAS returns 0 for n <= 0, whatever the increments."""
    plan, out = dot_plan(system, 0, incx=inc, incy=-inc, dtype=dtype)
    system.runtime.acc_execute(plan, functional=True)
    assert out[0] == 0

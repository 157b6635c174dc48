"""Looped DOT passes, bound once per execute, against the per-iteration
reference (``shift_params`` plus one typed view per operand per call,
in ``tests.accel.helpers``): the bytes of every region must match
exactly, errors included. Also DOT's decode-time rejections and its
``n == 0`` result, through ``acc_execute(functional=True)``."""

import itertools
import random

import numpy as np
import pytest

from repro.accel import AxpyParams, DotAccelerator, DotParams, DTYPE_C64
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


# -- the lattice form ----------------------------------------------------------
#
# A one-COMP DOT loop runs as one stacked matmul over strided views of
# its regions (``DotAccelerator.run_lattice``) when that stores the same
# bytes as the steps; otherwise the steps run. The battery below draws
# seeded loops of every kind, lattice-ready or not, inside one arena,
# and checks each against the per-iteration reference.

POSITIVE_INCREMENTS = (1, 2, 5, 24)
NEGATIVE_INCREMENTS = (-1, -3)
ARENA_BYTES = 1 << 19
LATTICE_TRIALS = 300


@pytest.fixture
def lattice_verdicts(monkeypatch):
    """Every ``run_lattice`` answer, in call order."""
    verdicts = []
    real = DotAccelerator.run_lattice

    def spy(self, space, params, strides, count):
        took = real(self, space, params, strides, count)
        verdicts.append(took)
        return took
    monkeypatch.setattr(DotAccelerator, "run_lattice", spy)
    return verdicts


def window_bytes(n, inc, eb):
    return (1 + (n - 1) * abs(inc)) * eb if n else 0


#: How a trial departs from a loop the lattice form can run (None: it
#: does not). ``cut`` on a one-level table (linear whatever its count)
#: and ``collide`` with deltas that happen to be distinct leave it
#: runnable; every other twist must make the lattice decline.
TWISTS = (None,) * 6 + ("negative", "empty", "unaligned", "cut",
                        "collide", "shared", "walk")


def injective_deltas(rng, trips, eb):
    """Deltas that give every iteration its own offset: the levels in a
    random order, each a signed multiple of the reach of those before."""
    place = eb * rng.choice((1, 2))
    deltas = [0] * len(trips)
    for level in rng.sample(range(len(trips)), len(trips)):
        deltas[level] = place * rng.choice((1, -1))
        place *= max(trips[level], 1)
    return tuple(deltas)


def lattice_trial(rng, eb):
    """One seeded loop: ``(twist, n, incx, incy, spans, table, count)``.
    ``x`` and ``y`` deltas mix zero, one and two elements and whole
    windows, either sign; one-level tables are linear whatever their
    trip, deeper ones run at their total unless the twist is ``cut``."""
    twist = rng.choice(TWISTS)
    n = 0 if twist == "empty" else rng.choice((1, 16, 100))
    incx, incy = (rng.choice(POSITIVE_INCREMENTS) for _ in range(2))
    if twist == "negative":
        negative = rng.choice(NEGATIVE_INCREMENTS)
        incx, incy = rng.choice(((negative, incy), (incx, negative)))
    spans = {"x_pa": window_bytes(n, incx, eb),
             "y_pa": window_bytes(n, incy, eb), "out_pa": eb}
    levels = rng.randint(1, 4)
    if levels == 1:
        trips = (rng.choice((0, 1, 4)),)
    else:
        trips = tuple(rng.randint(1, 3) for _ in range(levels))
    deltas = {f: tuple(rng.choice((0, 0, eb, -eb, 2 * eb, -2 * eb,
                                   max(span, eb), -max(span, eb)))
                       for _ in range(levels))
              for f, span in spans.items()}
    if twist != "collide":
        deltas["out_pa"] = injective_deltas(rng, trips, eb)
    if twist == "unaligned" and rng.random() < 0.5:
        field = rng.choice(DotParams.ADDR_FIELDS)
        deltas[field] = (deltas[field][0] + rng.randint(1, eb - 1),
                         ) + deltas[field][1:]
    table = StrideTable(trips=trips, deltas=deltas)
    if levels == 1:
        count = rng.randint(1, 8)
    elif twist == "cut":
        count = table.total + rng.choice((-1, 2)) if table.total > 1 else 3
    else:
        count = table.total
    return twist, n, incx, incy, spans, table, count


def place(rng, arena_pa, table, count, spans, twist, eb):
    """Base addresses in the arena, each operand in its own third. The
    twist ``shared`` then moves ``out``'s first store into the bytes
    ``x`` or ``y`` reads over the loop, so stores may be read later;
    ``walk`` moves one operand so its reach ends past the arena, where
    the steps fail; ``unaligned`` shifts one base by part of an
    element."""
    slot = ARENA_BYTES // 3 // eb * eb
    bases, extents = {}, {}
    for k, (field, span) in enumerate(spans.items()):
        lo, hi = reach(table, count, field)
        room = slot - (hi - lo) - span
        start = arena_pa + k * slot + rng.randrange(0, max(room, 1), eb)
        bases[field] = start - lo
        extents[field] = (start, hi - lo + span)
    if twist == "shared":
        start, size = extents[rng.choice(("x_pa", "y_pa"))]
        bases["out_pa"] = (start + rng.randrange(0, max(size, eb), eb)
                           - reach(table, count, "out_pa")[0])
    elif twist == "walk":
        field = rng.choice(DotParams.ADDR_FIELDS)
        lo, hi = reach(table, count, field)
        past = rng.randrange(eb, hi - lo + 2 * eb, eb)
        bases[field] = arena_pa + ARENA_BYTES - spans[field] - hi + past
    elif twist == "unaligned":
        bases[rng.choice(DotParams.ADDR_FIELDS)] += rng.randint(1, eb - 1)
    return bases


@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
def test_lattice_battery_matches_reference(system, chunk, lattice_verdicts,
                                           dtype):
    """Seeded one-COMP DOT loops: F32 and C64; increments 1, 2, 5, 24,
    -1 and -3; n in {0, 1, 16, 100}; linear and 2-4-level tables with
    zero and negative deltas, counts below, at and past the total;
    unaligned bases and deltas; operands apart, overlapping (stores
    read later) or walking off the arena, and colliding stores. Every
    region's bytes, and any error, must equal the per-iteration
    reference. Most untwisted loops must have run as a lattice, and
    none that a twist makes unsafe."""
    rng = random.Random(2015 + dtype)
    np_dtype = np.complex64 if dtype == DTYPE_C64 else np.float32
    eb = np.dtype(np_dtype).itemsize
    buf, arena = system.space.alloc_array((ARENA_BYTES // eb,), np_dtype)
    fill(arena, np.random.default_rng(dtype))
    pristine = snapshot(system.space)
    core = system.layer.accelerator("DOT")
    trials = {twist: [0, 0, 0] for twist in TWISTS}   # runs, lattice, error
    with np.errstate(all="ignore"):   # unaligned bytes read as floats
        for _ in range(LATTICE_TRIALS):
            restore(system.space, pristine)
            twist, n, incx, incy, spans, table, count = lattice_trial(rng,
                                                                     eb)
            bases = place(rng, buf.pa, table, count, spans, twist, eb)
            params = DotParams(n=n, incx=incx, incy=incy, dtype=dtype,
                               **bases)
            comp = CompInstance(core=core, params=params, strides=table)
            del lattice_verdicts[:]
            error = assert_bound_matches_reference(system, [comp], count)
            took = lattice_verdicts == [True]
            assert not (took and count > config_unit.LOOP_BIND_CHUNK)
            tally = trials[twist]
            tally[0] += 1
            tally[1] += took
            tally[2] += error is not None
    runs, lattice, _ = trials[None]
    for twist in ("negative", "empty", "unaligned", "shared", "walk"):
        assert trials[twist][1] == 0, twist
    assert trials["walk"][2] == trials["walk"][0]
    assert min(tally[0] for tally in trials.values()) > 5
    if config_unit.LOOP_BIND_CHUNK >= 8:
        assert lattice > 0.9 * runs
    else:
        assert lattice > 0


def lattice_arena(system, dtype, elems):
    np_dtype = np.complex64 if dtype == DTYPE_C64 else np.float32
    buf, view = system.space.alloc_array((elems,), np_dtype)
    fill(view, np.random.default_rng(11))
    return buf.pa, np.dtype(np_dtype).itemsize


@pytest.mark.parametrize("reader", ["x_pa", "y_pa"])
@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
def test_lattice_declines_when_a_later_iteration_reads_a_result(
        system, lattice_verdicts, reader, dtype):
    """Iteration ``i`` stores where iteration ``i + 1`` reads its last
    element: only the steps, in order, chain the results."""
    n, count = 16, 12
    pa, eb = lattice_arena(system, dtype, 4096)
    deltas = {f: (eb,) for f in DotParams.ADDR_FIELDS}
    bases = {"x_pa": pa, "y_pa": pa + 1024 * eb,
             "out_pa": pa + 2048 * eb}
    bases["out_pa"] = bases[reader] + n * eb
    params = DotParams(n=n, dtype=dtype, **bases)
    comp = CompInstance(core=system.layer.accelerator("DOT"),
                        params=params,
                        strides=StrideTable(trips=(0,), deltas=deltas))
    assert assert_bound_matches_reference(system, [comp], count) is None
    assert lattice_verdicts == [False]


@pytest.mark.parametrize("dtype", [DTYPE_F32, DTYPE_C64])
def test_lattice_declines_colliding_stores(system, lattice_verdicts,
                                           dtype):
    """Offsets ``i + 2j`` elements over trips (3, 2) store twice to two
    addresses; in sequence the later iteration's result stays."""
    pa, eb = lattice_arena(system, dtype, 4096)
    deltas = {"x_pa": (64 * eb, 16 * eb), "y_pa": (0, 32 * eb),
              "out_pa": (eb, 2 * eb)}
    params = DotParams(n=16, dtype=dtype, x_pa=pa, y_pa=pa + 1024 * eb,
                       out_pa=pa + 2048 * eb)
    comp = CompInstance(core=system.layer.accelerator("DOT"),
                        params=params,
                        strides=StrideTable(trips=(3, 2), deltas=deltas))
    assert assert_bound_matches_reference(system, [comp], 6) is None
    assert lattice_verdicts == [False]

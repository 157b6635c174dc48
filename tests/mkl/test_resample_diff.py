"""Differential battery: the batched spline resampler against the
per-block reference loop in ``tests/mkl/helpers.py``, byte for byte.

:func:`repro.mkl.interpolate_rows` factors the knots' tridiagonal bands
once and sweeps every row at once; the reference fits each series (and
each real/imaginary part) on its own with scalar loops. Each element
must go through the same IEEE operations in the same order, so outputs
are compared with ``tobytes()`` and dtype, never a tolerance. Seeded
trials cover the 3-knot minimum, uniform and irregular float32-rounded
knots, 0, 1 and many rows, sites outside the knot range and exactly on
knots, magnitudes 1e-6 to 1e6, and real float64 and complex64 series.
The RESMP accelerator and the interpreter's ``dfsInterpolate1D`` branch
are checked the same way.
"""

import numpy as np
import pytest

from repro.accel import ResmpAccelerator, ResmpParams
from repro.compiler import run_original
from repro.memmgmt import MealibDriver, UnifiedAddressSpace
from repro.mkl import (fit_cubic_spline, interpolate_1d, interpolate_rows,
                       thomas_solve)
from tests.mkl.helpers import (reference_evaluate, reference_fit,
                               reference_interpolate_1d,
                               reference_interpolate_rows,
                               reference_thomas_solve)

BLOCKS = 10
TRIALS_PER_BLOCK = 30


def random_knots(rng):
    n = 3 if rng.random() < 0.15 else int(rng.integers(3, 130))
    if rng.random() < 0.5:
        start = float(rng.uniform(-50.0, 50.0))
        step = float(10 ** rng.uniform(-1.0, 1.0))
        return (start + step * np.arange(n)).astype(np.float32)
    steps = rng.uniform(0.05, 3.0, n)
    return (float(rng.uniform(-50.0, 50.0))
            + np.cumsum(steps)).astype(np.float32)


def random_rows(rng):
    kind = rng.integers(3)
    if kind == 0:
        return 0
    if kind == 1:
        return 1
    return int(rng.integers(2, 80))


def random_sites(rng, knots, rows):
    m = int(rng.integers(1, 150))
    span = float(knots[-1] - knots[0])
    sites = rng.uniform(knots[0] - 0.2 * span, knots[-1] + 0.2 * span,
                        (rows, m))
    on_knot = rng.random((rows, m)) < 0.2
    sites[on_knot] = rng.choice(knots, int(on_knot.sum()))
    return sites.astype(np.float32)


def random_series(rng, rows, n):
    mag = float(10 ** rng.uniform(-6.0, 6.0))
    if rng.random() < 0.3:
        return rng.standard_normal((rows, n)) * mag
    return ((rng.standard_normal((rows, n))
             + 1j * rng.standard_normal((rows, n))) * mag
            ).astype(np.complex64)


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", range(BLOCKS))
def test_batched_matches_per_block_loop(block):
    rng = np.random.default_rng((2015, block))
    for _ in range(TRIALS_PER_BLOCK):
        knots = random_knots(rng)
        rows = random_rows(rng)
        series = random_series(rng, rows, len(knots))
        sites = random_sites(rng, knots, rows)
        assert_same(interpolate_rows(knots, series, sites),
                    reference_interpolate_rows(knots, series, sites))
        if rows:
            x = knots.astype(np.float64)
            s = sites[0].astype(np.float64)
            assert_same(interpolate_1d(x, series[0], s),
                        reference_interpolate_1d(x, series[0], s))


@pytest.mark.parametrize("seed", range(20))
def test_spline_and_solver_match_reference(seed):
    rng = np.random.default_rng((31, seed))
    knots = random_knots(rng).astype(np.float64)
    y = random_series(rng, 1, len(knots)).real[0].astype(np.float64)
    sites = random_sites(rng, knots, 1)[0].astype(np.float64)
    spline = fit_cubic_spline(knots, y)
    x_ref, y_ref, second_ref = reference_fit(knots, y)
    assert_same(spline.second_derivs, second_ref)
    assert_same(spline.evaluate(sites),
                reference_evaluate(x_ref, y_ref, second_ref, sites))
    n = int(rng.integers(1, 60))
    lower, upper, rhs = (rng.standard_normal(n) for _ in range(3))
    diag = 4.0 + rng.random(n)
    assert_same(thomas_solve(lower, diag, upper, rhs),
                reference_thomas_solve(lower, diag, upper, rhs))


@pytest.mark.parametrize("seed", range(12))
def test_resmp_accelerator_matches_reference(seed):
    rng = np.random.default_rng((7, seed))
    space = UnifiedAddressSpace(MealibDriver(stack_bytes=16 << 20))
    knots_in = random_knots(rng)
    blocks = 1 if seed % 4 == 0 else int(rng.integers(2, 40))
    n, lines = len(knots_in), random_series(rng, blocks, len(knots_in))
    sites_in = random_sites(rng, knots_in, blocks)
    m = sites_in.shape[1]
    kb, knots = space.alloc_array((n,), np.float32)
    ib, series = space.alloc_array((blocks, n), np.complex64)
    sb, sites = space.alloc_array((blocks, m), np.float32)
    ob, out = space.alloc_array((blocks, m), np.complex64)
    knots[:], series[:], sites[:] = knots_in, lines, sites_in
    ResmpAccelerator().run(space, ResmpParams(
        blocks=blocks, n_in=n, n_out=m, in_pa=ib.pa, sites_pa=sb.pa,
        out_pa=ob.pa, knots_pa=kb.pa))
    assert_same(out, reference_interpolate_rows(knots, series, sites))


@pytest.mark.parametrize("seed", range(6))
def test_interpreter_branch_matches_reference(seed):
    rng = np.random.default_rng((11, seed))
    knots = random_knots(rng)
    blocks = 1 if seed == 0 else int(rng.integers(2, 12))
    n = len(knots)
    lines = random_series(rng, blocks, n).astype(np.complex64)
    sites = random_sites(rng, knots, blocks)
    m = sites.shape[1]
    src = f"""
float knots[{n}];
float sites[{blocks}][{m}];
complex lines[{blocks}][{n}];
complex interp[{blocks}][{m}];
dfsInterpolate1D({blocks}, {n}, &knots[0], &lines[0][0], {m},
                 &sites[0][0], &interp[0][0]);
"""
    run = run_original(src, inputs={"knots": knots, "sites": sites,
                                    "lines": lines})
    want = reference_interpolate_rows(knots, lines, sites)
    assert_same(run.buffers["interp"].reshape(blocks, m), want)

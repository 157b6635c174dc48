"""Functional correctness of every accelerator against the software
library, executed over the unified address space (the paper's key
property: accelerators compute on the same bytes the CPU sees)."""

import numpy as np
import pytest

from repro.accel import (AxpyAccelerator, AxpyParams, DTYPE_C64,
                         DotAccelerator, DotParams, FftAccelerator,
                         FftParams, GemvAccelerator, GemvParams,
                         ReshpAccelerator, ReshpParams, ResmpAccelerator,
                         ResmpParams, SpmvAccelerator, SpmvParams)
from repro.memmgmt import MealibDriver, UnifiedAddressSpace
from repro.mkl import interpolate_1d, random_geometric_graph

RNG = np.random.default_rng(42)


@pytest.fixture
def space():
    return UnifiedAddressSpace(MealibDriver(stack_bytes=256 << 20))


def test_axpy_functional(space):
    n = 4096
    xb, x = space.alloc_array((n,), np.float32)
    yb, y = space.alloc_array((n,), np.float32)
    x[:] = RNG.standard_normal(n)
    y[:] = RNG.standard_normal(n)
    ref = 2.5 * x + y
    AxpyAccelerator().run(space, AxpyParams(n=n, alpha=2.5, x_pa=xb.pa,
                                            y_pa=yb.pa))
    np.testing.assert_allclose(y, ref, rtol=1e-6)


def test_dot_functional_real(space):
    n = 2048
    xb, x = space.alloc_array((n,), np.float32)
    yb, y = space.alloc_array((n,), np.float32)
    ob, out = space.alloc_array((1,), np.float32)
    x[:] = RNG.standard_normal(n)
    y[:] = RNG.standard_normal(n)
    DotAccelerator().run(space, DotParams(n=n, x_pa=xb.pa, y_pa=yb.pa,
                                          out_pa=ob.pa))
    assert out[0] == pytest.approx(float(np.dot(x, y)), rel=1e-4)


def test_dot_functional_complex_strided(space):
    """The STAP shape: cdotc with a strided second operand."""
    n, stride = 64, 7
    xb, x = space.alloc_array((n,), np.complex64)
    yb, y = space.alloc_array((n * stride,), np.complex64)
    ob, out = space.alloc_array((1,), np.complex64)
    x[:] = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    y[:] = (RNG.standard_normal(n * stride)
            + 1j * RNG.standard_normal(n * stride))
    DotAccelerator().run(space, DotParams(
        n=n, x_pa=xb.pa, y_pa=yb.pa, out_pa=ob.pa, incy=stride,
        dtype=DTYPE_C64))
    assert complex(out[0]) == pytest.approx(
        complex(np.vdot(x, y[::stride])), rel=1e-3)


def test_gemv_functional(space):
    m, n = 64, 96
    ab, a = space.alloc_array((m, n), np.float32)
    xb, x = space.alloc_array((n,), np.float32)
    yb, y = space.alloc_array((m,), np.float32)
    a[:] = RNG.standard_normal((m, n))
    x[:] = RNG.standard_normal(n)
    y[:] = RNG.standard_normal(m)
    ref = 1.5 * (a @ x) + 0.5 * y
    GemvAccelerator().run(space, GemvParams(
        m=m, n=n, alpha=1.5, beta=0.5, a_pa=ab.pa, x_pa=xb.pa,
        y_pa=yb.pa))
    np.testing.assert_allclose(y, ref, rtol=1e-4)


def test_spmv_functional(space):
    g = random_geometric_graph(400, seed=8)
    ib, indptr = space.alloc_array((g.rows + 1,), np.int64)
    jb, indices = space.alloc_array((max(g.nnz, 1),), np.int64)
    db, data = space.alloc_array((max(g.nnz, 1),), np.float32)
    xb, x = space.alloc_array((g.shape[1],), np.float32)
    yb, y = space.alloc_array((g.rows,), np.float32)
    indptr[:] = g.indptr
    indices[: g.nnz] = g.indices
    data[: g.nnz] = g.data
    x[:] = RNG.standard_normal(g.shape[1])
    SpmvAccelerator().run(space, SpmvParams(
        rows=g.rows, cols=g.shape[1], nnz=g.nnz, indptr_pa=ib.pa,
        indices_pa=jb.pa, data_pa=db.pa, x_pa=xb.pa, y_pa=yb.pa))
    np.testing.assert_allclose(y, g.to_dense() @ x, rtol=1e-3, atol=1e-4)


def test_fft_functional(space):
    n, batch = 256, 8
    sb, src = space.alloc_array((batch, n), np.complex64)
    db_, dst = space.alloc_array((batch, n), np.complex64)
    src[:] = (RNG.standard_normal((batch, n))
              + 1j * RNG.standard_normal((batch, n)))
    FftAccelerator().run(space, FftParams(n=n, batch=batch, src_pa=sb.pa,
                                          dst_pa=db_.pa))
    np.testing.assert_allclose(dst, np.fft.fft(src, axis=-1), rtol=1e-3,
                               atol=1e-3)


def test_resmp_functional(space):
    blocks, n = 4, 128
    kb, knots = space.alloc_array((n,), np.float32)
    ib, series = space.alloc_array((blocks, n), np.complex64)
    stb, sites = space.alloc_array((blocks, n), np.float32)
    ob, out = space.alloc_array((blocks, n), np.complex64)
    knots[:] = np.arange(n, dtype=np.float32)
    series[:] = (RNG.standard_normal((blocks, n))
                 + 1j * RNG.standard_normal((blocks, n)))
    sites[:] = np.linspace(0, n - 1, n, dtype=np.float32) + 0.25
    ResmpAccelerator().run(space, ResmpParams(
        blocks=blocks, n_in=n, n_out=n, in_pa=ib.pa, sites_pa=stb.pa,
        out_pa=ob.pa, knots_pa=kb.pa))
    for b in range(blocks):
        ref = interpolate_1d(knots.astype(np.float64), series[b],
                             sites[b].astype(np.float64))
        assert out[b].dtype == ref.dtype
        assert out[b].tobytes() == ref.tobytes()


def test_reshp_functional_out_of_place(space):
    rows, cols = 48, 80
    sb, src = space.alloc_array((rows, cols), np.float32)
    db_, dst = space.alloc_array((cols, rows), np.float32)
    src[:] = RNG.standard_normal((rows, cols))
    ReshpAccelerator().run(space, ReshpParams(
        rows=rows, cols=cols, elem_bytes=4, src_pa=sb.pa, dst_pa=db_.pa))
    np.testing.assert_array_equal(dst, src.T)


def test_reshp_functional_in_place(space):
    n = 32
    sb, src = space.alloc_array((n, n), np.complex64)
    src[:] = (RNG.standard_normal((n, n))
              + 1j * RNG.standard_normal((n, n)))
    ref = src.T.copy()
    ReshpAccelerator().run(space, ReshpParams(
        rows=n, cols=n, elem_bytes=8, src_pa=sb.pa, dst_pa=sb.pa))
    np.testing.assert_array_equal(src, ref)


def test_reshp_in_place_must_be_square(space):
    sb, _ = space.alloc_array((4, 8), np.float32)
    with pytest.raises(ValueError):
        ReshpAccelerator().run(space, ReshpParams(
            rows=4, cols=8, elem_bytes=4, src_pa=sb.pa, dst_pa=sb.pa))


def test_reshp_bad_elem_size(space):
    sb, _ = space.alloc_array((4, 4), np.float32)
    with pytest.raises(ValueError):
        ReshpAccelerator().run(space, ReshpParams(
            rows=4, cols=4, elem_bytes=3, src_pa=sb.pa, dst_pa=sb.pa))


def test_cpu_sees_accelerator_results(space):
    """End-to-end shared memory: CPU writes via VA views, accelerator
    computes via PA, CPU reads the result via VA — no copies anywhere."""
    n = 1024
    xb, x_cpu = space.alloc_array((n,), np.float32)
    yb, y_cpu = space.alloc_array((n,), np.float32)
    x_cpu[:] = 1.0
    y_cpu[:] = 2.0
    AxpyAccelerator().run(space, AxpyParams(n=n, alpha=3.0, x_pa=xb.pa,
                                            y_pa=yb.pa))
    np.testing.assert_array_equal(y_cpu, np.full(n, 5.0, np.float32))

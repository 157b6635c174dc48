"""End-to-end: original vs translated execution must agree numerically.

This is the paper's central software claim — legacy code gains the
accelerators without reimplementation *and computes the same results*.
"""

import numpy as np
import pytest

from repro.apps import PRESETS, SarConfig
from repro.apps.sar import sar_source
from repro.apps.stap import stap_source
from repro.compiler import run_original, run_translated, translate
from repro.compiler.interp import baseline_timing
from repro.core import Loop, TdlProgram, format_tdl, parse_tdl
from repro.core.runtime import MealibRuntime
from tests.core.helpers import reference_encode

RNG = np.random.default_rng(5)


def crand(*shape):
    return (RNG.standard_normal(shape)
            + 1j * RNG.standard_normal(shape)).astype(np.complex64)


def both(src, inputs, check, rtol=1e-3, atol=1e-4):
    orig = run_original(src, inputs=inputs)
    trans = run_translated(src, inputs=inputs)
    for name in check:
        np.testing.assert_allclose(orig.buffers[name],
                                   trans.buffers[name], rtol=rtol,
                                   atol=atol, err_msg=name)
    return orig, trans


def test_saxpy():
    src = """
#define N 512
float *x;
float *y;
x = malloc(sizeof(float) * N);
y = malloc(sizeof(float) * N);
cblas_saxpy(N, 3.0, x, 1, y, 1);
"""
    inputs = {"x": RNG.standard_normal(512).astype(np.float32),
              "y": RNG.standard_normal(512).astype(np.float32)}
    orig, _ = both(src, inputs, ["y"])
    ref = 3.0 * inputs["x"] + inputs["y"]
    np.testing.assert_allclose(orig.buffers["y"], ref, rtol=1e-5)


def test_gemv():
    src = """
#define M 48
#define N 32
float a[M][N];
float x[N];
float y[M];
cblas_sgemv(CblasRowMajor, CblasNoTrans, M, N, 1.5, &a[0][0], N,
            &x[0], 1, 0.5, &y[0], 1);
"""
    inputs = {"a": RNG.standard_normal((48, 32)).astype(np.float32),
              "x": RNG.standard_normal(32).astype(np.float32),
              "y": RNG.standard_normal(48).astype(np.float32)}
    orig, _ = both(src, inputs, ["y"])
    ref = 1.5 * inputs["a"] @ inputs["x"] + 0.5 * inputs["y"]
    np.testing.assert_allclose(orig.buffers["y"], ref, rtol=1e-3)


def test_spmv():
    from repro.mkl import random_geometric_graph
    g = random_geometric_graph(128, seed=4)
    src = f"""
#define M 128
float vals[{max(g.nnz, 1)}];
long rowptr[129];
long colidx[{max(g.nnz, 1)}];
float x[M];
float y[M];
mkl_scsrgemv(M, &vals[0], &rowptr[0], &colidx[0], &x[0], &y[0]);
"""
    x = RNG.standard_normal(128).astype(np.float32)
    inputs = {"vals": g.data, "rowptr": g.indptr, "colidx": g.indices,
              "x": x}
    orig, _ = both(src, inputs, ["y"])
    np.testing.assert_allclose(orig.buffers["y"], g.to_dense() @ x,
                               rtol=1e-3, atol=1e-4)


def test_simatcopy():
    src = """
#define N 64
float a[N][N];
mkl_simatcopy(N, N, 1.0, &a[0][0]);
"""
    a = RNG.standard_normal((64, 64)).astype(np.float32)
    orig, _ = both(src, {"a": a}, ["a"])
    np.testing.assert_array_equal(orig.buffers["a"].reshape(64, 64), a.T)


def test_resmp_then_fft_chain():
    src = """
#define N 64
#define B 8
float knots[N];
float sites[B][N];
complex lines[B][N];
complex interp[B][N];
complex image[B][N];
fftwf_plan p;
fftw_iodim dims[1] = {{N, 1, 1}};
fftw_iodim hm[1] = {{B, N, N}};
dfsInterpolate1D(B, N, &knots[0], &lines[0][0], N, &sites[0][0],
                 &interp[0][0]);
p = fftwf_plan_guru_dft(1, dims, 1, hm, interp, image, FFTW_FORWARD,
                        FFTW_WISDOM_ONLY);
fftwf_execute(p);
"""
    knots = np.arange(64, dtype=np.float32)
    sites = np.clip(knots[None, :] + 0.3, 0, 63).repeat(8, 0)
    inputs = {"knots": knots, "sites": sites.astype(np.float32),
              "lines": crand(8, 64)}
    translated = translate(src)
    assert translated.descriptor_count() == 1
    both(src, inputs, ["interp", "image"], rtol=1e-2, atol=1e-2)


#: an OpenMP nest of strided cdotc calls (STAP's adaptive weighting)
CDOTC_NEST = """
#define A 3
#define B 4
#define T 8
#define C 6
complex w[A][B][T];
complex s[A][B][T][C];
complex out[A][B][C];
int i;
int j;
int k;
#pragma omp parallel for
for (i = 0; i < A; i++)
  for (j = 0; j < B; j++)
    for (k = 0; k < C; k++)
      cblas_cdotc_sub(T, &w[i][j][0], 1, &s[i][j][0][k], C,
                      &out[i][j][k]);
"""

#: a host (compute-bounded) call in a loop
HOST_LOOP = """
#define D 2
#define N 8
#define K 12
complex snap[D][N][K];
complex cov[D][N][N];
int d;
for (d = 0; d < D; d++) {
  cblas_cherk(N, K, 1.0, &snap[d][0][0], 0.0, &cov[d][0][0]);
}
"""


def test_strided_cdotc_nest():
    w, s = crand(3, 4, 8), crand(3, 4, 8, 6)
    orig, trans = both(CDOTC_NEST, {"w": w, "s": s}, ["out"], rtol=1e-2,
                       atol=1e-3)
    # independent reference
    ref = np.einsum("ijt,ijtk->ijk", np.conj(w), s)
    np.testing.assert_allclose(orig.buffers["out"].reshape(3, 4, 6), ref,
                               rtol=1e-3, atol=1e-3)


def test_host_calls_inside_loops():
    snap = crand(2, 8, 12)
    orig, trans = both(HOST_LOOP, {"snap": snap}, ["cov"], rtol=1e-2,
                       atol=1e-2)
    ref0 = snap[0] @ snap[0].conj().T
    got = orig.buffers["cov"].reshape(2, 8, 8)[0]
    il = np.tril_indices(8)
    np.testing.assert_allclose(got[il], ref0[il], rtol=1e-3, atol=1e-3)


def test_translated_faster_at_scale():
    """At a bandwidth-dominated size the accelerated run must win."""
    src = """
#define N 4194304
float *x;
float *y;
x = malloc(sizeof(float) * N);
y = malloc(sizeof(float) * N);
cblas_saxpy(N, 2.0, x, 1, y, 1);
"""
    base = baseline_timing(src)
    trans = run_translated(src, functional=False)
    assert trans.result.time < base.result.time


def test_timing_only_run_skips_buffers():
    src = """
#define N 1024
float *x;
float *y;
x = malloc(sizeof(float) * N);
y = malloc(sizeof(float) * N);
cblas_saxpy(N, 2.0, x, 1, y, 1);
"""
    out = run_translated(src, functional=False)
    assert out.buffers == {}
    assert out.result.time > 0


def test_library_call_count_reported():
    src = """
#define R 16
#define N 64
float x[R][N];
float y[R][N];
int i;
#pragma omp parallel for
for (i = 0; i < R; i++)
  cblas_saxpy(N, 1.0, &x[i][0], 1, &y[i][0], 1);
"""
    out = run_translated(src, functional=False)
    assert out.library_calls == 16
    assert out.descriptors == 1


@pytest.mark.parametrize("app", ["stap", "sar"])
def test_descriptors_lower_without_text(monkeypatch, app):
    """The interpreter hands ``acc_plan`` a program tree, and every
    descriptor it lowers is byte-equal to the one its TDL text form
    encodes to: STAP's looped passes and SAR's chained pass."""
    source = (stap_source(PRESETS["small"]) if app == "stap"
              else sar_source(SarConfig(side=64)))
    lowered = []
    acc_plan = MealibRuntime.acc_plan

    def spy(self, tdl, params, in_size, out_size):
        plan = acc_plan(self, tdl, params, in_size, out_size)
        lowered.append((tdl, params, plan.descriptor))
        return plan

    monkeypatch.setattr(MealibRuntime, "acc_plan", spy)
    run_translated(source, functional=False)
    assert lowered
    for program, params, descriptor in lowered:
        assert isinstance(program, TdlProgram)
        reparsed = parse_tdl(format_tdl(program))
        assert reparsed == program
        assert (reference_encode(reparsed, params, descriptor.base_pa)
                == descriptor)
    passes = [p for program, _, _ in lowered for b in program.blocks
              for p in (b.body if isinstance(b, Loop) else (b,))]
    loops = [b.count for program, _, _ in lowered for b in program.blocks
             if isinstance(b, Loop)]
    if app == "stap":
        assert 768 in loops
    else:
        assert any(p.chained for p in passes)

"""Property-based compiler consistency: randomized loop-nest programs
must compute identical results on the host library and on MEALib."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import run_original, run_translated, translate
from tests.compiler.helpers import (cdotc_nest_source,
                                    corner_turn_source,
                                    saxpy_nest_source)


@settings(max_examples=10, deadline=None)
@given(rows=st.integers(min_value=1, max_value=6),
       n=st.sampled_from([16, 32, 64]),
       alpha=st.floats(min_value=-3, max_value=3, allow_nan=False),
       seed=st.integers(min_value=0, max_value=1000))
def test_saxpy_nest_consistency(rows, n, alpha, seed):
    src = saxpy_nest_source(rows, n, alpha)
    rng = np.random.default_rng(seed)
    inputs = {"x": rng.standard_normal((rows, n)).astype(np.float32),
              "y": rng.standard_normal((rows, n)).astype(np.float32)}
    orig = run_original(src, inputs=inputs)
    trans = run_translated(src, inputs=inputs)
    np.testing.assert_allclose(orig.buffers["y"], trans.buffers["y"],
                               rtol=1e-5, atol=1e-6)
    ref = (np.float32(alpha) * inputs["x"] + inputs["y"]).reshape(-1)
    np.testing.assert_allclose(orig.buffers["y"], ref, rtol=1e-4,
                               atol=1e-5)


@settings(max_examples=8, deadline=None)
@given(a=st.integers(min_value=1, max_value=4),
       b=st.integers(min_value=1, max_value=4),
       t=st.sampled_from([4, 8, 16]),
       seed=st.integers(min_value=0, max_value=100))
def test_cdotc_nest_consistency(a, b, t, seed):
    src = cdotc_nest_source(a, b, t)
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((a, b, t))
         + 1j * rng.standard_normal((a, b, t))).astype(np.complex64)
    s = (rng.standard_normal((a, b, t))
         + 1j * rng.standard_normal((a, b, t))).astype(np.complex64)
    orig = run_original(src, inputs={"w": w, "s": s})
    trans = run_translated(src, inputs={"w": w, "s": s})
    np.testing.assert_allclose(orig.buffers["out"],
                               trans.buffers["out"], rtol=1e-3,
                               atol=1e-3)
    ref = np.einsum("abt,abt->ab", np.conj(w), s).reshape(-1)
    np.testing.assert_allclose(orig.buffers["out"], ref, rtol=1e-3,
                               atol=1e-3)


@settings(max_examples=8, deadline=None)
@given(rows=st.sampled_from([4, 8]), cols=st.sampled_from([4, 16, 32]),
       seed=st.integers(min_value=0, max_value=50))
def test_corner_turn_consistency(rows, cols, seed):
    src = corner_turn_source(rows, cols)
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))).astype(np.complex64)
    orig = run_original(src, inputs={"src_buf": data})
    trans = run_translated(src, inputs={"src_buf": data})
    ref = data.T.reshape(-1)
    np.testing.assert_allclose(orig.buffers["dst_buf"], ref)
    np.testing.assert_allclose(trans.buffers["dst_buf"], ref)


def test_descriptor_count_is_deterministic():
    src = """
#define N 64
float x[N];
float y[N];
cblas_saxpy(N, 1.0, &x[0], 1, &y[0], 1);
"""
    counts = {translate(src).descriptor_count() for _ in range(3)}
    assert counts == {1}

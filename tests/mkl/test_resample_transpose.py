"""Resampling (spline) and transpose routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mkl import (ResampleError, fit_cubic_spline, interpolate_1d,
                       interpolate_rows, resample_flops, simatcopy,
                       somatcopy, thomas_solve)


class TestThomas:
    def test_solves_reference_system(self):
        rng = np.random.default_rng(0)
        n = 50
        lower = rng.random(n)
        upper = rng.random(n)
        diag = 4.0 + rng.random(n)          # diagonally dominant
        rhs = rng.random(n)
        x = thomas_solve(lower, diag, upper, rhs)
        full = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(
            lower[1:], -1)
        np.testing.assert_allclose(full @ x, rhs, rtol=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(ResampleError):
            thomas_solve(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2))

    def test_length_mismatch(self):
        with pytest.raises(ResampleError):
            thomas_solve(np.zeros(2), np.ones(3), np.zeros(3), np.ones(3))

    def test_empty_bands(self):
        with pytest.raises(ResampleError):
            thomas_solve(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))


class TestSpline:
    def test_interpolates_knots_exactly(self):
        x = np.linspace(0, 10, 20)
        y = np.sin(x)
        spline = fit_cubic_spline(x, y)
        np.testing.assert_allclose(spline.evaluate(x), y, atol=1e-10)

    def test_close_to_scipy(self):
        scipy_interp = pytest.importorskip("scipy.interpolate")
        x = np.linspace(0, 4 * np.pi, 64)
        y = np.sin(x)
        sites = np.linspace(0.2, 4 * np.pi - 0.2, 200)
        ours = interpolate_1d(x, y, sites)
        ref = scipy_interp.CubicSpline(x, y, bc_type="natural")(sites)
        np.testing.assert_allclose(ours, ref, atol=1e-8)

    def test_smooth_function_accuracy(self):
        x = np.linspace(0, 1, 100)
        y = x ** 2
        sites = np.linspace(0.05, 0.95, 500)
        got = interpolate_1d(x, y, sites)
        np.testing.assert_allclose(got, sites ** 2, atol=1e-4)

    def test_linear_mode(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 2.0, 4.0])
        got = interpolate_1d(x, y, np.array([0.5, 1.5]), method="linear")
        np.testing.assert_allclose(got, [1.0, 3.0])

    def test_complex_input(self):
        x = np.linspace(0, 1, 32)
        y = (np.cos(6 * x) + 1j * np.sin(6 * x)).astype(np.complex64)
        sites = np.linspace(0.1, 0.9, 64)
        got = interpolate_1d(x, y, sites)
        assert got.dtype == np.complex64
        np.testing.assert_allclose(got, np.cos(6 * sites)
                                   + 1j * np.sin(6 * sites), atol=1e-2)

    def test_sites_clamped_to_range(self):
        x = np.linspace(0, 1, 10)
        y = x.copy()
        got = interpolate_1d(x, y, np.array([-1.0, 2.0]))
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-12)

    def test_too_few_knots(self):
        with pytest.raises(ResampleError):
            fit_cubic_spline(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_non_increasing_knots(self):
        with pytest.raises(ResampleError):
            fit_cubic_spline(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knots(self, bad):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        x[2] = bad
        with pytest.raises(ResampleError):
            fit_cubic_spline(x, np.zeros(4))
        with pytest.raises(ResampleError):
            interpolate_1d(x, np.zeros(4), np.array([0.5]))

    def test_linear_mode_validates_knots(self):
        with pytest.raises(ResampleError):
            interpolate_1d(np.array([2.0, 1.0, 0.0]), np.arange(3.0),
                           np.array([0.5]), method="linear")
        with pytest.raises(ResampleError):
            interpolate_1d(np.array([0.0, np.nan, 2.0]), np.arange(3.0),
                           np.array([0.5]), method="linear")
        with pytest.raises(ResampleError):
            interpolate_1d(np.arange(3.0), np.arange(4.0),
                           np.array([0.5]), method="linear")

    def test_rows_shape_mismatch(self):
        with pytest.raises(ResampleError):
            interpolate_rows(np.arange(4.0), np.zeros((2, 4)),
                             np.zeros((3, 5)))
        with pytest.raises(ResampleError):
            interpolate_rows(np.arange(4.0), np.zeros(4), np.zeros((1, 5)))

    def test_unknown_method(self):
        with pytest.raises(ResampleError):
            interpolate_1d(np.arange(4.0), np.arange(4.0),
                           np.array([1.0]), method="quintic")

    def test_flops_positive(self):
        assert resample_flops(100, 200) > 0
        assert resample_flops(0, 10, "linear") == 40.0

    @settings(max_examples=20)
    @given(st.integers(min_value=3, max_value=60))
    def test_spline_reproduces_lines_exactly(self, n):
        x = np.linspace(0, 1, n)
        y = 3 * x + 1
        sites = np.linspace(0, 1, 2 * n)
        np.testing.assert_allclose(interpolate_1d(x, y, sites),
                                   3 * sites + 1, atol=1e-9)


class TestTranspose:
    def test_out_of_place(self):
        rng = np.random.default_rng(1)
        rows, cols = 100, 70
        a = rng.random(rows * cols).astype(np.float32)
        b = np.zeros(rows * cols, dtype=np.float32)
        somatcopy(rows, cols, 1.0, a, b)
        np.testing.assert_array_equal(b.reshape(cols, rows),
                                      a.reshape(rows, cols).T)

    def test_out_of_place_alpha(self):
        a = np.arange(6, dtype=np.float32)
        b = np.zeros(6, dtype=np.float32)
        somatcopy(2, 3, 2.0, a, b)
        np.testing.assert_array_equal(b.reshape(3, 2),
                                      2 * a.reshape(2, 3).T)

    def test_in_place_square(self):
        rng = np.random.default_rng(2)
        n = 130                      # crosses tile boundaries
        a = rng.random(n * n).astype(np.float32)
        ref = a.reshape(n, n).T.copy()
        simatcopy(n, n, 1.0, a)
        np.testing.assert_array_equal(a.reshape(n, n), ref)

    def test_in_place_rectangular(self):
        rng = np.random.default_rng(3)
        rows, cols = 20, 50
        a = rng.random(rows * cols).astype(np.float32)
        ref = a.reshape(rows, cols).T.reshape(-1).copy()
        simatcopy(rows, cols, 1.0, a)
        np.testing.assert_array_equal(a, ref)

    def test_involution(self):
        rng = np.random.default_rng(4)
        n = 64
        a = rng.random(n * n).astype(np.float32)
        orig = a.copy()
        simatcopy(n, n, 1.0, a)
        simatcopy(n, n, 1.0, a)
        np.testing.assert_array_equal(a, orig)

"""1-D data resampling (the MKL data-fitting ``dfsInterpolate1D`` stand-in).

Constructs a natural cubic spline over the input samples (tridiagonal
system solved with the Thomas algorithm, implemented here) and evaluates
it at the requested sites. A linear mode is provided as the cheap
alternative MKL also offers. This is the RESMP operation the SAR range
interpolation chain uses.

Every series in one :func:`interpolate_rows` call shares its knot
vector, and the spline's tridiagonal bands depend on the knots alone.
So the bands, the Thomas denominators and the ``cp`` factors are
computed once per call, and the forward and back substitutions sweep
the knots once with one vector operation per step across all rows.
Each row's elements still go through the same IEEE operations in the
same order as a one-row solve, so a batch is bit-identical to solving
its rows one at a time. :func:`interpolate_1d`, :func:`fit_cubic_spline`
and :func:`thomas_solve` are the one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class ResampleError(Exception):
    """Raised on malformed interpolation inputs."""


def _factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
            ) -> Tuple[List[float], List[float]]:
    """Thomas denominators and ``cp`` factors of a tridiagonal system.

    They depend on the bands alone, so one factorization serves every
    right-hand side. Python floats carry the same IEEE doubles as numpy
    float64 scalars.
    """
    low, dia, up = lower.tolist(), diag.tolist(), upper.tolist()
    if dia[0] == 0:
        raise ResampleError("singular tridiagonal system")
    denom = [dia[0]]
    cp = [up[0] / dia[0]]
    for i in range(1, len(dia)):
        d = dia[i] - low[i] * cp[i - 1]
        if d == 0:
            raise ResampleError("singular tridiagonal system")
        denom.append(d)
        cp.append(up[i] / d)
    return denom, cp


def _sweep(lower: np.ndarray, denom: List[float], cp: List[float],
           work: np.ndarray) -> None:
    """Forward and back substitution over ``work`` (knots x rows), in
    place: each knot step is one vector operation across every row."""
    low = lower.tolist()
    work[0] /= denom[0]
    for i in range(1, len(denom)):
        work[i] -= low[i] * work[i - 1]
        work[i] /= denom[i]
    for i in range(len(denom) - 2, -1, -1):
        work[i] -= cp[i] * work[i + 1]


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in O(n) (Thomas algorithm), in float64.

    ``lower[i]`` multiplies x[i-1] in row i (lower[0] unused); ``upper[i]``
    multiplies x[i+1] (upper[-1] unused).
    """
    n = len(diag)
    if not (len(lower) == len(upper) == len(rhs) == n):
        raise ResampleError("tridiagonal bands must have equal length")
    if n == 0:
        raise ResampleError("tridiagonal system is empty")
    lower = np.asarray(lower, dtype=np.float64)
    denom, cp = _factor(lower, np.asarray(diag, dtype=np.float64),
                        np.asarray(upper, dtype=np.float64))
    work = np.array(rhs, dtype=np.float64).reshape(n, 1)
    _sweep(lower, denom, cp, work)
    return work[:, 0]


def _check_knots(x, n_min: int) -> Tuple[np.ndarray, np.ndarray]:
    """Validated float64 knots and their spacings."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ResampleError("knots must be one-dimensional")
    if len(x) < n_min:
        raise ResampleError(f"need at least {n_min} knots")
    if not np.all(np.isfinite(x)):
        raise ResampleError("knots must be finite")
    h = np.diff(x)
    if not np.all(h > 0):
        raise ResampleError("knots must be strictly increasing")
    return x, h


def _second_derivs(h: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Natural-spline second derivatives of every row of ``ys`` (rows x
    knots, float64) over knot spacings ``h``."""
    lower = h[:-1]
    denom, cp = _factor(lower, 2.0 * (h[:-1] + h[1:]), h[1:])
    slope = np.diff(ys, axis=1) / h
    rhs = 6.0 * (slope[:, 1:] - slope[:, :-1])
    work = np.ascontiguousarray(rhs.T)
    _sweep(lower, denom, cp, work)
    second = np.zeros(ys.shape)
    second[:, 1:-1] = work.T
    return second


def _evaluate(x: np.ndarray, ys: np.ndarray, second: np.ndarray,
              sites: np.ndarray) -> np.ndarray:
    """Evaluate the splines of row ``r`` of every plane of ``ys`` and
    ``second`` (planes x rows x knots) at row ``r`` of ``sites`` (rows x
    sites), clamped to the knot range. The site search and the weights
    depend on the sites alone, so the planes share them."""
    xs = np.clip(sites, x[0], x[-1])
    idx = np.clip(np.searchsorted(x, xs) - 1, 0, len(x) - 2)
    nxt = idx + 1
    x0, x1 = x[idx], x[nxt]
    h = x1 - x0
    a = (x1 - xs) / h
    b = (xs - x0) / h
    planes, rows, n = ys.shape
    at = idx + n * np.arange(rows)[:, np.newaxis]
    ys = ys.reshape(planes, rows * n)
    second = second.reshape(planes, rows * n)
    return (a * ys[:, at] + b * ys[:, at + 1]
            + ((a ** 3 - a) * second[:, at]
               + (b ** 3 - b) * second[:, at + 1])
            * h * h / 6.0)


@dataclass(frozen=True)
class CubicSpline1D:
    """A natural cubic spline fit over sorted knots."""

    x: np.ndarray
    y: np.ndarray
    second_derivs: np.ndarray

    def evaluate(self, sites: np.ndarray) -> np.ndarray:
        """Evaluate the spline at ``sites`` (clamped to the knot range)."""
        sites = np.asarray(sites, dtype=np.float64)
        one = (1, 1, len(self.x))
        return _evaluate(self.x, self.y.reshape(one),
                         self.second_derivs.reshape(one),
                         sites.reshape(1, -1))[0, 0].reshape(sites.shape)


def fit_cubic_spline(x: np.ndarray, y: np.ndarray) -> CubicSpline1D:
    """Fit a natural cubic spline (zero curvature at the ends)."""
    x, h = _check_knots(x, 3)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != x.shape:
        raise ResampleError("x and y length mismatch")
    second = _second_derivs(h, y[np.newaxis])[0]
    return CubicSpline1D(x=x, y=y, second_derivs=second)


def _interpolate(x, ys: np.ndarray, sites: np.ndarray,
                 method: str) -> np.ndarray:
    """Resample ``ys`` (planes x rows x knots) at ``sites`` (rows x
    sites) into float64 planes x rows x sites."""
    x, h = _check_knots(x, 3 if method == "cubic" else 2)
    if ys.shape[-1] != len(x):
        raise ResampleError("x and y length mismatch")
    if method == "linear":
        out = np.empty((len(ys),) + sites.shape)
        for p in range(len(ys)):
            for r in range(len(sites)):
                out[p, r] = np.interp(sites[r], x, ys[p, r])
        return out
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    second = _second_derivs(h, ys.reshape(-1, len(x)))
    return _evaluate(x, ys, second.reshape(ys.shape), sites)


def interpolate_rows(x: np.ndarray, y: np.ndarray, sites: np.ndarray,
                     method: str = "cubic") -> np.ndarray:
    """Batched dfsInterpolate1D: resample every row of ``y`` (rows x
    knots), all over the shared knots ``x``, at the matching row of
    ``sites`` (rows x sites).

    Complex inputs (the SAR case) are resampled on real and imaginary
    parts independently, which is what MKL's data-fitting does when the
    application splits components; both parts go through one sweep.
    """
    if method not in ("cubic", "linear"):
        raise ResampleError(f"unknown method {method!r}")
    y = np.asarray(y)
    sites = np.asarray(sites, dtype=np.float64)
    if y.ndim != 2 or sites.ndim != 2 or len(sites) != len(y):
        raise ResampleError(
            "y and sites must be 2-D with one row per series")
    if np.iscomplexobj(y):
        real, imag = _interpolate(x, np.stack((y.real, y.imag)), sites,
                                  method)
        return (real + 1j * imag).astype(y.dtype)
    return _interpolate(x, y[np.newaxis], sites, method)[0]


def interpolate_1d(x: np.ndarray, y: np.ndarray, sites: np.ndarray,
                   method: str = "cubic") -> np.ndarray:
    """dfsInterpolate1D: resample ``(x, y)`` at ``sites``.

    The one-row case of :func:`interpolate_rows`.
    """
    y = np.asarray(y)
    sites = np.asarray(sites, dtype=np.float64)
    if y.ndim != 1:
        raise ResampleError("y must be one-dimensional")
    return interpolate_rows(x, y[np.newaxis], sites.reshape(1, -1),
                            method)[0].reshape(sites.shape)


def resample_flops(n_in: int, n_out: int, method: str = "cubic") -> float:
    """Approximate flop count: spline fit is ~20 flops/knot (tridiagonal
    setup+solve), evaluation ~12 flops/site; linear is ~4 flops/site."""
    if method == "linear":
        return 4.0 * n_out
    return 20.0 * n_in + 12.0 * n_out

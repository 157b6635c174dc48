"""The per-block cubic-spline resampler, kept as the differential
reference for :func:`repro.mkl.resample.interpolate_rows`.

This is the straightforward path: one spline fit per series and per
real/imaginary part, with the band setup and both Thomas sweeps as
scalar loops over the knots. The library factors the shared bands once
per call and sweeps every row at once; both must produce the same
bytes.
"""

import numpy as np

from repro.mkl import ResampleError


def reference_thomas_solve(lower, diag, upper, rhs):
    """Thomas algorithm, one scalar step per knot."""
    n = len(diag)
    cp = np.empty(n, dtype=np.float64)
    dp = np.empty(n, dtype=np.float64)
    if diag[0] == 0:
        raise ResampleError("singular tridiagonal system")
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        if denom == 0:
            raise ResampleError("singular tridiagonal system")
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty(n, dtype=np.float64)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def reference_fit(x, y):
    """Natural-spline second derivatives of one real series."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    h = np.diff(x)
    lower = np.zeros(n - 2)
    diag = np.zeros(n - 2)
    upper = np.zeros(n - 2)
    rhs = np.zeros(n - 2)
    for i in range(1, n - 1):
        lower[i - 1] = h[i - 1]
        diag[i - 1] = 2.0 * (h[i - 1] + h[i])
        upper[i - 1] = h[i]
        rhs[i - 1] = 6.0 * ((y[i + 1] - y[i]) / h[i]
                            - (y[i] - y[i - 1]) / h[i - 1])
    second = np.zeros(n)
    second[1:-1] = reference_thomas_solve(lower, diag, upper, rhs)
    return x, y, second


def reference_evaluate(x, y, second, sites):
    """Evaluate one fitted spline at ``sites`` (clamped to the knots)."""
    xs = np.clip(sites, x[0], x[-1])
    idx = np.clip(np.searchsorted(x, xs) - 1, 0, len(x) - 2)
    x0, x1 = x[idx], x[idx + 1]
    h = x1 - x0
    a = (x1 - xs) / h
    b = (xs - x0) / h
    return (a * y[idx] + b * y[idx + 1]
            + ((a ** 3 - a) * second[idx]
               + (b ** 3 - b) * second[idx + 1])
            * h * h / 6.0)


def reference_interpolate_1d(x, y, sites):
    """Cubic resample of one series, complex parts fitted separately."""
    y = np.asarray(y)
    if np.iscomplexobj(y):
        real = reference_interpolate_1d(x, y.real, sites)
        imag = reference_interpolate_1d(x, y.imag, sites)
        return (real + 1j * imag).astype(y.dtype)
    return reference_evaluate(*reference_fit(x, y), np.asarray(sites))


def reference_interpolate_rows(x, y, sites):
    """The per-block loop: one :func:`reference_interpolate_1d` per row
    of ``y`` and ``sites``, into an output of the rows' result dtype."""
    x = np.asarray(x, dtype=np.float64)
    dtype = y.dtype if np.iscomplexobj(y) else np.float64
    out = np.empty((len(y), sites.shape[1]), dtype=dtype)
    for b in range(len(y)):
        out[b] = reference_interpolate_1d(x, y[b],
                                          sites[b].astype(np.float64))
    return out

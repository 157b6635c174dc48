"""Dense BLAS routines (the MKL stand-in), implemented from scratch.

Semantics follow CBLAS: flat arrays with explicit increments for Level-1,
row-major matrices with leading dimensions for Level-2/3. numpy is used
as the *elementwise* compute substrate (the way MKL uses SIMD units), but
algorithmic structure — striding, blocking, triangular solves, rank-k
updates — is implemented here and verified against numpy reference
results in the tests.
"""

from __future__ import annotations

import numpy as np

#: Tile edge used by the blocked Level-3 routines.
BLOCK = 64


def _strided(x: np.ndarray, n: int, inc: int) -> np.ndarray:
    """The CBLAS view: ``n`` elements of ``x`` at increment ``inc``."""
    if n < 0:
        raise ValueError("negative element count")
    if inc == 0:
        raise ValueError("zero increment")
    if inc > 0:
        view = x[: 1 + (n - 1) * inc: inc] if n else x[:0]
    else:
        start = (n - 1) * (-inc)
        view = x[start::inc] if n else x[:0]
    if view.shape[0] != n:
        raise ValueError(
            f"array too small for n={n}, inc={inc} (got {view.shape[0]})")
    return view


def saxpy(n: int, alpha: float, x: np.ndarray, incx: int,
          y: np.ndarray, incy: int) -> None:
    """y := alpha * x + y  (cblas_saxpy)."""
    xv = _strided(x, n, incx)
    yv = _strided(y, n, incy)
    yv += np.float32(alpha) * xv


def scopy(n: int, x: np.ndarray, incx: int, y: np.ndarray,
          incy: int) -> None:
    """y := x  (cblas_scopy)."""
    yv = _strided(y, n, incy)
    yv[:] = _strided(x, n, incx)


def sdot(n: int, x: np.ndarray, incx: int, y: np.ndarray,
         incy: int) -> float:
    """return x . y  (cblas_sdot)."""
    xv = _strided(x, n, incx)
    yv = _strided(y, n, incy)
    return float(np.dot(xv, yv))


def cdotc(n: int, x: np.ndarray, incx: int, y: np.ndarray,
          incy: int) -> complex:
    """return conj(x) . y  (cblas_cdotc_sub)."""
    xv = _strided(x, n, incx)
    yv = _strided(y, n, incy)
    return complex(np.dot(np.conj(xv), yv))


def sgemv(trans: bool, m: int, n: int, alpha: float, a: np.ndarray,
          lda: int, x: np.ndarray, incx: int, beta: float,
          y: np.ndarray, incy: int) -> None:
    """y := alpha * op(A) x + beta * y with A row-major m x n
    (cblas_sgemv, CblasRowMajor)."""
    if lda < n:
        raise ValueError("lda must be >= n for a row-major matrix")
    mat = a[: m * lda].reshape(m, lda)[:, :n]
    if trans:
        xv = _strided(x, m, incx)
        yv = _strided(y, n, incy)
        prod = mat.T @ xv
    else:
        xv = _strided(x, n, incx)
        yv = _strided(y, m, incy)
        prod = mat @ xv
    yv *= np.float32(beta) if yv.dtype == np.float32 else beta
    yv += np.asarray(alpha * prod, dtype=yv.dtype)


def cherk(upper: bool, n: int, k: int, alpha: float, a: np.ndarray,
          beta: float, c: np.ndarray) -> None:
    """C := alpha * A A^H + beta * C on the stored triangle (cblas_cherk).

    ``a`` is row-major ``n x k`` complex, ``c`` row-major ``n x n``
    complex. The update is computed tile-by-tile (the way a blocked BLAS
    implements it) and only the selected triangle of C is written — the
    other triangle is left untouched, as BLAS mandates.
    """
    amat = a.reshape(n, k)
    cmat = c.reshape(n, n)
    for i0 in range(0, n, BLOCK):
        i1 = min(i0 + BLOCK, n)
        for j0 in range(0, n, BLOCK):
            j1 = min(j0 + BLOCK, n)
            if upper and j1 <= i0:
                continue
            if not upper and j0 >= i1:
                continue
            tile = alpha * (amat[i0:i1] @ amat[j0:j1].conj().T)
            tile += beta * cmat[i0:i1, j0:j1]
            # mask to the triangle within diagonal tiles
            rows = np.arange(i0, i1)[:, None]
            cols = np.arange(j0, j1)[None, :]
            keep = cols >= rows if upper else cols <= rows
            block = cmat[i0:i1, j0:j1]
            block[keep] = tile[keep]


def ctrsm_left_lower(n: int, m: int, alpha: complex, a: np.ndarray,
                     b: np.ndarray, unit_diag: bool = False) -> None:
    """Solve L X = alpha B for X, overwriting B (cblas_ctrsm, Left/Lower/
    NoTrans). ``a`` is row-major n x n (lower triangle used), ``b`` is
    row-major n x m. Blocked forward substitution."""
    lmat = a.reshape(n, n)
    bmat = b.reshape(n, m)
    if alpha != 1.0:
        bmat *= alpha
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        # solve the diagonal block by scalar forward substitution rows
        for i in range(j0, j1):
            if i > j0:
                bmat[i] -= lmat[i, j0:i] @ bmat[j0:i]
            if not unit_diag:
                bmat[i] /= lmat[i, i]
        # eliminate from the trailing rows
        if j1 < n:
            bmat[j1:] -= lmat[j1:, j0:j1] @ bmat[j0:j1]


def ctrsm_left_upper(n: int, m: int, alpha: complex, a: np.ndarray,
                     b: np.ndarray, unit_diag: bool = False) -> None:
    """Solve U X = alpha B for X, overwriting B (Left/Upper/NoTrans).
    Blocked backward substitution."""
    umat = a.reshape(n, n)
    bmat = b.reshape(n, m)
    if alpha != 1.0:
        bmat *= alpha
    j0_list = list(range(0, n, BLOCK))
    for j0 in reversed(j0_list):
        j1 = min(j0 + BLOCK, n)
        for i in range(j1 - 1, j0 - 1, -1):
            if i < j1 - 1:
                bmat[i] -= umat[i, i + 1:j1] @ bmat[i + 1:j1]
            if not unit_diag:
                bmat[i] /= umat[i, i]
        if j0 > 0:
            bmat[:j0] -= umat[:j0, j0:j1] @ bmat[j0:j1]


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``rows[i] @ conj(v)`` for every row, each on its own dot kernel.

    A stack of 1 x k @ k x 1 matmuls runs numpy's vector-dot inner loop
    once per row, as ``rows[i] @ conj(v)`` would, so every element comes
    out bit-identical to that per-row loop. The 2-D ``rows @ conj(v)``
    (a gemv) sums in a different order and does not.
    """
    return np.matmul(rows[:, None, :], np.conj(v)[:, None])[:, 0, 0]


def cpotrf_lower(n: int, a: np.ndarray) -> None:
    """Cholesky factorisation A = L L^H, lower triangle in place.

    STAP's covariance solve needs a factorisation feeding the two ctrsm
    calls; MKL's LAPACK provides it, so our stand-in does too. Blocked
    right-looking algorithm; within a block, each column is one sweep
    over every row below the diagonal (:func:`_dots`).
    """
    amat = a.reshape(n, n)
    for k0 in range(0, n, BLOCK):
        k1 = min(k0 + BLOCK, n)
        # factor the diagonal block (unblocked), one column at a time
        for j in range(k0, k1):
            amat[j, j] = np.sqrt(
                (amat[j, j] - np.vdot(amat[j, k0:j], amat[j, k0:j])).real)
            col = amat[j + 1:k1, j]
            col[:] = (col - _dots(amat[j + 1:k1, k0:j], amat[j, k0:j])
                      ) / amat[j, j]
        if k1 < n:
            # panel solve: rows below, columns of this block
            panel = amat[k1:, k0:k1]
            diag = amat[k0:k1, k0:k1]
            # panel := panel * inv(L_diag^H): solve X L^H = panel, one
            # column of X at a time (L^H[:j, j] is conj(diag[j, :j]))
            for j in range(k1 - k0):
                col = panel[:, j]
                col[:] = (col - _dots(panel[:, :j], diag[j, :j])
                          ) / np.conj(diag[j, j])
            # trailing update
            amat[k1:, k1:] -= panel @ np.conj(panel.T)
    # zero the strict upper triangle for a clean L
    iu = np.triu_indices(n, 1)
    amat[iu] = 0

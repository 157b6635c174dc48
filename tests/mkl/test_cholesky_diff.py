"""Differential battery: the column-sweep Cholesky against the
per-element reference in ``tests/mkl/helpers.py``, byte for byte.

:func:`repro.mkl.cpotrf_lower` computes a whole column of the diagonal
block, and of the panel solve, as one stack of 1 x k @ k x 1 matmuls;
the reference takes one 1-D ``@`` per element. Both must run the same
dot kernel on the same operands, so factors are compared with
``tobytes()``, never a tolerance. Seeded Hermitian positive-definite
complex64 trials cover sizes 1 and 2, STAP's 16, both sides of the
block edge (``BLOCK - 1``, ``BLOCK``, ``BLOCK + 1``), two panels
(``2 * BLOCK + 3``) and random sizes in between, with condition numbers
from about 1 to 1e5 and magnitudes from 1e-3 to 1e3.
"""

import numpy as np
import pytest

from repro.mkl import blas, cpotrf_lower
from repro.mkl.blas import BLOCK
from tests.mkl.helpers import reference_cpotrf_lower

SIZES = (1, 2, 16, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, None)
TRIALS = 304
BLOCKS = 8


def random_hpd(rng, n):
    """A Hermitian positive-definite complex64 matrix, flattened."""
    k = int(rng.integers(1, 2 * n + 1))
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    shift = 10 ** rng.uniform(-2.0, 2.0) * k
    a = x @ x.conj().T + shift * np.eye(n)
    a *= 10 ** rng.uniform(-3.0, 3.0) / np.abs(a).max()
    a = a.astype(np.complex64)
    # exactly Hermitian after the cast
    return np.tril(a) + np.tril(a, -1).conj().T


def trial(t):
    rng = np.random.default_rng((2015, t))
    n = SIZES[t % len(SIZES)]
    if n is None:
        n = int(rng.integers(1, 2 * BLOCK + 4))
    return n, random_hpd(rng, n).reshape(-1)


def factor_both(t):
    n, a = trial(t)
    got, want = a.copy(), a.copy()
    cpotrf_lower(n, got)
    reference_cpotrf_lower(n, want)
    return got, want


@pytest.mark.parametrize("block", range(BLOCKS))
def test_column_sweep_is_bit_identical(block):
    for t in range(block, TRIALS, BLOCKS):
        got, want = factor_both(t)
        assert got.dtype == want.dtype == np.complex64
        assert got.tobytes() == want.tobytes(), f"trial {t}"


def test_factor_is_a_cholesky_factor():
    for t in range(len(SIZES)):
        n, a = trial(t)
        lmat = a.copy()
        cpotrf_lower(n, lmat)
        lmat = lmat.reshape(n, n)
        assert not np.triu(lmat, 1).any()
        full = a.reshape(n, n).astype(np.complex128)
        np.testing.assert_allclose(lmat @ lmat.conj().T, full,
                                   rtol=1e-3, atol=1e-3 * np.abs(full).max())


def test_battery_catches_a_gemv_sweep(monkeypatch):
    """The battery is sensitive enough to see a reordered sum: the 2-D
    ``rows @ conj(v)`` form (a gemv) must fail it."""
    monkeypatch.setattr(blas, "_dots",
                        lambda rows, v: rows @ np.conj(v))
    differs = 0
    for t in range(0, TRIALS, 4):
        got, want = factor_both(t)
        differs += got.tobytes() != want.tobytes()
    assert differs > 0

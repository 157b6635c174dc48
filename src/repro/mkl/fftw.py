"""FFTW-style planner API with a from-scratch FFT kernel.

Implements the subset of FFTW's guru interface that the paper's STAP code
uses (Listing 1):

* ``plan_guru_dft(rank=0, ...)`` — no transform dimensions: a pure strided
  copy / data-layout change (the paper maps this to the RESHP engine);
* ``plan_guru_dft(rank=1, ...)`` — batched strided 1-D complex DFTs (the
  paper maps this to the FFT accelerator).

The transform itself is an iterative radix-2 Cooley–Tukey with explicit
bit-reversal, vectorised over the batch dimension, verified against
``numpy.fft`` in the tests. Power-of-two lengths only (as hardware FFT
pipelines require; the paper's workloads are all powers of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

FFTW_FORWARD = -1
FFTW_BACKWARD = +1


class FftwError(Exception):
    """Raised on unsupported plans or malformed dimension descriptors."""


@dataclass(frozen=True)
class IoDim:
    """One guru dimension: count plus input/output strides in elements."""

    n: int
    istride: int
    ostride: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise FftwError("dimension count must be positive")


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation that bit-reverses ``log2(n)``-bit indices."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def fft_radix2(batch: np.ndarray, sign: int = FFTW_FORWARD) -> np.ndarray:
    """Radix-2 DIT FFT along the last axis of a (batch, n) complex array.

    Args:
        batch: complex array whose last axis has power-of-two length.
        sign: ``FFTW_FORWARD`` (-1) or ``FFTW_BACKWARD`` (+1, unscaled,
            matching FFTW's convention).

    Returns:
        A new array of the same shape with transformed rows.
    """
    n = batch.shape[-1]
    if n & (n - 1):
        raise FftwError(f"FFT length must be a power of two, got {n}")
    if n == 1:
        return batch.copy()
    work = batch[..., _bit_reverse_permutation(n)].astype(
        np.complex64 if batch.dtype == np.complex64 else np.complex128)
    lead = work.shape[:-1]
    span = 1
    while span < n:
        step = span * 2
        angles = sign * math.pi / span * np.arange(span)
        tw = np.exp(1j * angles).astype(work.dtype)
        view = work.reshape(*lead, n // step, 2, span)
        twisted = view[..., 1, :] * tw            # copy of the odd half
        even = view[..., 0, :]
        view[..., 1, :] = even - twisted
        view[..., 0, :] = even + twisted
        span = step
    return work


def fft_bluestein(batch: np.ndarray,
                  sign: int = FFTW_FORWARD) -> np.ndarray:
    """Arbitrary-length DFT via Bluestein's chirp-z algorithm.

    Re-expresses a length-``n`` DFT as a convolution, evaluated with
    three power-of-two FFTs of length >= 2n-1. Extends the library (and
    would extend a hardware FFT pipeline) beyond power-of-two sizes —
    an avenue the paper leaves as future flexibility.
    """
    n = batch.shape[-1]
    if n & (n - 1) == 0:
        return fft_radix2(batch, sign)
    m = 1 << (2 * n - 1).bit_length()
    k = np.arange(n)
    chirp = np.exp(sign * 1j * math.pi * (k * k % (2 * n)) / n)
    a = np.zeros(batch.shape[:-1] + (m,), dtype=np.complex128)
    a[..., :n] = batch * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1:] = np.conj(chirp[1:][::-1])
    fa = fft_radix2(a)
    fb = fft_radix2(b[None])[0]
    conv = fft_radix2(fa * fb, FFTW_BACKWARD) / m
    out = conv[..., :n] * chirp
    return out.astype(batch.dtype if np.iscomplexobj(batch)
                      else np.complex128)


def fft_flops(n: int, batch: int = 1) -> float:
    """Standard 5 n log2 n flop count for a complex FFT."""
    return 5.0 * n * math.log2(n) * batch if n > 1 else 0.0


@dataclass
class Plan:
    """An FFTW plan: fixed transform shape bound to fixed buffers."""

    rank: int
    dims: Tuple[IoDim, ...]
    howmany_dims: Tuple[IoDim, ...]
    src: np.ndarray
    dst: np.ndarray
    sign: int

    @property
    def is_copy(self) -> bool:
        """rank-0 plans move data without transforming it."""
        return self.rank == 0

    @property
    def fft_length(self) -> int:
        return self.dims[0].n if self.rank else 1

    @property
    def batch(self) -> int:
        out = 1
        for d in self.howmany_dims:
            out *= d.n
        return out

    @property
    def flops(self) -> float:
        return fft_flops(self.fft_length, self.batch)


def plan_guru_dft(rank: int, dims: Optional[Sequence[IoDim]],
                  howmany_rank: int, howmany_dims: Sequence[IoDim],
                  src: np.ndarray, dst: np.ndarray,
                  sign: int = FFTW_FORWARD) -> Plan:
    """Create a guru plan (fftwf_plan_guru_dft).

    Only rank 0 (strided copy) and rank 1 (batched 1-D DFT) are
    supported — the two shapes the paper's workloads use.
    """
    if rank not in (0, 1):
        raise FftwError(f"unsupported transform rank {rank}")
    if rank >= 1 and (not dims or len(dims) != rank):
        raise FftwError("rank and dims disagree")
    if len(howmany_dims) != howmany_rank:
        raise FftwError("howmany_rank and howmany_dims disagree")
    if sign not in (FFTW_FORWARD, FFTW_BACKWARD):
        raise FftwError(f"bad sign {sign}")
    if not np.iscomplexobj(src) or not np.iscomplexobj(dst):
        raise FftwError("guru dft plans operate on complex arrays")
    return Plan(rank=rank, dims=tuple(dims or ()),
                howmany_dims=tuple(howmany_dims), src=src, dst=dst,
                sign=sign)


def plan_dft_1d(n: int, src: np.ndarray, dst: np.ndarray,
                sign: int = FFTW_FORWARD) -> Plan:
    """The simple interface: one contiguous length-``n`` transform."""
    return plan_guru_dft(1, [IoDim(n, 1, 1)], 0, [], src, dst, sign)


def _iter_batch_offsets(howmany_dims: Sequence[IoDim]
                        ) -> List[Tuple[int, int]]:
    """All (input_offset, output_offset) pairs of the batch space."""
    offsets = [(0, 0)]
    for dim in howmany_dims:
        offsets = [(i + k * dim.istride, o + k * dim.ostride)
                   for i, o in offsets for k in range(dim.n)]
    return offsets


def execute(plan: Plan) -> None:
    """Execute a plan on its bound buffers (fftwf_execute)."""
    src = plan.src.reshape(-1)
    dst = plan.dst.reshape(-1)
    offsets = _iter_batch_offsets(plan.howmany_dims)
    if plan.is_copy:
        for ioff, ooff in offsets:
            dst[ooff] = src[ioff]
        return
    dim = plan.dims[0]
    n = dim.n
    gathered = np.empty((len(offsets), n), dtype=plan.src.dtype)
    for row, (ioff, _) in enumerate(offsets):
        gathered[row] = src[ioff: ioff + n * dim.istride: dim.istride] \
            if dim.istride else src[ioff]
    transformed = fft_radix2(gathered, plan.sign)
    for row, (_, ooff) in enumerate(offsets):
        dst[ooff: ooff + n * dim.ostride: dim.ostride] = transformed[row]

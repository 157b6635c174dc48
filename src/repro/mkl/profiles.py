"""Operation profiles: the single source of truth for op characteristics.

Every library operation is summarised as an :class:`OpProfile` — flop
count, bytes read/written, and dominant access pattern. Host CPU models
consume profiles through a roofline (compute vs. achieved bandwidth);
accelerators additionally expand the same quantities into concrete DRAM
access streams. Keeping both sides keyed off one profile guarantees the
comparison platforms run *the same operation*.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from repro.mkl.sparse import CsrMatrix

#: Access-pattern classes, in decreasing CPU friendliness.
PATTERNS = ("stream", "blocked", "gather", "transpose")

FLOAT = 4
COMPLEX = 8


@dataclass(frozen=True)
class OpProfile:
    """Machine-independent characterisation of one library operation.

    Attributes:
        name: accelerator opcode name ('AXPY', 'DOT', ...).
        flops: floating-point operations.
        bytes_read: payload bytes read from memory.
        bytes_written: payload bytes written to memory.
        pattern: dominant access pattern (one of :data:`PATTERNS`).
        passes: number of full sweeps over the data (multi-pass
            algorithms such as 2-D FFT re-visit memory).
        threads: thread count the *library* runs this op with, when it
            differs from the platform default (MKL's simatcopy is
            sequential, for instance). None = platform default.
    """

    name: str
    flops: float
    bytes_read: int
    bytes_written: int
    pattern: str = "stream"
    passes: int = 1
    threads: int = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("profile quantities must be non-negative")

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte — what decides memory- vs compute-bounded."""
        return self.flops / self.bytes_total if self.bytes_total else 0.0


def axpy_profile(n: int) -> OpProfile:
    """y := a x + y over length-n float vectors."""
    return OpProfile("AXPY", flops=2.0 * n, bytes_read=2 * n * FLOAT,
                     bytes_written=n * FLOAT)


def dot_profile(n: int) -> OpProfile:
    """x . y over length-n float vectors."""
    return OpProfile("DOT", flops=2.0 * n, bytes_read=2 * n * FLOAT,
                     bytes_written=0)


def cdotc_profile(n: int) -> OpProfile:
    """conj(x) . y over length-n complex vectors (8 flops/element)."""
    return OpProfile("DOT", flops=8.0 * n, bytes_read=2 * n * COMPLEX,
                     bytes_written=0)


def gemv_profile(m: int, n: int) -> OpProfile:
    """y := A x, A m-by-n float: the matrix read dominates."""
    return OpProfile("GEMV", flops=2.0 * m * n,
                     bytes_read=(m * n + n) * FLOAT,
                     bytes_written=m * FLOAT)


def spmv_profile(a: CsrMatrix, index_bytes: int = 4) -> OpProfile:
    """y := A x for CSR A: streams values+indices, gathers x."""
    read = (a.nnz * (FLOAT + index_bytes)       # data + column indices
            + (a.rows + 1) * index_bytes        # row pointers
            + a.nnz * FLOAT)                    # gathered x elements
    return OpProfile("SPMV", flops=2.0 * a.nnz, bytes_read=read,
                     bytes_written=a.rows * FLOAT, pattern="gather")


def resmp_profile(n_in: int, n_out: int, blocks: int = 1) -> OpProfile:
    """Cubic resampling of ``blocks`` independent complex series."""
    flops = blocks * (20.0 * n_in + 12.0 * n_out) * 2   # re + im
    read = blocks * (n_in * COMPLEX + n_out * FLOAT)
    return OpProfile("RESMP", flops=flops, bytes_read=read,
                     bytes_written=blocks * n_out * COMPLEX)


def fft_profile(n: int, batch: int = 1) -> OpProfile:
    """Batched complex 1-D FFTs of power-of-two length ``n``."""
    flops = 5.0 * n * log2(n) * batch if n > 1 else 0.0
    moved = n * batch * COMPLEX
    return OpProfile("FFT", flops=flops, bytes_read=moved,
                     bytes_written=moved, pattern="blocked")


def fft2d_profile(rows: int, cols: int) -> OpProfile:
    """2-D complex FFT = row pass + column pass (two memory sweeps)."""
    flops = 5.0 * cols * log2(cols) * rows + 5.0 * rows * log2(rows) * cols
    moved = rows * cols * COMPLEX
    return OpProfile("FFT", flops=flops, bytes_read=2 * moved,
                     bytes_written=2 * moved, pattern="blocked", passes=2)


def reshp_profile(rows: int, cols: int,
                  elem_bytes: int = FLOAT) -> OpProfile:
    """Matrix transpose: zero flops, pure layout change."""
    moved = rows * cols * elem_bytes
    return OpProfile("RESHP", flops=0.0, bytes_read=moved,
                     bytes_written=moved, pattern="transpose",
                     threads=1)      # mkl_simatcopy is sequential


def cherk_profile(n: int, k: int) -> OpProfile:
    """C := A A^H + C, n-by-k complex A: compute-bounded (Level-3)."""
    return OpProfile("CHERK", flops=4.0 * n * n * k,
                     bytes_read=(n * k + n * n // 2) * COMPLEX,
                     bytes_written=(n * n // 2) * COMPLEX,
                     pattern="blocked")


def ctrsm_profile(n: int, m: int) -> OpProfile:
    """Triangular solve with m right-hand sides: compute-bounded."""
    return OpProfile("CTRSM", flops=4.0 * n * n * m,
                     bytes_read=(n * n // 2 + n * m) * COMPLEX,
                     bytes_written=n * m * COMPLEX, pattern="blocked")


def cpotrf_profile(n: int) -> OpProfile:
    """Cholesky factorisation of an n-by-n complex matrix:
    compute-bounded."""
    return OpProfile("POTRF", flops=4.0 / 3.0 * n ** 3,
                     bytes_read=n * n * COMPLEX,
                     bytes_written=n * n * COMPLEX, pattern="blocked")

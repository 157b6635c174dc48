"""The supported C library surface, declared once.

One :class:`LibraryCall` per MKL/FFTW call the compiler understands.
The recognizer reads ``accel`` and the arity, both interpreters bind by
``signature`` and run ``kernel``, the effect analysis and the function
summaries share :func:`call_effects`, and the host timing model reads
``profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.cast import Call, Expr, Ident
from repro.compiler.errors import InterpError
from repro.compiler.semantics import CompileEnv
from repro.mkl import blas, fftw
from repro.mkl.profiles import (OpProfile, cherk_profile, cpotrf_profile,
                                ctrsm_profile)
from repro.mkl.resample import interpolate_rows
from repro.mkl.sparse import CsrMatrix, scsrgemv
from repro.mkl.transpose import simatcopy, somatcopy

#: Signature letters of a pointer the call reads, writes, or both.
POINTER_KINDS = "rwm"


@dataclass(frozen=True)
class LibraryCall:
    """One supported library call."""

    #: one letter per C argument: ``s`` a scalar; ``r``, ``w`` or ``m``
    #: a pointer the call reads, writes, or reads and writes; ``l`` an
    #: FFTW plan (which reads its source and writes its destination)
    signature: str
    #: offloaded to an accelerator (Table 1), else kept on the host
    accel: bool
    #: the host library kernel over the evaluated arguments (scalars,
    #: ``ArrayRef``s, and a plan as its ``PlanSpec`` and two of those)
    kernel: Callable[..., None]
    #: a host call's per-invocation profile from its constants
    profile: Optional[Callable[[Callable[[int], int]], OpProfile]] = None

    @property
    def arity(self) -> int:
        return len(self.signature)


# -- host kernels -------------------------------------------------------------

def _rows(ref, rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` matrix stored contiguously at ``ref``."""
    if rows < 0 or cols < 0:
        raise InterpError(f"negative extent {rows}x{cols}")
    flat = ref.take(rows * cols)
    if len(flat) != rows * cols:
        raise InterpError(f"buffer too short for {rows}x{cols} elements")
    return flat.reshape(rows, cols)


def _store(ref, value) -> None:
    ref.array[ref.offset] = value


def _csrgemv(m, a, ia, ja, x, y) -> None:
    indptr = ia.take(m + 1).astype(np.int64)
    nnz = int(indptr[-1])
    csr = CsrMatrix(indptr=indptr, indices=ja.take(nnz).astype(np.int64),
                    data=a.take(nnz), shape=(m, m))
    scsrgemv(csr, x.tail(), y.tail())


def _interpolate(blocks, n_in, knots, series, n_out, sites, out) -> None:
    src = _rows(series, blocks, n_in)
    dst = _rows(out, blocks, n_out)
    dst[:] = interpolate_rows(knots.take(n_in), src,
                              _rows(sites, blocks, n_out))


def _execute_plan(spec, src, dst) -> None:
    dims = [fftw.IoDim(d.n, d.istride, d.ostride) for d in spec.dims]
    howmany = [fftw.IoDim(d.n, d.istride, d.ostride) for d in spec.howmany]
    fftw.execute(fftw.plan_guru_dft(spec.rank, dims or None, len(howmany),
                                    howmany, src.tail(), dst.tail(),
                                    spec.sign))


# -- the table ----------------------------------------------------------------

#: Every supported call by C name.
LIBRARY: Dict[str, LibraryCall] = {
    "cblas_saxpy": LibraryCall(
        "ssrsms", True, lambda n, alpha, x, incx, y, incy: blas.saxpy(
            n, alpha, x.tail(), incx, y.tail(), incy)),
    "cblas_sdot_sub": LibraryCall(
        "srsrsw", True, lambda n, x, incx, y, incy, out: _store(
            out, blas.sdot(n, x.tail(), incx, y.tail(), incy))),
    "cblas_cdotc_sub": LibraryCall(
        "srsrsw", True, lambda n, x, incx, y, incy, out: _store(
            out, blas.cdotc(n, x.tail(), incx, y.tail(), incy))),
    # order trans m n alpha a lda x incx beta y incy
    "cblas_sgemv": LibraryCall(
        "sssssrsrssms", True,
        lambda order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy:
        blas.sgemv(False, m, n, alpha, a.tail(), lda, x.tail(), incx,
                   beta, y.tail(), incy)),
    "mkl_scsrgemv": LibraryCall("srrrrw", True, _csrgemv),
    # blocks n_in knots series n_out sites out
    "dfsInterpolate1D": LibraryCall("ssrrsrw", True, _interpolate),
    "mkl_simatcopy": LibraryCall(
        "sssm", True, lambda rows, cols, alpha, ab: simatcopy(
            rows, cols, alpha, ab.tail())),
    "mkl_somatcopy": LibraryCall(
        "sssrw", True, lambda rows, cols, alpha, a, b: somatcopy(
            rows, cols, alpha, a.tail(), b.tail())),
    "fftwf_execute": LibraryCall("l", True, _execute_plan),
    "cblas_cherk": LibraryCall(
        "sssrsm", False, lambda n, k, alpha, a, beta, c: blas.cherk(
            False, n, k, alpha, a.take(n * k), beta, c.take(n * n)),
        profile=lambda c: cherk_profile(c(0), c(1))),
    "cblas_ctrsm_lower": LibraryCall(
        "ssrm", False, lambda n, m, a, b: blas.ctrsm_left_lower(
            n, m, 1.0, a.take(n * n), b.take(n * m)),
        profile=lambda c: ctrsm_profile(c(0), c(1))),
    "cblas_ctrsm_upper": LibraryCall(
        "ssrm", False, lambda n, m, a, b: blas.ctrsm_left_upper(
            n, m, 1.0, a.take(n * n), b.take(n * m)),
        profile=lambda c: ctrsm_profile(c(0), c(1))),
    "cpotrf_lower": LibraryCall(
        "sm", False, lambda n, a: blas.cpotrf_lower(n, a.take(n * n)),
        profile=lambda c: cpotrf_profile(c(0))),
}


# -- effects ------------------------------------------------------------------

#: An effect target: ``("buffer", name)``, ``("plan", name)`` or, in a
#: function summary, ``("param", name)`` for a pointer parameter.
Target = Tuple[str, str]
#: ``(kind, target)``: an effect and its target.
Effect = Tuple[str, Target]


def call_effects(call: Call, env: CompileEnv,
                 resolve: Callable[[str, Expr], Optional[Target]]
                 ) -> List[Effect]:
    """The lifecycle and access effects of one library call, in order.

    ``resolve(kind, expr)`` maps a pointer argument (``kind`` is its
    signature letter, or ``"free"``) to the consumer's target, or to
    None to drop the effect. A call that is not ``free``,
    ``fftwf_destroy_plan`` or in :data:`LIBRARY` has no effects.
    """
    args = call.args
    if call.func == "free":
        target = resolve("free", args[0]) if args else None
        return [] if target is None else [("free", target)]
    if call.func == "fftwf_destroy_plan":
        if args and isinstance(args[0], Ident):
            return [("plan_kill", ("plan", args[0].name))]
        return []
    entry = LIBRARY.get(call.func)
    if entry is None:
        return []
    effects: List[Effect] = []
    for kind, expr in zip(entry.signature, args):
        if kind == "l":
            if isinstance(expr, Ident) and expr.name in env.plans:
                spec = env.plans[expr.name]
                effects += [("plan_use", ("plan", expr.name)),
                            ("read", ("buffer", spec.src)),
                            ("write", ("buffer", spec.dst))]
            continue
        target = resolve(kind, expr) if kind in POINTER_KINDS else None
        if target is None:
            continue
        if kind in "rm":
            effects.append(("read", target))
        if kind in "wm":
            effects.append(("write", target))
    return effects


def plan_captures(call: Call, resolve: Callable[[Expr], Optional[Target]]
                  ) -> List[Target]:
    """The buffers an ``fftwf_plan_guru_dft`` call captures: the plan
    keeps both buffer addresses from its creation on."""
    targets = [resolve(arg) for arg in call.args[4:6]]
    return [t for t in targets if t is not None]

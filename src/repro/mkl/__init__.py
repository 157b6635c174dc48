"""The software library baseline: an MKL/FFTW stand-in built from scratch.

Functional semantics match the routines in the paper's Table 1 and
Table 4; every routine is verified against numpy/scipy references in
``tests/mkl``. :mod:`repro.mkl.profiles` characterises each operation for
the performance models.
"""

from repro.mkl.blas import (cdotc, cherk, cpotrf_lower, ctrsm_left_lower,
                            ctrsm_left_upper, saxpy, scopy, sdot, sgemv)
from repro.mkl.fftw import (FFTW_BACKWARD, FFTW_FORWARD, FftwError, IoDim,
                            Plan, execute, fft_bluestein, fft_flops,
                            fft_radix2, plan_dft_1d, plan_guru_dft)
from repro.mkl.profiles import (OpProfile, axpy_profile, cdotc_profile,
                                cherk_profile, ctrsm_profile, dot_profile,
                                fft2d_profile, fft_profile, gemv_profile,
                                reshp_profile, resmp_profile, spmv_profile)
from repro.mkl.resample import (CubicSpline1D, ResampleError,
                                fit_cubic_spline, interpolate_1d,
                                interpolate_rows, resample_flops,
                                thomas_solve)
from repro.mkl.sparse import (CsrMatrix, SparseError,
                              random_geometric_graph, scsrgemv, spmv_flops)
from repro.mkl.transpose import simatcopy, somatcopy

__all__ = [
    "cdotc", "cherk", "cpotrf_lower", "ctrsm_left_lower",
    "ctrsm_left_upper", "saxpy", "scopy", "sdot", "sgemv",
    "FFTW_BACKWARD", "FFTW_FORWARD", "FftwError", "IoDim", "Plan",
    "execute", "fft_bluestein", "fft_flops", "fft_radix2",
    "plan_dft_1d", "plan_guru_dft",
    "OpProfile", "axpy_profile", "cdotc_profile", "cherk_profile",
    "ctrsm_profile", "dot_profile", "fft2d_profile", "fft_profile",
    "gemv_profile", "reshp_profile", "resmp_profile", "spmv_profile",
    "CubicSpline1D", "ResampleError", "fit_cubic_spline", "interpolate_1d",
    "interpolate_rows", "resample_flops", "thomas_solve", "CsrMatrix", "SparseError",
    "random_geometric_graph", "scsrgemv", "spmv_flops", "simatcopy",
    "somatcopy",
]

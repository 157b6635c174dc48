"""The supported C library surface, pinned call by call.

MEALib's portability rests on one interface: each of the 13 supported
MKL/FFTW calls is either offloaded (Table 1) or left on the host
(Table 4), and every compiler layer must agree on what it takes and
touches. These tests pin that surface through the layers that read it,
for every call:

* arity: an accelerated call fails at recognition, a host call at bind
  time, with the same messages;
* each argument's kind (scalar, pointer, plan) as ``bind_args`` binds it,
  and each pointer's read/write mode as the effect analysis events it
  and a function summary records it;
* the operation profile of each host call.

Three calls (``cblas_sgemv``, ``mkl_scsrgemv``, ``mkl_simatcopy``) are
used by no application program, so their host kernels are checked here
against numpy as well.
"""

import numpy as np
import pytest

from repro.compiler import interp
from repro.compiler.analysis.events import stmt_events
from repro.compiler.analysis.summaries import compute_summaries
from repro.compiler.cast import Call, ExprStmt, Ident, Num
from repro.compiler.cparser import parse_source
from repro.compiler.interp import ArrayRef, InterpError, bind_args
from repro.compiler.recognizer import (HostCallStep, RecognizerError,
                                       recognize)
from repro.compiler.translate import host_step_profile
from repro.mkl.profiles import OpProfile

#: Per call: its signature (one letter per argument: ``s`` scalar,
#: ``r``/``w``/``m`` a pointer read, written, or read and written, ``l``
#: a plan), whether it is offloaded, and the constants its scalar
#: arguments take below, in order.
SURFACE = {
    "cblas_saxpy": ("ssrsms", True, (8, 2.0, 1, 1)),
    "cblas_sdot_sub": ("srsrsw", True, (8, 2, -3)),
    "cblas_cdotc_sub": ("srsrsw", True, (8, 2, -3)),
    # order trans m n alpha a lda x incx beta y incy
    "cblas_sgemv": ("sssssrsrssms", True,
                    (101, 111, 3, 5, 1.5, 5, 1, 0.5, 1)),
    "mkl_scsrgemv": ("srrrrw", True, (4,)),
    # blocks n_in knots series n_out sites out
    "dfsInterpolate1D": ("ssrrsrw", True, (2, 4, 3)),
    "mkl_simatcopy": ("sssm", True, (3, 5, 1.0)),
    "mkl_somatcopy": ("sssrw", True, (3, 5, 1.0)),
    "fftwf_execute": ("l", True, ()),
    "cblas_cherk": ("sssrsm", False, (4, 6, 1.0, 0.0)),
    "cblas_ctrsm_lower": ("ssrm", False, (4, 6)),
    "cblas_ctrsm_upper": ("ssrm", False, (4, 6)),
    "cpotrf_lower": ("sm", False, (4,)),
}

#: The host profile of each host call under the constants above.
PROFILES = {
    "cblas_cherk": OpProfile("CHERK", flops=4.0 * 4 * 4 * 6,
                             bytes_read=(4 * 6 + 4 * 4 // 2) * 8,
                             bytes_written=(4 * 4 // 2) * 8,
                             pattern="blocked"),
    "cblas_ctrsm_lower": OpProfile("CTRSM", flops=4.0 * 4 * 4 * 6,
                                   bytes_read=(4 * 4 // 2 + 4 * 6) * 8,
                                   bytes_written=4 * 6 * 8,
                                   pattern="blocked"),
    "cblas_ctrsm_upper": OpProfile("CTRSM", flops=4.0 * 4 * 4 * 6,
                                   bytes_read=(4 * 4 // 2 + 4 * 6) * 8,
                                   bytes_written=4 * 6 * 8,
                                   pattern="blocked"),
    "cpotrf_lower": OpProfile("POTRF", flops=4.0 / 3.0 * 4 ** 3,
                              bytes_read=4 * 4 * 8, bytes_written=4 * 4 * 8,
                              pattern="blocked"),
}

NAMES = sorted(SURFACE)


def _wrapper(name):
    """A user function passing its pointer parameters and the pinned
    constants to ``name``; the plan call uses the global plan."""
    sig, _, consts = SURFACE[name]
    values = iter(consts)
    params, args = [], []
    for idx, kind in enumerate(sig):
        if kind == "s":
            args.append(repr(next(values)))
        elif kind == "l":
            args.append("p")
        else:
            params.append(f"float* q{idx}")
            args.append(f"q{idx}")
    return (f"void wrap_{name}({', '.join(params)}) {{\n"
            f"  {name}({', '.join(args)});\n}}\n")


SOURCE = "\n".join(
    ["#define N 64", "complex src[N];", "complex dst[N];",
     "fftwf_plan p;", "fftw_iodim dims[1] = {{N, 1, 1}};"]
    + [f"float b{i}[N];" for i in range(12)]
    + [_wrapper(name) for name in NAMES]
    + ["p = fftwf_plan_guru_dft(1, dims, 0, NULL, src, dst, FFTW_FORWARD, "
       "FFTW_ESTIMATE);"])


@pytest.fixture(scope="module")
def program():
    program = parse_source(SOURCE)
    return program, recognize(program).env


def _call(name, arity=None):
    """``name`` applied to the pinned constants, buffer ``b<i>`` at each
    pointer position ``i`` and the plan ``p``, cut to ``arity``."""
    sig, _, consts = SURFACE[name]
    values = iter(consts)
    args = [Num(next(values)) if kind == "s"
            else Ident("p") if kind == "l" else Ident(f"b{idx}")
            for idx, kind in enumerate(sig)]
    if arity is not None:
        args = (args + [Num(1)] * arity)[:arity]
    return Call(name, tuple(args))


def _expected_events(name):
    sig = SURFACE[name][0]
    events = []
    for idx, kind in enumerate(sig):
        buf = f"b{idx}"
        if kind == "l":
            events += [("plan_use", "p"), ("read", "src"), ("write", "dst")]
        elif kind in "rm":
            events.append(("read", buf))
        if kind in "wm":
            events.append(("write", buf))
    return events


def test_the_surface_has_thirteen_calls():
    assert len(SURFACE) == 13
    assert sorted(n for n in NAMES if not SURFACE[n][1]) == [
        "cblas_cherk", "cblas_ctrsm_lower", "cblas_ctrsm_upper",
        "cpotrf_lower"]


@pytest.mark.parametrize("name", NAMES)
def test_arity(name, program):
    source, env = program
    arity = len(SURFACE[name][0])
    for wrong in (arity - 1, arity + 1):
        bound = bind_args(env, name, _call(name, wrong).args)
        with pytest.raises(InterpError) as info:
            bound.evaluate({}, lambda buf: np.zeros(64))
        assert str(info.value) == (f"{name} expects {arity} arguments, "
                                   f"got {wrong}")
    short = f"{name}({', '.join(['1'] * (arity - 1))});"
    decls = SOURCE.split("void ")[0]
    if not SURFACE[name][1]:
        # a host call is recognised whatever its arity
        steps = recognize(parse_source(decls + short)).steps
        assert isinstance(steps[-1], HostCallStep)
        return
    with pytest.raises(RecognizerError) as info:
        recognize(parse_source(decls + short))
    if name == "fftwf_execute":
        assert info.value.message == "fftwf_execute takes a prepared plan"
    else:
        assert info.value.message == (f"{name} takes {arity} arguments, "
                                      f"got {arity - 1}")


@pytest.mark.parametrize("name", NAMES)
def test_argument_kinds(name, program):
    _, env = program
    bound = bind_args(env, name, _call(name).args)
    kinds = ""
    for arg in bound.args:
        if isinstance(arg, interp._Pointer):
            kinds += "p"
        elif isinstance(arg, interp._PlanArg):
            kinds += "l"
        else:
            assert isinstance(arg, (int, float))
            kinds += "s"
    sig = SURFACE[name][0]
    assert kinds == "".join("p" if k in "rwm" else k for k in sig)
    assert bound.buffers() == [
        buf for idx, k in enumerate(sig)
        for buf in ((["src", "dst"] if k == "l" else [f"b{idx}"])
                    if k != "s" else [])]


@pytest.mark.parametrize("name", NAMES)
def test_effects(name, program):
    _, env = program
    events = stmt_events(ExprStmt(_call(name)), env)
    assert [(e.kind, e.name) for e in events] == _expected_events(name)


@pytest.mark.parametrize("name", NAMES)
def test_summary_effects_and_extents(name, program):
    source, env = program
    summary = compute_summaries(source, env)[f"wrap_{name}"]
    want = [(kind, ("plan", "p") if buf == "p"
             else ("buffer", buf) if buf in ("src", "dst")
             else ("param", "q" + buf[1:]))
            for kind, buf in _expected_events(name)]
    assert [(e.kind, e.target) for e in summary.events] == want


UNKNOWN_CONSTS = """
void axpy_n(float* x, float* y, int n) {
  cblas_saxpy(n, 2.0, x, 1, y, 1);
}
void gemv_m(float* a, float* x, float* y, int m) {
  cblas_sgemv(101, 111, m, 5, 1.0, a, 5, x, 1, 0.0, y, 1);
}
"""


def test_summary_events_need_no_constants():
    program = parse_source(UNKNOWN_CONSTS)
    summaries = compute_summaries(program, recognize(program).env)
    assert [(e.kind, e.target) for e in summaries["axpy_n"].events] == [
        ("read", ("param", "x")), ("read", ("param", "y")),
        ("write", ("param", "y"))]
    # the row count is unknown: every pointer is still evented
    assert [(e.kind, e.target) for e in summaries["gemv_m"].events] == [
        ("read", ("param", "a")), ("read", ("param", "x")),
        ("read", ("param", "y")), ("write", ("param", "y"))]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_host_profiles(name, program):
    _, env = program
    step = HostCallStep(func=name, args=_call(name).args)
    assert host_step_profile(step, env) == PROFILES[name]


# -- host kernels of the calls no application uses ----------------------------

def test_sgemv_kernel():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(15).astype(np.float32)
    x = rng.standard_normal(5).astype(np.float32)
    y = rng.standard_normal(4).astype(np.float32)
    want = 1.5 * (a.reshape(3, 5) @ x) + np.float32(0.5) * y[1:]
    interp._call_function(None, "cblas_sgemv", [
        101, 111, 3, 5, 1.5, ArrayRef(a, 0), 5, ArrayRef(x, 0), 1, 0.5,
        ArrayRef(y, 1), 1])
    np.testing.assert_allclose(y[1:], want, rtol=1e-5)


def test_scsrgemv_kernel():
    dense = np.array([[1, 0, 2], [0, 0, 0], [3, 4, 0]], dtype=np.float32)
    data = np.array([1, 2, 3, 4], dtype=np.float32)
    indptr = np.array([0, 2, 2, 4], dtype=np.int32)
    indices = np.array([0, 2, 0, 1], dtype=np.int32)
    x = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    y = np.zeros(3, dtype=np.float32)
    interp._call_function(None, "mkl_scsrgemv", [
        3, ArrayRef(data, 0), ArrayRef(indptr, 0), ArrayRef(indices, 0),
        ArrayRef(x, 0), ArrayRef(y, 0)])
    np.testing.assert_array_equal(y, dense @ x)


@pytest.mark.parametrize("rows, cols", [(3, 5), (4, 4)])
def test_simatcopy_kernel(rows, cols):
    ab = np.arange(rows * cols + 2, dtype=np.float32)
    want = ab[1:1 + rows * cols].reshape(rows, cols).T.reshape(-1).copy()
    interp._call_function(None, "mkl_simatcopy",
                          [rows, cols, 1.0, ArrayRef(ab, 1)])
    np.testing.assert_array_equal(ab[1:1 + rows * cols], want)
    assert ab[0] == 0 and ab[-1] == rows * cols + 1

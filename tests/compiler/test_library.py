"""One table entry is the whole of a library call.

Every compiler layer reads :data:`repro.compiler.library.LIBRARY`, so a
call declared there (and nowhere else) is recognised, bound and run by
both interpreters, evented by the effect analysis, summarised and timed
with its profile.
"""

import numpy as np
import pytest

from repro.compiler import library, run_original, run_translated
from repro.compiler.analysis.events import stmt_events
from repro.compiler.analysis.summaries import compute_summaries
from repro.compiler.cparser import parse_source
from repro.compiler.interp import InterpError, bind_args
from repro.compiler.library import LIBRARY, LibraryCall
from repro.compiler.recognizer import (HostCallStep, Recognizer,
                                       RecognizerError, recognize)
from repro.compiler.translate import host_step_profile, translate
from repro.mkl.profiles import OpProfile


def _sscal(n, alpha, x):
    view = x.take(n)
    view *= np.float32(alpha)


#: x[0:n] *= alpha, on the host
SSCAL = LibraryCall(
    "ssm", False, _sscal,
    profile=lambda c: OpProfile("SCAL", flops=float(c(0)),
                                bytes_read=4 * c(0),
                                bytes_written=4 * c(0)))

SOURCE = """
#define N 6
float x[N];
void scale(float* v) {
  mylib_sscal(4, 3.0, v);
}
mylib_sscal(N, 2.0, x);
scale(&x[1]);
"""


@pytest.fixture
def sscal(monkeypatch):
    monkeypatch.setitem(LIBRARY, "mylib_sscal", SSCAL)


def test_an_undeclared_call_is_unknown():
    with pytest.raises(RecognizerError, match="unknown library call"):
        recognize(parse_source(SOURCE))


def test_recognized(sscal):
    steps = recognize(parse_source(SOURCE)).steps
    calls = [s for s in steps if isinstance(s, HostCallStep)]
    assert [s.func for s in calls] == ["mylib_sscal"] * 2


def test_bound_and_executed(sscal):
    x = np.arange(1, 7, dtype=np.float32)
    want = x * 2
    want[1:5] *= 3
    inputs = {"x": x}
    assert run_original(SOURCE, inputs=inputs).buffers["x"].tolist() \
        == want.tolist()
    outcome = run_translated(SOURCE, inputs=inputs)
    assert outcome.buffers["x"].tolist() == want.tolist()
    assert outcome.result.time > 0
    env = translate(SOURCE).env
    bound = bind_args(env, "mylib_sscal", parse_source(
        "mylib_sscal(1, 2.0);").stmts[0].expr.args)
    with pytest.raises(InterpError, match="expects 3 arguments, got 2"):
        bound.evaluate({}, lambda buf: np.zeros(6))


def test_evented(sscal):
    program = parse_source(SOURCE)
    env = recognize(program).env
    stmt = next(s for s in program.stmts
                if getattr(getattr(s, "expr", None), "func", "")
                == "mylib_sscal")
    events = stmt_events(stmt, env)
    assert [(e.kind, e.name) for e in events] == [("read", "x"),
                                                  ("write", "x")]


def test_summarized(sscal):
    program = parse_source(SOURCE)
    summary = compute_summaries(program, recognize(program).env)["scale"]
    assert [(e.kind, e.target) for e in summary.events] == [
        ("read", ("param", "v")), ("write", ("param", "v"))]


def test_profiled(sscal):
    translated = translate(SOURCE)
    step = next(s for s in translated.schedule.steps
                if isinstance(s, HostCallStep))
    assert host_step_profile(step, translated.env) == OpProfile(
        "SCAL", flops=6.0, bytes_read=24, bytes_written=24)


def test_the_table_is_the_surface():
    assert len(library.LIBRARY) == 13
    # an offloaded call is built by the recognizer, a host call is timed
    # by its profile
    for name, entry in LIBRARY.items():
        assert hasattr(Recognizer, f"_build_{name}") == entry.accel
        assert (entry.profile is None) == entry.accel

"""Binding host-call arguments once per call site.

:func:`repro.compiler.interp.bind_args` resolves each argument of a
library call once (a constant, an ``Affine`` scalar, a buffer with an
``Affine`` byte offset, or a plan); each loop iteration then only
evaluates integer affines. Both interpreters use it: the translated
runner once per host step, the original-program interpreter once per
library call of the program (and per execution of a call inside an
inlined user function). These tests hold it to the per-iteration resolution it
replaced (``reference_eval_args`` and ``ReferenceInterpreter`` in
``tests/compiler/helpers.py``): the same values for every iteration of
every call site, the same buffers after ``run_original``, and the same
error at the same argument.
"""

import itertools

import numpy as np
import pytest

from repro.apps.sar import SarConfig, sar_inputs, sar_source
from repro.apps.stap import PRESETS, stap_inputs, stap_source
from repro.compiler import interp, run_original, translate
from repro.compiler.affine import AffineError
from repro.compiler.cast import AddrOf, BinOp, Call, Ident, Index, Num
from repro.compiler.cparser import parse_source
from repro.compiler.interp import (ArrayRef, InterpError,
                                   OriginalInterpreter, TranslatedRunner,
                                   bind_args)
from repro.compiler.recognizer import AccelCallStep, HostCallStep
from repro.compiler.semantics import SemanticError, build_env
from tests.compiler.helpers import (ReferenceInterpreter,
                                    reference_eval_args)
from tests.compiler.test_interp import CDOTC_NEST, HOST_LOOP

#: a user function called from a loop, so its inlined calls repeat
USER_LOOP = """
#define M 3
#define N 5
float a[M][N];
float b[M][N];
int i;
void scale_row(float* x, float* y, int n) {
  cblas_saxpy(n, 2.0, x, 1, y, 1);
}
for (i = 0; i < M; i++) {
  scale_row(&a[i][0], &b[i][0], N);
}
"""


def programs():
    rng = np.random.default_rng(11)

    def crand(*shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)).astype(np.complex64)

    stap, sar = PRESETS["small"], SarConfig(16)
    return {
        "host_loop": (HOST_LOOP, {"snap": crand(2, 8, 12)}),
        "cdotc_nest": (CDOTC_NEST, {"w": crand(3, 4, 8),
                                    "s": crand(3, 4, 8, 6)}),
        "user_loop": (USER_LOOP, {
            "a": rng.standard_normal((3, 5)).astype(np.float32),
            "b": rng.standard_normal((3, 5)).astype(np.float32)}),
        "stap": (stap_source(stap), stap_inputs(stap, seed=3)),
        "sar": (sar_source(sar), sar_inputs(sar, seed=3)),
    }


PROGRAMS = programs()


def same_args(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, ArrayRef):
            assert isinstance(g, ArrayRef)
            assert g.array is w.array
            assert type(g.offset) is type(w.offset) is int
            assert g.offset == w.offset
        else:
            assert type(g) is type(w)
            assert g == w


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_bound_evaluation_equals_per_iteration_resolution(name):
    source, _ = PROGRAMS[name]
    translated = translate(source, rewrite=False)
    env = translated.env
    arrays = {buf: np.zeros(max(info.count, 1))
              for buf, info in env.buffers.items()}
    sites = 0
    for step in translated.schedule.steps:
        if not isinstance(step, (AccelCallStep, HostCallStep)):
            continue
        bound = bind_args(env, step.func, step.args)
        for combo in itertools.product(*[range(t) for t in step.trips]):
            bindings = dict(zip(step.loop_vars, combo))
            same_args(bound.evaluate(bindings, arrays.__getitem__),
                      reference_eval_args(env, step.func, step.args,
                                          bindings, arrays.__getitem__))
        sites += 1
    assert sites


def record_calls(monkeypatch, into):
    """Record every library call's evaluated arguments, naming each
    array by the order it was first seen."""
    real = interp._call_function
    seen = {}

    def recording(env, name, args):
        row = [name]
        for arg in args:
            if isinstance(arg, ArrayRef):
                key = seen.setdefault(id(arg.array), len(seen))
                row.append(("array", key, arg.offset))
            else:
                row.append((type(arg).__name__, arg))
        into.append(row)
        real(env, name, args)

    monkeypatch.setattr(interp, "_call_function", recording)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_run_original_is_unchanged(name, monkeypatch):
    source, inputs = PROGRAMS[name]
    translated = translate(source, rewrite=False)
    want_calls, got_calls = [], []
    record_calls(monkeypatch, want_calls)
    want = ReferenceInterpreter(translated.source_program, translated.env,
                                inputs).execute()
    monkeypatch.undo()
    record_calls(monkeypatch, got_calls)
    got = run_original(source, inputs=inputs).buffers
    assert got_calls == want_calls
    assert sorted(got) == sorted(want)
    for buf in want:
        assert got[buf].dtype == want[buf].dtype
        assert got[buf].tobytes() == want[buf].tobytes(), buf


def count_binds(monkeypatch):
    binds = []
    real = interp.bind_args
    monkeypatch.setattr(interp, "bind_args",
                        lambda *a: binds.append(a[1]) or real(*a))
    return binds


def test_program_calls_bind_once(monkeypatch):
    binds = count_binds(monkeypatch)
    run_original(CDOTC_NEST)
    # one call site, run 3 x 4 x 6 times
    assert binds == ["cblas_cdotc_sub"]


def test_inlined_calls_bind_as_they_run(monkeypatch):
    # a call in an inlined body is a fresh node each time: it is bound
    # each time, and nothing of it is kept
    binds = count_binds(monkeypatch)
    translated = translate(USER_LOOP, rewrite=False)
    runner = OriginalInterpreter(translated.source_program, translated.env)
    runner.execute()
    assert binds == ["cblas_saxpy"] * 3
    assert runner._bound == {}


# -- errors stay where they were ---------------------------------------------

ENV_SOURCE = """
#define N 8
float x[N];
float y[N][N];
complex z[N];
int i;
"""

BAD_ARGS = {
    "arity": ("cblas_saxpy", (Num(8), Num(2.0), Ident("x"))),
    "arity before arguments": ("cblas_saxpy", (Ident("q"), Ident("ghost"))),
    "unknown buffer": ("cblas_saxpy", (Num(8), Num(2.0), Ident("ghost"),
                                       Num(1), Ident("x"), Num(1))),
    "non-affine scalar": ("cblas_saxpy", (
        Call("f", (Num(1),)), Num(2.0), Ident("x"), Num(1), Ident("x"),
        Num(1))),
    "unbound scalar": ("cblas_saxpy", (
        Ident("q"), Num(2.0), Ident("x"), Num(1), Ident("x"), Num(1))),
    "unbound pointer": ("cblas_saxpy", (
        Num(8), Num(2.0), AddrOf(Index(Ident("x"), Ident("q"))), Num(1),
        Ident("x"), Num(1))),
    "scalar before pointer": ("cblas_saxpy", (
        Ident("q"), Num(2.0), Ident("ghost"), Num(1), Ident("x"),
        Num(1))),
    "pointer before scalar": ("cblas_saxpy", (
        Num(8), Num(2.0), Ident("ghost"), Ident("q"), Ident("x"),
        Num(1))),
    "too many subscripts": ("cblas_saxpy", (
        Num(8), Num(2.0), AddrOf(Index(Index(Ident("x"), Num(0)),
                                       Num(0))),
        Num(1), Ident("x"), Num(1))),
    "division by zero": ("cblas_saxpy", (
        BinOp("/", Num(8), Num(0)), Num(2.0), Ident("x"), Num(1),
        Ident("x"), Num(1))),
    "no plan": ("fftwf_execute", (Ident("x"),)),
}


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
def test_errors_match_the_per_iteration_resolution(case):
    func, args = BAD_ARGS[case]
    env = build_env(parse_source(ENV_SOURCE))
    arrays = {buf: np.zeros(info.count)
              for buf, info in env.buffers.items()}
    bound = bind_args(env, func, args)      # binding never raises
    got = raised(lambda: bound.evaluate({"i": 1}, arrays.__getitem__))
    want = raised(lambda: reference_eval_args(env, func, args, {"i": 1},
                                              arrays.__getitem__))
    assert got == want
    assert got[0] in (InterpError, SemanticError, AffineError)


def test_pointer_errors_raise_before_allocation():
    """The runner resolves pointer buffers before anything runs, even
    when it only models timing; scalar errors wait for evaluation."""
    env = build_env(parse_source(ENV_SOURCE))
    bad_pointer = bind_args(env, *BAD_ARGS["scalar before pointer"])
    with pytest.raises(SemanticError, match="unknown buffer 'ghost'"):
        bad_pointer.buffers()
    bad_scalar = bind_args(env, *BAD_ARGS["non-affine scalar"])
    assert bad_scalar.buffers() == ["x", "x"]


def test_zero_trip_host_step_evaluates_nothing():
    translated = translate(HOST_LOOP, rewrite=False)
    runner = TranslatedRunner(translated)
    for name in translated.env.buffers:
        runner._ensure(name)
    # a bad scalar in a step that never runs raises nothing
    step = HostCallStep(
        func="cblas_cherk",
        args=(Num(8), Num(12), Num(1.0), AddrOf(Index(Index(Index(
            Ident("snap"), Ident("d")), Num(0)), Num(0))), Num(0.0),
            Ident("cov")),
        trips=(0,), loop_vars=("d",))
    before = {k: v.copy() for k, v in runner.views.items()}
    runner._run_host(step)
    for name, view in runner.views.items():
        assert view.tobytes() == before[name].tobytes()


def test_call_in_zero_trip_loop_binds_nothing(monkeypatch):
    program = parse_source(ENV_SOURCE + """
for (i = 0; i < 0; i++)
  cblas_saxpy(N, 2.0, ghost, 1, x, 1);
""")
    binds = count_binds(monkeypatch)
    OriginalInterpreter(program, build_env(program)).execute()
    assert binds == []

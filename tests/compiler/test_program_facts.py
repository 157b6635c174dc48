"""One analysis per compile: the shared :class:`ProgramFacts` bundle.

``translate`` and ``analyze_source`` share one checked front end,
which hands one bundle to the checker, the certifier and the rewrite
engine. These tests pin that each analysis then runs once per
compile, that sharing changes no output (the three entry points
called without a bundle build their own and must agree exactly), and
that malformed input through the whole pipeline and the ``analyze``
CLI fails only with the compiler's typed errors.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (AccelCallStep, CompilerError, Schedule,
                            parse_source, recognize, translate)
from repro.compiler.analysis import (ProgramFacts, ValueRanges,
                                     analyze_source, apply_demotions,
                                     build_cfg, certify_schedule,
                                     check_program, stmt_events)
from repro.compiler.analysis.rules import rejection_errors
from repro.compiler.analyze import main as analyze_main
from repro.compiler.errors import AnalysisRejected
from repro.compiler.passes import optimize
from repro.compiler.rewrite import rewrite_schedule
from tests.compiler.helpers import (cdotc_nest_source, chain_source,
                                    corner_turn_source,
                                    saxpy_nest_source)

CORPUS_DIR = Path(__file__).resolve().parents[2] / "examples" / "legacy"
CORPUS = {p.name: p.read_text() for p in sorted(CORPUS_DIR.glob("*.c"))}

GENERATED = {
    **{f"saxpy_{r}x{n}": saxpy_nest_source(r, n, 1.5)
       for r, n in ((1, 16), (6, 64))},
    **{f"cdotc_{a}x{b}x{t}": cdotc_nest_source(a, b, t)
       for a, b, t in ((1, 1, 4), (4, 3, 16))},
    **{f"corner_{r}x{c}": corner_turn_source(r, c)
       for r, c in ((4, 4), (8, 32))},
    **{f"chain_{k}": chain_source(chunks, 0.75, match, mid)
       for k, (chunks, match, mid) in enumerate(
           ((4, True, True), (8, True, False), (16, False, True),
            (4, False, False)))},
}
PROGRAMS = {**CORPUS, **GENERATED}


def standalone(source):
    """translate(rewrite=True) by hand, each entry point without a
    bundle: (report, certificates, decisions, items) as plain data, or
    the rejecting diagnostic."""
    program = parse_source(source)
    schedule = recognize(program)
    report = check_program(program, schedule)
    rejects = rejection_errors(report)
    if rejects:
        return ("rejected", rejects[0].code, rejects[0].message)
    lowered, demoted = apply_demotions(schedule, report)
    certificates = certify_schedule(program, lowered, skip=demoted)
    by_index = {c.step_index: c for c in certificates}
    steps = [dataclasses.replace(s, certificate=by_index[i])
             if isinstance(s, AccelCallStep) and i in by_index else s
             for i, s in enumerate(lowered.steps)]
    result = rewrite_schedule(program,
                              Schedule(env=lowered.env, steps=steps))
    report.extend(d.diagnostic() for d in result.decisions)
    return (report.sort().to_dict(),
            [c.to_dict() for c in result.certificates],
            [d.to_dict() for d in result.decisions],
            optimize(result.schedule))


def shared(source):
    """The same record from translate(rewrite=True)."""
    try:
        tp = translate(source, rewrite=True)
    except AnalysisRejected as exc:
        return ("rejected", exc.code, exc.message)
    return (tp.diagnostics.to_dict(),
            [c.to_dict() for c in tp.certificates],
            [d.to_dict() for d in tp.rewrites], tp.items)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_shared_bundle_matches_standalone_entry_points(name):
    source = PROGRAMS[name]
    expected = standalone(source)
    assert shared(source) == expected
    result = analyze_source(source, rewrite=True)
    if expected[0] == "rejected":
        assert rejection_errors(result.report)[0].code == expected[1]
    else:
        assert result.report.sort().to_dict() == expected[0]
        assert [c.to_dict() for c in result.certificates] == expected[1]
        assert [d.to_dict() for d in result.rewrites] == expected[2]


def _count_calls(monkeypatch, name, real, counter, key):
    """Wrap ``real`` wherever a compiler module binds it as ``name``."""
    def wrapper(*args, **kwargs):
        counter[key(*args)] += 1
        return real(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro.compiler") \
                and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize("name", ["stap_small.c", "sar_fns.c",
                                  "fusable_chain.c"])
def test_one_compile_runs_each_analysis_once(monkeypatch, name):
    cfgs, solves, events = Counter(), Counter(), Counter()
    _count_calls(monkeypatch, "build_cfg", build_cfg, cfgs,
                 lambda program: "cfg")
    _count_calls(monkeypatch, "stmt_events", stmt_events, events,
                 lambda stmt, *rest: id(stmt))
    real_solve = ValueRanges._solve

    def solve(self):
        solves[id(self)] += 1
        real_solve(self)
    monkeypatch.setattr(ValueRanges, "_solve", solve)

    tp = translate(CORPUS[name], rewrite=True)
    assert tp.certificates
    assert cfgs == {"cfg": 1}
    assert list(solves.values()) == [1]
    stmts = sum(len(b.stmts) for b in build_cfg(tp.source_program).blocks)
    assert len(events) == stmts
    assert set(events.values()) == {1}


def test_facts_are_lazy_and_cached():
    program = parse_source(CORPUS["saxpy_nest.c"])
    facts = ProgramFacts(program, recognize(program).env)
    assert "cfg" not in vars(facts) and "ranges" not in vars(facts)
    ranges = facts.ranges
    assert "cfg" in vars(facts)
    assert facts.ranges is ranges and ranges.cfg is facts.cfg


def test_bundle_of_another_env_is_refused():
    program = parse_source(CORPUS["saxpy_nest.c"])
    schedule = recognize(program)
    other = ProgramFacts(program, recognize(program).env)
    with pytest.raises(AssertionError):
        check_program(program, schedule, other)
    with pytest.raises(AssertionError):
        certify_schedule(program, schedule, facts=other)


# -- front-end fuzzing ---------------------------------------------------------

#: Fragments a mutation may splice in: statements and operands the
#: recognizer must check (argument counts, undeclared pointers,
#: non-finite and zero-divisor constants) as well as raw punctuation.
FRAGMENTS = (";", ",", ")", "(", "[", "]", "{", "}", "*", "&", "-1",
             " 0 ", "/0", "% 0", "1e400", "0x10", "0.5", "N", "i",
             "float", "int", "for", "malloc(4)", "free(x);",
             "z = malloc(16);\n", "cblas_saxpy(4, 1.0, x, 1, y);\n",
             "void f() { }\n", "#define Q 0\n",
             "#pragma omp parallel for\n")


@st.composite
def mutated_programs(draw):
    """A corpus program with a few bounded token or byte edits."""
    source = draw(st.sampled_from(sorted(CORPUS.values())))
    by_token = draw(st.booleans())
    parts = source.split(" ") if by_token else list(source)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(parts) - 1))
        action = draw(st.sampled_from(("delete", "duplicate", "swap",
                                       "insert")))
        if action == "delete":
            del parts[pos]
        elif action == "duplicate":
            parts.insert(pos, parts[draw(st.integers(0, len(parts) - 1))])
        elif action == "swap":
            other = draw(st.integers(0, len(parts) - 1))
            parts[pos], parts[other] = parts[other], parts[pos]
        else:
            parts.insert(pos, draw(st.sampled_from(FRAGMENTS)))
    return (" " if by_token else "").join(parts)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(source=mutated_programs())
def test_mutated_programs_fail_only_with_typed_errors(source):
    for compile_ in (lambda: translate(source, rewrite=True),
                     lambda: analyze_source(source, rewrite=True)):
        try:
            compile_()
        except CompilerError:
            pass
    # the CLI folds every failure into its report: exit 0 or 1, JSON out
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.c")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = analyze_main([path, "--json"])
    assert status in (0, 1)
    (report,) = json.loads(out.getvalue())
    assert report["file"] == path

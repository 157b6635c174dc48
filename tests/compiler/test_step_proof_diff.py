"""One proof per accelerated step, read by every consumer.

The rule engine's alias, bounds and race findings, the step's safety
certificate and the split primitive's carried-dependence facts all read
one :func:`~repro.compiler.analysis.alias.prove_step` record, memoized
per step on the compile's :class:`ProgramFacts`. These tests hold every
one of them against the per-step functions that proved each step on
their own (``reference_*`` in :mod:`tests.compiler.helpers`), over the
legacy corpus, the module-level C sources of the compiler tests, the
STAP and SAR presets and the generated programs, and pin that the check
and certify path builds each step's accesses once.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PRESETS, stap_source
from repro.compiler import (AccelCallStep, CompilerError, parse_source,
                            recognize)
from repro.compiler.analysis import (ProgramFacts, analyze_source,
                                     apply_demotions, certify_schedule,
                                     certify_step, check_program,
                                     prove_step)
from repro.compiler.analysis import alias
from repro.compiler.analysis.rules import (_check_dead_buffers,
                                           _check_lifecycle,
                                           _escaped_buffers)
from repro.compiler.diagnostics import (Diagnostic, DiagnosticReport,
                                        Severity)
from repro.compiler.rewrite import split_step
from tests.compiler.helpers import (cdotc_nest_source, chain_source,
                                    corner_turn_source,
                                    reference_certify_step,
                                    reference_check_step_aliasing,
                                    reference_check_step_bounds,
                                    reference_classify_races,
                                    reference_split_step,
                                    saxpy_nest_source)

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE.parents[1] / "examples" / "legacy"


#: an AXPY onto its own buffer at an unbounded offset: every verdict
#: is ``unknown``, so splitting it must fail on the fallback prover
SYMBOLIC_SELF = """
float x[100];
int k;
cblas_saxpy(16, 1.0, &x[k], 1, &x[0], 1);
"""


def _test_module_sources():
    """Every module-level C source string of the other compiler
    tests."""
    out = {}
    for path in sorted(HERE.glob("test_*.py")):
        if path.stem == Path(__file__).stem:
            continue
        module = importlib.import_module(f"tests.compiler.{path.stem}")
        for name, value in vars(module).items():
            if name.isupper() and isinstance(value, str) and ";" in value:
                out[f"{path.stem}.{name}"] = value
    return out


PROGRAMS = {
    **{p.name: p.read_text() for p in sorted(CORPUS_DIR.glob("*.c"))},
    **_test_module_sources(),
    "symbolic_self": SYMBOLIC_SELF,
    **{f"stap_{name}": stap_source(cfg) for name, cfg in PRESETS.items()},
    **{f"sar_{side}": sar_source(SarConfig(side)) for side in (64, 256)},
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

#: the codes the per-step proof decides; together the programs must
#: reach every one of them
PROOF_CODES = {"MEA002", "MEA005", "MEA008", "MEA009", "MEA010",
               "MEA015", "MEA016", "MEA017"}


def _recognized(source):
    try:
        program = parse_source(source)
        return program, recognize(program)
    except CompilerError:
        return None


RECOGNIZED = {name: r for name, r in
              ((name, _recognized(src)) for name, src in PROGRAMS.items())
              if r is not None}


def reference_report(program, schedule, facts):
    """``check_program``'s report with every step proved on its own."""
    report = DiagnosticReport()
    vranges = facts.ranges
    _check_lifecycle(facts, report)
    _check_dead_buffers(facts, report)
    escaped = _escaped_buffers(facts)
    for idx, step in enumerate(schedule.steps):
        if not isinstance(step, AccelCallStep):
            continue
        reference_check_step_aliasing(step, idx, schedule, report,
                                      vranges)
        reference_check_step_bounds(step, idx, schedule, report, vranges)
        if not step.omp:
            continue
        touched = [b for b in dict.fromkeys(step.in_bufs
                                            + step.out_bufs)
                   if b in escaped]
        if touched:
            buf = touched[0]
            path = " -> ".join(escaped[buf])
            report.add(Diagnostic(
                code="MEA011", severity=Severity.ERROR,
                message=f"buffer {buf!r} escapes into plan state "
                        f"inside {path}(); the effect summary cannot "
                        "prove the parallel iterations are isolated",
                loc=step.loc, buffers=tuple(touched), step_index=idx,
                chain=escaped[buf]))
            continue
        report.extend(reference_classify_races(step, idx, schedule.env,
                                               vranges))
    return report.sort()


def _as_dict(cert):
    return None if cert is None else cert.to_dict()


@pytest.mark.parametrize("name", sorted(RECOGNIZED))
def test_findings_and_certificates_match_the_reference(name):
    program, schedule = RECOGNIZED[name]
    facts = ProgramFacts(program, schedule.env)
    report = check_program(program, schedule, facts)
    expected = reference_report(program, schedule, ProgramFacts(
        program, schedule.env))
    assert report.to_dict() == expected.to_dict()

    # the pipeline's certificates, read from the memoized proofs
    lowered, demoted = apply_demotions(schedule, expected)
    certs = certify_schedule(program, lowered, skip=demoted, facts=facts)
    ref = [reference_certify_step(s, i, lowered.env, facts.ranges)
           for i, s in enumerate(lowered.steps)
           if i not in demoted and isinstance(s, AccelCallStep)]
    assert [c.to_dict() for c in certs] \
        == [c.to_dict() for c in ref if c is not None]

    # every step, demoted or not: a failed obligation is None on both
    for idx, step in enumerate(schedule.steps):
        if isinstance(step, AccelCallStep):
            proof = prove_step(step, schedule.env, facts.ranges)
            assert _as_dict(certify_step(proof, idx)) == _as_dict(
                reference_certify_step(step, idx, schedule.env,
                                       facts.ranges))


@pytest.mark.parametrize("name", sorted(RECOGNIZED))
def test_split_verdicts_match_the_reference(name):
    program, schedule = RECOGNIZED[name]
    vranges = ProgramFacts(program, schedule.env).ranges
    for step in schedule.steps:
        if not isinstance(step, AccelCallStep):
            continue
        for parts in (2, 4, 8):
            assert split_step(step, parts, schedule.env, vranges) \
                == reference_split_step(step, parts, schedule.env,
                                        vranges)


def test_programs_reach_every_proved_code():
    codes = set()
    for program, schedule in RECOGNIZED.values():
        report = reference_report(program, schedule,
                                  ProgramFacts(program, schedule.env))
        codes.update(d.code for d in report)
    assert PROOF_CODES <= codes


def test_split_programs_prove_a_tiling():
    applied = 0
    for program, schedule in RECOGNIZED.values():
        for step in schedule.steps:
            if isinstance(step, AccelCallStep):
                verdict, _ = split_step(step, 2, schedule.env)
                applied += verdict.ok
    assert applied


@pytest.mark.parametrize("name", ["stap_small.c", "sar_fns.c",
                                  "dot_reduction.c", "stap_large"])
def test_check_and_certify_build_each_step_once(monkeypatch, name):
    calls = Counter()
    real = alias.step_accesses

    def counted(step, env):
        calls[id(step)] += 1
        return real(step, env)
    monkeypatch.setattr(alias, "step_accesses", counted)
    result = analyze_source(PROGRAMS[name], rewrite=False)
    accelerated = [s for s in result.schedule.steps
                   if isinstance(s, AccelCallStep)]
    assert result.certificates
    assert sorted(calls) == sorted(id(s) for s in accelerated)
    assert set(calls.values()) == {1}


def test_a_new_step_object_is_proved_again():
    program = parse_source(PROGRAMS["saxpy_nest.c"])
    schedule = recognize(program)
    facts = ProgramFacts(program, schedule.env)
    idx, step = next((i, s) for i, s in enumerate(schedule.steps)
                     if isinstance(s, AccelCallStep))
    proof = facts.step_proof(idx, step)
    assert facts.step_proof(idx, step) is proof
    twin = recognize(program).steps[idx]
    assert twin == step and twin is not step
    other = facts.step_proof(idx, twin)
    assert other is not proof and other.step is twin

"""The offload-safety rule engine.

Runs the dataflow and alias analyses over a parsed program and its
recognizer schedule, and emits stable diagnostic codes:

========  ========================================================
MEA001    buffer used before ``malloc`` initialised it
MEA002    in-place alias between fields of an accelerated call
MEA003    buffer used after ``free``
MEA004    double ``free``
MEA005    loop-carried dependence blocks loop compaction
MEA006    FFTW plan executed after ``fftwf_destroy_plan``
MEA007    heap buffer allocated but never consumed (warning)
MEA008    write-write race under ``#pragma omp parallel for``
MEA009    read-write race under ``#pragma omp parallel for``
MEA010    reduction under a parallel loop (ERROR when the update is
          not a recognized reduction; INFO when recognized)
MEA011    effect summary unavailable (escaping buffer) — demote
MEA012    interprocedural lifecycle mismatch (MEA001/003/004/006
          reached through a user-defined function's summary)
MEA015    static out-of-bounds: a footprint provably exceeds its
          buffer's allocation — reject
MEA016    possibly out of bounds under the derived value ranges —
          demote (warning)
MEA017    a symbolic dependence prover gave up; the verdict fell
          back to bounded enumeration or stayed unknown (info)
========  ========================================================

``error`` findings split two ways: alias/dependence/race errors
(MEA002, MEA005, MEA008–MEA011) *demote* the accelerated call back to
the host library — the program still runs, just without the unsound
offload — while lifecycle errors (MEA001/003/004/006 and their
interprocedural form MEA012) and provable out-of-bounds footprints
(MEA015) describe a program that is wrong on any target and therefore
reject it. MEA016 is the sole *warning* that demotes: the program may
be correct, but the offload cannot be proven in-bounds.

Dependence questions are answered by the symbolic prover tower in
:mod:`.deptest` (constant-distance, mixed-radix, value-range bounds,
GCD, Banerjee direction vectors) with bounded enumeration only as a
flagged fallback; MEA002/MEA005 findings carry the prover name, and
every offloaded step earns a :class:`SafetyCertificate` recording the
proofs (:mod:`.certificates`).

The analysis is summary-based: user-defined function calls are never
re-analysed per call site; their precomputed effect summaries
(:mod:`.summaries`) replay into the same worklist solvers, carrying
the call chain for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.analysis.alias import StepProof, inplace_ok
from repro.compiler.analysis.certificates import SafetyCertificate
from repro.compiler.analysis.dataflow import LifecycleFacts, Liveness
from repro.compiler.analysis.events import BufferEvent
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.races import classify_races, fallback_note
from repro.compiler.analysis.ranges import TOP
from repro.compiler.cast import Program
from repro.compiler.diagnostics import (Diagnostic, DiagnosticReport,
                                        Severity)
from repro.compiler.recognizer import AccelCallStep, Schedule

#: Error codes that demote the accelerated call to host execution.
DEMOTE_CODES = frozenset({"MEA002", "MEA005", "MEA008", "MEA009",
                          "MEA010", "MEA011"})
#: Warning codes that demote: the program may be right, but the
#: offload cannot be proven safe under the derived value ranges.
WARN_DEMOTE_CODES = frozenset({"MEA016"})
#: Error codes that reject the program outright (wrong on any target).
REJECT_CODES = frozenset({"MEA001", "MEA003", "MEA004", "MEA006",
                          "MEA012", "MEA015"})


@dataclass
class AnalysisResult:
    """Everything one run of the checked front end produced."""

    program: Program
    schedule: Schedule                 # as recognized (call sites)
    report: DiagnosticReport
    #: the schedule to lower: demoted, certified and, with ``rewrite``,
    #: rewritten; the recognized schedule when the program is rejected
    lowered: Schedule
    demoted: Tuple[int, ...] = ()
    certificates: Tuple[SafetyCertificate, ...] = ()
    #: the rewrite engine's decision log (MEA018/MEA019), empty unless
    #: the analysis ran with ``rewrite=True``
    rewrites: Tuple = ()

    @property
    def ok(self) -> bool:
        return not self.report.has_errors


# -- lifecycle rules (MEA001/003/004/006/012) --------------------------------

def _check_lifecycle(facts: ProgramFacts,
                     report: DiagnosticReport) -> None:
    env = facts.env
    lifecycle = LifecycleFacts(facts)
    seen: Set[Tuple] = set()

    def emit(code: str, message: str, ev: BufferEvent) -> None:
        if ev.chain:
            # the violating effect reaches this statement through a
            # user-defined function's summary: interprocedural mismatch
            path = " -> ".join(ev.chain)
            message = f"{message} (inside {path}())"
            code = "MEA012"
        key = (code, ev.name, ev.loc)
        if key in seen:
            return
        seen.add(key)
        report.add(Diagnostic(code=code, severity=Severity.ERROR,
                              message=message, loc=ev.loc,
                              buffers=(ev.name,), chain=ev.chain))

    def visit(ev: BufferEvent, reaching) -> None:
        if ev.kind in ("read", "write", "ref"):
            info = env.buffers.get(ev.name)
            if info is None or not info.heap:
                return                  # declared arrays are always live
            if ("free", ev.name) in reaching:
                emit("MEA003",
                     f"buffer {ev.name!r} is used after free()", ev)
            elif ("alloc", ev.name) not in reaching:
                emit("MEA001",
                     f"buffer {ev.name!r} is used before malloc() "
                     "initialises it", ev)
        elif ev.kind == "free":
            if ("free", ev.name) in reaching:
                emit("MEA004",
                     f"buffer {ev.name!r} is freed twice", ev)
        elif ev.kind == "plan_use":
            if ("plan_dead", ev.name) in reaching:
                emit("MEA006",
                     f"plan {ev.name!r} is executed after "
                     "fftwf_destroy_plan()", ev)

    lifecycle.walk(visit)


def _check_dead_buffers(facts: ProgramFacts,
                        report: DiagnosticReport) -> None:
    liveness = Liveness(facts)
    for bid, idx, ev in liveness.alloc_sites():
        if not liveness.live_after_alloc(bid, idx, ev.name):
            report.add(Diagnostic(
                code="MEA007", severity=Severity.WARNING,
                message=f"buffer {ev.name!r} is allocated but never "
                        "consumed", loc=ev.loc, buffers=(ev.name,)))


def _escaped_buffers(facts: ProgramFacts) -> Dict[str, Tuple[str, ...]]:
    """Buffers whose address escapes *inside* a user-defined function.

    The caller cannot see the capture locally (a plan created in the
    callee holds the pointer), so accelerated calls on such buffers
    under a parallel loop cannot be proven isolated: the effect
    summary reports the escape and the step demotes (MEA011).
    """
    escaped: Dict[str, Tuple[str, ...]] = {}
    for per_stmt in facts.events.values():
        for ev_list in per_stmt:
            for ev in ev_list:
                if ev.kind == "escape" and ev.chain \
                        and ev.name not in escaped:
                    escaped[ev.name] = ev.chain
    return escaped


# -- alias / dependence rules (MEA002/005/017) --------------------------------

def _check_step_aliasing(proof: StepProof, step_index: int,
                         report: DiagnosticReport) -> None:
    step = proof.step
    seen: Set[Tuple] = set()

    def emit(code: str, severity: Severity, message: str,
             fields: Tuple[str, ...], buffers: Tuple[str, ...],
             prover: str = "") -> None:
        key = (code, step_index, tuple(sorted(fields)))
        if key in seen:
            return
        seen.add(key)
        report.add(Diagnostic(code=code, severity=severity,
                              message=message, loc=step.loc,
                              buffers=buffers, step_index=step_index,
                              prover=prover))

    def note_fallback(verdict, w, other) -> None:
        if verdict.fallback:
            emit("MEA017", Severity.INFO,
                 fallback_note(verdict, w, other),
                 (w.field, other.field), (w.buffer,),
                 prover=verdict.prover)

    for w, other, verdict in proof.same:
        note_fallback(verdict, w, other)
        if inplace_ok(step.accel, verdict):
            continue
        detail = ("aliases" if verdict.relation != "unknown"
                  else "may alias")
        emit("MEA002", Severity.ERROR,
             f"{step.accel} output {w.field} {detail} "
             f"{other.field} on buffer {w.buffer!r} "
             "(in-place operation is not supported by this "
             "accelerator)", (w.field, other.field),
             (w.buffer,), prover=verdict.prover)

    if step.omp:
        # omp-collapsed steps answer to the race detector (MEA008-010)
        # instead of the serial loop-compaction rule below
        return
    for w, other, verdict in proof.cross:
        note_fallback(verdict, w, other)
        if verdict.relation == "disjoint":
            continue
        detail = ("carries a dependence across iterations"
                  if verdict.relation == "overlap"
                  else "cannot be proven iteration-independent")
        fields = (w.field,) if other.field == w.field \
            else (w.field, other.field)
        emit("MEA005", Severity.ERROR,
             f"{step.accel} write to {w.field} on buffer "
             f"{w.buffer!r} {detail}; OpenMP collapse is unsafe",
             fields, (w.buffer,), prover=verdict.prover)


# -- static bounds rules (MEA015/016) -----------------------------------------

def _check_step_bounds(proof: StepProof, step_index: int,
                       report: DiagnosticReport) -> None:
    """Footprint-vs-allocation check for every address field.

    The footprint of a field is ``[min offset, max offset + extent)``
    over the derived variable ranges. An affine attains its interval
    bounds at corners of the iteration box, so when every variable in
    the offset is an exact loop variable a violation is *provable*
    (MEA015: reject — some iteration really touches bytes outside the
    allocation). When the interval involves over-approximated or
    unbounded symbolic ranges the step is only *possibly* out of
    bounds (MEA016: demote with a warning).
    """
    step = proof.step
    for fp in proof.footprints:
        if fp.inside:
            continue
        acc, lo, hi, total = fp.access, fp.lo, fp.hi, fp.total
        if fp.exact and lo is not None and hi is not None:
            report.add(Diagnostic(
                code="MEA015", severity=Severity.ERROR,
                message=f"{step.accel} field {acc.field} touches "
                        f"bytes [{lo}, {hi}] of buffer "
                        f"{acc.buffer!r}, outside its allocated "
                        f"[0, {total}) byte interval",
                loc=step.loc, buffers=(acc.buffer,),
                step_index=step_index, prover="interval-bounds"))
            continue
        unbounded = sorted(
            var for var, coef in acc.offset.coefs.items()
            if coef and not proof.ranges.get(var, TOP).is_bounded)
        why = (f"the range of {', '.join(unbounded)!s} is unbounded"
               if unbounded else "the derived ranges are inexact")
        report.add(Diagnostic(
            code="MEA016", severity=Severity.WARNING,
            message=f"{step.accel} field {acc.field} cannot be "
                    f"proven inside buffer {acc.buffer!r}'s "
                    f"[0, {total}) byte interval ({why}); demoting "
                    "the call to the host",
            loc=step.loc, buffers=(acc.buffer,),
            step_index=step_index, prover="interval-bounds"))


# -- entry points ------------------------------------------------------------

def check_program(program: Program, schedule: Schedule,
                  facts: Optional[ProgramFacts] = None
                  ) -> DiagnosticReport:
    """Run every safety rule; returns the full (sorted) report.

    ``facts`` is the compile's shared analysis bundle; without one the
    check builds its own.
    """
    if facts is None:
        facts = ProgramFacts(program, schedule.env)
    assert facts.program is program and facts.env is schedule.env
    report = DiagnosticReport()
    _check_lifecycle(facts, report)
    _check_dead_buffers(facts, report)
    escaped = _escaped_buffers(facts)
    for idx, step in enumerate(schedule.steps):
        if not isinstance(step, AccelCallStep):
            continue
        proof = facts.step_proof(idx, step)
        _check_step_aliasing(proof, idx, report)
        _check_step_bounds(proof, idx, report)
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
        report.extend(classify_races(proof, idx))
    return report.sort()


def analyze_source(source: str, rewrite: bool = False
                   ) -> AnalysisResult:
    """Parse, recognize, and check a C-subset program.

    With ``rewrite`` the verified rewrite engine additionally runs
    over the certified schedule: its decision log (MEA018 applied /
    MEA019 rejected, each naming its prover or blocking dependence)
    joins the report, and the certificates reflect the rewritten
    steps (fused passes carry the merged proof). This is the front
    end of :func:`repro.compiler.translate.translate`, which then
    rejects or lowers the result.
    """
    from repro.compiler.translate import analyze_program
    return analyze_program(source, rewrite)


def apply_demotions(schedule: Schedule, report: DiagnosticReport
                    ) -> Tuple[Schedule, List[int]]:
    """Demote accel steps flagged by any :data:`DEMOTE_CODES` error
    (alias, serial dependence, race, unavailable summary) or
    :data:`WARN_DEMOTE_CODES` warning (possible out-of-bounds) to
    host calls.

    Returns the (possibly new) schedule and the demoted step indices.
    """
    to_demote: Set[int] = set()
    for diag in report:
        if diag.step_index is None:
            continue
        if diag.code in DEMOTE_CODES \
                and diag.severity is Severity.ERROR:
            to_demote.add(diag.step_index)
        elif diag.code in WARN_DEMOTE_CODES \
                and diag.severity is Severity.WARNING:
            to_demote.add(diag.step_index)
    if not to_demote:
        return schedule, []
    steps = []
    demoted: List[int] = []
    for idx, step in enumerate(schedule.steps):
        if idx in to_demote and isinstance(step, AccelCallStep):
            steps.append(step.demote())
            demoted.append(idx)
        else:
            steps.append(step)
    return Schedule(env=schedule.env, steps=steps), demoted


def rejection_errors(report: DiagnosticReport) -> List[Diagnostic]:
    """The findings that make the program unrunnable on any target."""
    return [d for d in report
            if d.code in REJECT_CODES and d.severity is Severity.ERROR]

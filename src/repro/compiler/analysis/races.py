"""Static OpenMP race detection over accelerated parallel loops.

An accelerated call collapsed out of a ``#pragma omp parallel for``
nest executes its iterations concurrently in the original program.
Offloading it is only faithful when the iterations could not have
raced in the first place, so each such step is classified as:

* **iteration-disjoint** — every written byte interval of one
  iteration is disjoint from every interval another iteration touches
  (proved by the symbolic dependence tower or bounded enumeration in
  :mod:`.deptest`). Offloadable; no finding.
* **recognized reduction** — all iterations accumulate into the
  *same* interval through a recognized serialisable update (AXPY's
  ``y += a*x``; GEMV with ``beta == 1``; the DOT family's ``*_sub``
  result scalar, where every iteration deposits its partial into one
  cell). Offloadable with an INFO-severity MEA010 note: the LOOP
  descriptor serialises iterations on the accelerator, reproducing
  the serial program's final value even though the host OpenMP
  version races benignly on it.
* **racy** — overlapping writes (MEA008) or a write overlapping
  another iteration's read (MEA009), or a shared output whose update
  is not a recognized reduction (MEA010 at ERROR severity). The step
  demotes to the host library, keeping the original semantics.

``unknown`` overlap answers classify as racy: offload must be proven
safe, never assumed. When the verdict needed the enumeration fallback
(or stayed unknown), an INFO-severity MEA017 names the prover that
gave up so silent precision losses are visible in reports.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.accel.layer import CORES
from repro.compiler.analysis.alias import FieldAccess, StepProof
from repro.compiler.analysis.deptest import DepVerdict
from repro.compiler.diagnostics import Diagnostic, Severity
from repro.compiler.recognizer import AccelCallStep


def is_recognized_reduction(step: AccelCallStep) -> bool:
    """Is a shared-interval update of this step's write field a
    reduction the LOOP descriptor can serialise faithfully? Its core
    declares whether the write accumulates."""
    return CORES[step.accel].accumulates(step.proto.zero_params())


def shared_interval(access: FieldAccess,
                    loop_vars: Tuple[str, ...]) -> bool:
    """True when every iteration touches the identical interval."""
    return all(access.offset.coef(v) == 0 for v in loop_vars)


def fallback_note(verdict: DepVerdict, w: FieldAccess,
                  other: FieldAccess) -> str:
    """Message body of an MEA017 prover-fallback finding."""
    pair = (w.field if w.field == other.field
            else f"{w.field} vs {other.field}")
    if verdict.prover == "enumeration":
        return (f"symbolic dependence provers were inconclusive for "
                f"{pair} on buffer {w.buffer!r}; bounded enumeration "
                f"decided {verdict.relation!r}")
    return (f"all dependence provers were inconclusive for {pair} on "
            f"buffer {w.buffer!r} (symbolic ranges unbounded, "
            "enumeration infeasible); assuming a dependence")


def reduction_pair(step: AccelCallStep, w: FieldAccess,
                   other: FieldAccess) -> bool:
    """Do the iterations of an omp-collapsed step deposit written
    field ``w`` (paired with itself) into one shared interval through
    a recognized reduction?"""
    return (w.field == other.field and shared_interval(w, step.loop_vars)
            and is_recognized_reduction(step))


def classify_races(proof: StepProof, step_index: int
                   ) -> List[Diagnostic]:
    """Race findings for one omp-collapsed accelerated step.

    Returns an empty list for iteration-disjoint steps, a single INFO
    MEA010 for a recognized reduction, and ERROR findings (MEA008 /
    MEA009 / MEA010) for everything racy. INFO MEA017 findings ride
    along whenever a verdict needed the enumeration fallback.
    """
    step = proof.step
    findings: List[Diagnostic] = []
    if step.calls <= 1:
        return findings

    def emit(code: str, severity: Severity, message: str,
             buffers: Tuple[str, ...], prover: str = "") -> None:
        findings.append(Diagnostic(
            code=code, severity=severity, message=message,
            loc=step.loc, buffers=buffers, step_index=step_index,
            chain=step.chain, prover=prover))

    # write-vs-write pairs (the field against itself included) first,
    # then writes against pure reads of other fields
    for w, other, verdict in sorted(proof.cross,
                                    key=lambda pair: not pair.other.writes):
        if verdict.fallback:
            emit("MEA017", Severity.INFO,
                 fallback_note(verdict, w, other), (w.buffer,),
                 prover=verdict.prover)
        if verdict.relation == "disjoint":
            continue
        if not other.writes:
            detail = ("overlaps" if verdict.relation == "overlap"
                      else "cannot be proven disjoint from")
            emit("MEA009", Severity.ERROR,
                 f"{step.accel} write to {w.field} {detail} the "
                 f"{other.field} read of another iteration on buffer "
                 f"{w.buffer!r} (read-write race)", (w.buffer,),
                 prover=verdict.prover)
        elif reduction_pair(step, w, other):
            emit("MEA010", Severity.INFO,
                 f"{step.accel} accumulates into the shared "
                 f"interval of buffer {w.buffer!r}: recognized "
                 "reduction; the LOOP descriptor serialises "
                 "iterations, so the offload is safe",
                 (w.buffer,), prover=verdict.prover)
        elif w.field == other.field \
                and shared_interval(w, step.loop_vars):
            emit("MEA010", Severity.ERROR,
                 f"{step.accel} overwrites the shared interval of "
                 f"buffer {w.buffer!r} from every iteration and "
                 "the update is not a recognized reduction; "
                 "parallel iterations race on the final value",
                 (w.buffer,), prover=verdict.prover)
        else:
            detail = ("overlap" if verdict.relation == "overlap"
                      else "cannot be proven disjoint")
            emit("MEA008", Severity.ERROR,
                 f"{step.accel} writes to {w.field} on buffer "
                 f"{w.buffer!r} {detail} across parallel iterations "
                 "(write-write race)", (w.buffer,),
                 prover=verdict.prover)
    return findings

"""Rewrite-safety certificates for offloaded accelerated calls.

Every :class:`AccelCallStep` that survives the rule battery carries a
:class:`SafetyCertificate`: the machine-checked facts that justify
offloading it, each naming the dependence prover that established it.
The facts are exactly what a scheduling/rewrite layer must re-check
before fusing, splitting, or reordering passes:

``in-place-disjoint``
    within one invocation, the written field is disjoint from every
    other field of the same buffer (``in-place-exact`` for the
    transforms whose semantics allow coincident src/dst).
``carried-dependence-free``
    a serially-looped step's write never touches another iteration's
    footprint — loop compaction preserves semantics.
``iteration-disjoint``
    an OpenMP-collapsed step's parallel iterations are provably
    isolated.
``recognized-reduction``
    parallel iterations deposit into one shared interval through a
    reduction the LOOP descriptor serialises faithfully.
``bounds-respected``
    the step's whole footprint provably stays inside the buffer's
    allocated byte interval.

``certify_step`` returns ``None`` when any required fact cannot be
proven — by construction that never happens for a step the rule
engine left offloaded, and the invariant is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.analysis.alias import (INPLACE_EXACT_OK,
                                           cross_iteration,
                                           same_iteration,
                                           step_accesses, step_ranges)
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.ranges import (Interval, ValueRanges,
                                            affine_interval)
from repro.compiler.analysis.races import (is_recognized_reduction,
                                           shared_interval)
from repro.compiler.cast import Program
from repro.compiler.diagnostics import SourceLoc
from repro.compiler.recognizer import AccelCallStep, Schedule
from repro.compiler.semantics import CompileEnv


@dataclass(frozen=True)
class CertFact:
    """One proven safety fact, with the prover that established it."""

    kind: str
    prover: str
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind,
                                  "prover": self.prover}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SafetyCertificate:
    """The complete legality record of one offloaded step."""

    step_index: int
    accel: str
    loc: Optional[SourceLoc]
    facts: Tuple[CertFact, ...]

    def kinds(self) -> Tuple[str, ...]:
        return tuple(f.kind for f in self.facts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "step_index": self.step_index,
            "accel": self.accel,
            "facts": [f.to_dict() for f in self.facts],
        }
        if self.loc is not None:
            out["line"] = self.loc.line
            out["col"] = self.loc.col
        return out


def certify_step(step: AccelCallStep, step_index: int,
                 env: CompileEnv,
                 vranges: Optional[ValueRanges] = None
                 ) -> Optional[SafetyCertificate]:
    """Prove the offload-safety facts for one accelerated step.

    Returns ``None`` when a required fact cannot be established — the
    caller must not offload such a step (the rule engine will have
    demoted or rejected it already).
    """
    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    writes = [a for a in accesses if a.writes]
    facts: List[CertFact] = []

    # within one invocation: the written field vs every other field
    for w in writes:
        for other in accesses:
            if other.field == w.field or other.buffer != w.buffer:
                continue
            verdict = same_iteration(w, other, loop_ranges, invariant)
            pair = f"{w.field} vs {other.field} on {w.buffer!r}"
            if verdict.relation == "disjoint":
                facts.append(CertFact("in-place-disjoint",
                                      verdict.prover, pair))
            elif verdict.relation == "exact" \
                    and step.accel in INPLACE_EXACT_OK:
                facts.append(CertFact("in-place-exact",
                                      verdict.prover, pair))
            else:
                return None

    # across iterations of the collapsed nest
    space = 1
    for t in step.trips:
        space *= t
    if step.looped and space > 1:
        kind = ("iteration-disjoint" if step.omp
                else "carried-dependence-free")
        checked = set()
        for w in writes:
            for other in accesses:
                if other.buffer != w.buffer:
                    continue
                pair_key = (w.buffer,) + tuple(
                    sorted({w.field, other.field}))
                if pair_key in checked:
                    continue
                checked.add(pair_key)
                verdict = cross_iteration(w, other, loop_ranges,
                                          invariant)
                pair = (w.field if other.field == w.field
                        else f"{w.field} vs {other.field}")
                if verdict.relation == "disjoint":
                    facts.append(CertFact(
                        kind, verdict.prover,
                        f"{pair} on {w.buffer!r}"))
                    continue
                if step.omp and w.field == other.field \
                        and shared_interval(w, step.loop_vars) \
                        and is_recognized_reduction(step):
                    facts.append(CertFact(
                        "recognized-reduction", "loop-serialisation",
                        f"{pair} on {w.buffer!r}"))
                    continue
                return None

    # the whole footprint stays inside each buffer's allocation
    ranges = {**invariant, **loop_ranges}
    for acc in accesses:
        info = env.buffers.get(acc.buffer)
        if info is None or info.count <= 0 or acc.extent <= 0:
            continue                # size unknown: no claim made
        span = affine_interval(acc.offset, ranges)
        footprint = Interval(span.lo,
                             None if span.hi is None
                             else span.hi + acc.extent - 1)
        if footprint.is_bounded and footprint.lo is not None \
                and footprint.hi is not None \
                and footprint.lo >= 0 \
                and footprint.hi < info.total_bytes:
            facts.append(CertFact(
                "bounds-respected", "interval-bounds",
                f"{acc.field} within {acc.buffer!r} "
                f"[0, {info.total_bytes})"))

    return SafetyCertificate(step_index=step_index, accel=step.accel,
                             loc=step.loc, facts=tuple(facts))


def certify_schedule(program: Program, schedule: Schedule,
                     skip: Iterable[int] = (),
                     facts: Optional[ProgramFacts] = None
                     ) -> Tuple[SafetyCertificate, ...]:
    """Certificates for every offloaded step of a checked schedule.

    ``skip`` names the step indices the rule engine demoted; those
    execute on the host and carry no certificate. ``facts`` is the
    compile's shared analysis bundle; without one the call builds its
    own.
    """
    if facts is None:
        facts = ProgramFacts(program, schedule.env)
    assert facts.program is program and facts.env is schedule.env
    skipped = set(skip)
    vranges = facts.ranges
    certs: List[SafetyCertificate] = []
    for idx, step in enumerate(schedule.steps):
        if idx in skipped or not isinstance(step, AccelCallStep):
            continue
        cert = certify_step(step, idx, schedule.env, vranges)
        if cert is not None:
            certs.append(cert)
    return tuple(certs)

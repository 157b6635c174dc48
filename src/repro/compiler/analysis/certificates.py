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

The rule engine and ``certify_step`` read one
:class:`~repro.compiler.analysis.alias.StepProof` per step, memoized
on the compile's :class:`ProgramFacts`. ``certify_step`` returns
``None`` exactly when an obligation fails that the rule engine turns,
from the same verdict, into a demoting finding (MEA002, MEA005,
MEA008–MEA010), so it is never ``None`` for a step left offloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compiler.analysis.alias import StepProof, inplace_ok
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.races import reduction_pair
from repro.compiler.cast import Program
from repro.compiler.diagnostics import SourceLoc
from repro.compiler.recognizer import AccelCallStep, Schedule


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


def certify_step(proof: StepProof, step_index: int
                 ) -> Optional[SafetyCertificate]:
    """Turn one step's discharged obligations into facts.

    Returns ``None`` when a required obligation failed: a
    same-iteration pair that is neither disjoint nor an allowed
    in-place transform, or, across the iterations of a multi-iteration
    loop, a pair that is neither disjoint nor a recognized reduction.
    Each is a verdict the rule engine reads from the same proof to
    demote the step.
    """
    step = proof.step
    facts: List[CertFact] = []

    # within one invocation: the written field vs every other field
    for w, other, verdict in proof.same:
        if not inplace_ok(step.accel, verdict):
            return None
        kind = ("in-place-disjoint" if verdict.relation == "disjoint"
                else "in-place-exact")
        facts.append(CertFact(kind, verdict.prover,
                              f"{w.field} vs {other.field} on "
                              f"{w.buffer!r}"))

    # across iterations of the collapsed nest
    if step.calls > 1:
        kind = ("iteration-disjoint" if step.omp
                else "carried-dependence-free")
        for w, other, verdict in proof.cross:
            name = (w.field if other.field == w.field
                    else f"{w.field} vs {other.field}")
            if verdict.relation == "disjoint":
                facts.append(CertFact(kind, verdict.prover,
                                      f"{name} on {w.buffer!r}"))
            elif step.omp and reduction_pair(step, w, other):
                facts.append(CertFact(
                    "recognized-reduction", "loop-serialisation",
                    f"{name} on {w.buffer!r}"))
            else:
                return None

    # the whole footprint stays inside each buffer's allocation (an
    # empty footprint proves nothing)
    for fp in proof.footprints:
        if fp.inside and fp.lo <= fp.hi:
            facts.append(CertFact(
                "bounds-respected", "interval-bounds",
                f"{fp.access.field} within {fp.access.buffer!r} "
                f"[0, {fp.total})"))

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
    certs: List[SafetyCertificate] = []
    for idx, step in enumerate(schedule.steps):
        if idx in skipped or not isinstance(step, AccelCallStep):
            continue
        cert = certify_step(facts.step_proof(idx, step), idx)
        if cert is not None:
            certs.append(cert)
    return tuple(certs)

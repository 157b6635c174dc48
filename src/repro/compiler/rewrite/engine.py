"""The schedule rewrite engine: fuse / reorder / split, all verified.

``rewrite_schedule`` walks a certified schedule (every offloaded step
already carrying its :class:`SafetyCertificate`) and applies three
primitives, each gated by :mod:`.legality`:

*fuse*
    a producer and the consumer of its output become one (possibly
    looped) PASS; the intermediate buffer stays in tile-local memory
    and skips its DRAM round-trip.  The consumer may first be
    *hoisted* past provably-independent intervening steps (the
    reorder primitive feeding fusion).
*reorder*
    an accelerated step swaps with an independent host call so that
    adjacent accelerated work shares one descriptor.
*split*
    a large monolithic AXPY tiles into LOOP iterations, bounding the
    per-invocation working set.

Every applied rewrite merges the discharged obligations into the
step's certificate (prover-named facts) and logs a
:class:`RewriteDecision` (MEA018); every rejected candidate logs the
blocking dependence (MEA019).  The engine never rewrites a step that
carries no certificate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union, cast

from repro.compiler.analysis.certificates import (CertFact,
                                                  SafetyCertificate)
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.ranges import ValueRanges
from repro.compiler.cast import Program
from repro.compiler.recognizer import AccelCallStep, Schedule
from repro.compiler.rewrite.ir import FusedStep, RewriteDecision
from repro.compiler.rewrite.legality import (fuse_legal,
                                             intermediates_dead,
                                             split_step,
                                             steps_independent)
from repro.compiler.semantics import CompileEnv


#: how many intervening steps a consumer may be hoisted past
MAX_HOIST = 4
#: split fires only on calls whose written stream is at least this
SPLIT_MIN_BYTES = 1 << 20
#: LOOP iterations a split call tiles into
SPLIT_PARTS = 8


@dataclass
class RewriteResult:
    """The rewritten schedule plus its complete audit trail."""

    schedule: Schedule
    decisions: Tuple[RewriteDecision, ...]
    certificates: Tuple[SafetyCertificate, ...]


Entry = Union[AccelCallStep, FusedStep]


def _tail(entry: Entry) -> AccelCallStep:
    return entry.steps[-1] if isinstance(entry, FusedStep) else entry


def _members(entry: Entry) -> Tuple[AccelCallStep, ...]:
    return entry.steps if isinstance(entry, FusedStep) else (entry,)


def _merge_certificate(step_index: int, accel: str, entry: Entry,
                       consumer: AccelCallStep,
                       extra: Sequence[CertFact]) -> SafetyCertificate:
    facts: List[CertFact] = []
    for member in _members(entry) + (consumer,):
        cert = member.certificate
        if cert is not None:
            facts.extend(cert.facts)
    facts.extend(extra)
    return SafetyCertificate(step_index=step_index, accel=accel,
                             loc=entry.loc, facts=tuple(facts))


def _extended(step: AccelCallStep,
              extra: Sequence[CertFact]) -> AccelCallStep:
    cert = step.certificate
    assert cert is not None
    new = dataclasses.replace(cert, facts=cert.facts + tuple(extra))
    return dataclasses.replace(step, certificate=new)


def _fuse_pass(steps: List[object], origin: List[int],
               env: CompileEnv, vranges: ValueRanges,
               decisions: List[RewriteDecision]) -> None:
    i = 0
    while i < len(steps):
        entry = steps[i]
        if not isinstance(entry, (AccelCallStep, FusedStep)) \
                or entry.certificate is None:
            i += 1
            continue
        tail = _tail(entry)
        produced = set(tail.out_bufs)

        # nearest consumer of the tail's output, within the hoist
        # window; intervening steps must each be provably independent
        # of the consumer for the hoist to be legal
        j = i + 1
        consumer: Optional[AccelCallStep] = None
        while j < len(steps) and j - i - 1 <= MAX_HOIST:
            cand = steps[j]
            if isinstance(cand, AccelCallStep) \
                    and produced & set(cand.in_bufs):
                consumer = cand
                break
            j += 1
        if consumer is None:
            i += 1
            continue

        pair_steps = (origin[i], origin[j])
        pair_accels = (entry.accel, consumer.accel)
        pair_loc = consumer.loc

        def reject(reason: str, prover: str = "",
                   buffers: Tuple[str, ...] = (),
                   primitive: str = "fuse") -> None:
            decisions.append(RewriteDecision(
                primitive=primitive, applied=False,
                steps=pair_steps, accels=pair_accels,
                prover=prover, reason=reason, buffers=buffers,
                loc=pair_loc))

        if consumer.certificate is None:
            reject("the consumer carries no safety certificate")
            i += 1
            continue

        hoist_facts: List[CertFact] = []
        hoisted_over = steps[i + 1: j]
        blocked = False
        for passed in hoisted_over:
            verdict = steps_independent(consumer, passed, env, vranges)
            if not verdict.ok:
                reject(f"cannot hoist {consumer.accel} past an "
                       f"intervening step: {verdict.reason}",
                       prover=verdict.prover,
                       buffers=verdict.buffers, primitive="reorder")
                blocked = True
                break
            hoist_facts.extend(verdict.facts)
        if blocked:
            i += 1
            continue

        verdict, linked = fuse_legal(tail, consumer, env, vranges)
        if not verdict.ok:
            reject(verdict.reason, prover=verdict.prover,
                   buffers=verdict.buffers)
            i += 1
            continue
        later = hoisted_over + steps[j + 1:]
        deadness = intermediates_dead(later, linked, env)
        if not deadness.ok:
            reject(deadness.reason, prover=deadness.prover,
                   buffers=deadness.buffers)
            i += 1
            continue

        if hoisted_over:
            decisions.append(RewriteDecision(
                primitive="reorder", applied=True,
                steps=(origin[j],) + tuple(
                    origin[i + 1 + k]
                    for k in range(len(hoisted_over))),
                accels=(consumer.accel,),
                prover=(hoist_facts[0].prover if hoist_facts
                        else "alias-partition"),
                detail=f"hoisted past {len(hoisted_over)} "
                       "independent step(s) to reach its producer",
                loc=consumer.loc))

        members = _members(entry) + (consumer,)
        inter = (entry.intermediates if isinstance(entry, FusedStep)
                 else ()) + linked
        fused = FusedStep(steps=members, intermediates=inter)
        extra = tuple(hoist_facts) + verdict.facts + deadness.facts
        cert = _merge_certificate(origin[i], fused.accel, entry,
                                  consumer, extra)
        fused = dataclasses.replace(fused, certificate=cert)
        decisions.append(RewriteDecision(
            primitive="fuse", applied=True,
            steps=(origin[i], origin[j]),
            accels=tuple(s.accel for s in members),
            prover=verdict.prover,
            detail=(f"{'+'.join(s.accel for s in members)}"
                    + (f" over {fused.iterations} iterations"
                       if fused.looped else "")
                    + f"; {', '.join(repr(b) for b in linked)} "
                      "stays in tile-local memory"),
            buffers=linked, loc=entry.loc))
        del steps[j], origin[j]
        steps[i] = fused
        # keep i: the fused step may feed yet another consumer


def _group_pass(steps: List[object], origin: List[int],
                env: CompileEnv, vranges: ValueRanges,
                decisions: List[RewriteDecision]) -> None:
    """Swap an accelerated step before an independent host call when
    that makes it adjacent to other accelerated work (one descriptor
    instead of two)."""
    i = 0
    while i + 2 < len(steps):
        left = steps[i]
        mid = steps[i + 1]
        right = steps[i + 2]
        if (not isinstance(left, (AccelCallStep, FusedStep))
                or left.certificate is None or left.looped
                or isinstance(mid, (AccelCallStep, FusedStep))):
            i += 1
            continue
        if (not isinstance(right, AccelCallStep) or right.looped
                or right.certificate is None):
            i += 1
            continue
        verdict = steps_independent(right, mid, env, vranges)
        if not verdict.ok:
            decisions.append(RewriteDecision(
                primitive="reorder", applied=False,
                steps=(origin[i + 2], origin[i + 1]),
                accels=(right.accel,), prover=verdict.prover,
                reason=verdict.reason, buffers=verdict.buffers,
                loc=right.loc))
            i += 1
            continue
        decisions.append(RewriteDecision(
            primitive="reorder", applied=True,
            steps=(origin[i + 2], origin[i + 1]),
            accels=(right.accel,), prover=verdict.prover,
            detail="swapped before an independent host call to share "
                   "a descriptor with the preceding pass",
            loc=right.loc))
        moved = _extended(right, verdict.facts)
        steps[i + 1], steps[i + 2] = moved, mid
        origin[i + 1], origin[i + 2] = origin[i + 2], origin[i + 1]
        i += 1


def _split_pass(steps: List[object], origin: List[int],
                env: CompileEnv, vranges: ValueRanges,
                decisions: List[RewriteDecision]) -> None:
    for i, entry in enumerate(steps):
        if not isinstance(entry, AccelCallStep):
            continue
        cert = entry.certificate
        if cert is None or entry.accel != "AXPY" or entry.looped:
            continue
        n = cast(int, entry.proto.scalars["n"])
        buf, _ = entry.proto.addrs["y_pa"]
        if n * env.buffers[buf].elem_size < SPLIT_MIN_BYTES:
            continue
        verdict, tiled = split_step(entry, SPLIT_PARTS, env, vranges)
        if not verdict.ok or tiled is None:
            decisions.append(RewriteDecision(
                primitive="split", applied=False,
                steps=(origin[i],), accels=(entry.accel,),
                prover=verdict.prover, reason=verdict.reason,
                buffers=verdict.buffers, loc=entry.loc))
            continue
        new_cert = dataclasses.replace(
            cert, facts=cert.facts + verdict.facts)
        steps[i] = dataclasses.replace(tiled, certificate=new_cert)
        decisions.append(RewriteDecision(
            primitive="split", applied=True,
            steps=(origin[i],), accels=(entry.accel,),
            prover=verdict.prover,
            detail=f"n={n} tiled into {SPLIT_PARTS} LOOP "
                   "iterations",
            buffers=(buf,), loc=entry.loc))


def rewrite_schedule(program: Program, schedule: Schedule,
                     facts: Optional[ProgramFacts] = None
                     ) -> RewriteResult:
    """Rewrite a certified schedule; every change proven and logged.

    ``schedule`` must carry certificates on its offloaded steps (the
    schedule :func:`repro.compiler.translate.analyze_program` builds
    for ``translate`` and ``analyze_source``); steps without one are
    never rewritten. ``facts`` is the compile's shared analysis
    bundle; without one the call builds its own.
    """
    if facts is None:
        facts = ProgramFacts(program, schedule.env)
    assert facts.program is program and facts.env is schedule.env
    vranges = facts.ranges
    steps: List[object] = list(schedule.steps)
    origin = list(range(len(steps)))
    decisions: List[RewriteDecision] = []

    _fuse_pass(steps, origin, schedule.env, vranges, decisions)
    _group_pass(steps, origin, schedule.env, vranges, decisions)
    _split_pass(steps, origin, schedule.env, vranges, decisions)

    certificates = tuple(
        s.certificate for s in steps
        if isinstance(s, (AccelCallStep, FusedStep))
        and s.certificate is not None)
    return RewriteResult(
        schedule=Schedule(env=schedule.env, steps=steps),
        decisions=tuple(decisions), certificates=certificates)

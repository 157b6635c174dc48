"""The legality checker gating every schedule rewrite.

Each primitive of the rewrite engine discharges its obligations here,
through the symbolic dependence tester (:mod:`..analysis.deptest`) and
the alias/footprint machinery (:mod:`..analysis.alias`); nothing is
rewritten on syntax alone.  The obligations per primitive:

*reorder* (swap two steps)
    every (write, any) field pair on a shared buffer is proven
    disjoint — steps touching no common buffer are independent by
    alias partitioning.  Host calls without an address model block the
    swap conservatively.

*fuse* (producer ``a`` -> consumer ``b`` into one PASS)
    1. identical loop shapes (``a.trips == b.trips``);
    2. *linkage exactness* — every buffer the consumer reads is the
       producer's written buffer, and per iteration the consumer reads
       exactly the bytes the producer wrote (so the tile-local chain
       carries the complete operand and skipping the DRAM round-trip
       is value-preserving **and** the pricing model's skipped
       streams are exactly the elided traffic);
    3. *fused-interleaving safety* — for looped fusion the execution
       order changes from ``a_0..a_{n-1}; b_0..b_{n-1}`` to
       ``a_0 b_0 .. a_{n-1} b_{n-1}``: every producer-write vs
       consumer-field pair on a shared buffer must be disjoint across
       *different* iterations (the same-iteration pair keeps its
       original order and needs no new proof);
    4. *intermediate deadness* — no later step may read the linked
       buffer: its DRAM copy is stale after fusion (checked at the
       schedule level, prover ``schedule-liveness``).

*split* (tile one large call across LOOP iterations)
    the partition must be exact (``n % parts == 0``) and the tiled
    step's own carried-dependence freedom is re-proven like any looped
    step.

Every discharged obligation becomes a prover-named
:class:`~repro.compiler.analysis.certificates.CertFact` so the fused
step's :class:`SafetyCertificate` records the complete rewrite proof.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, cast

from repro.compiler.affine import Affine, AffineError
from repro.compiler.analysis.alias import (cross_iteration_verdict,
                                           prove_step,
                                           same_iteration_verdict,
                                           step_accesses, step_ranges)
from repro.compiler.analysis.certificates import CertFact
from repro.compiler.analysis.ranges import ValueRanges
from repro.compiler.cast import Ident
from repro.compiler.recognizer import (AccelCallStep, AllocStep, FreeStep,
                                       HostCallStep, PlanDestroyStep)
from repro.compiler.rewrite.ir import FusedStep
from repro.compiler.semantics import CompileEnv, SemanticError

#: Prover name for independence established by disjoint buffer sets.
ALIAS_PARTITION = "alias-partition"
#: Prover name for the schedule-level liveness scan.
SCHEDULE_LIVENESS = "schedule-liveness"


@dataclass(frozen=True)
class LegalityVerdict:
    """Outcome of one legality query: proof facts or a blocking reason."""

    ok: bool
    prover: str = ""
    facts: Tuple[CertFact, ...] = ()
    reason: str = ""
    buffers: Tuple[str, ...] = ()


def _renamed(offset: Affine, mapping: Dict[str, str]) -> Affine:
    """``offset`` with loop variables substituted per ``mapping``."""
    return Affine(const=offset.const,
                  coefs={mapping.get(v, v): c
                         for v, c in offset.coefs.items() if c})


def _fresh_mapping(names: Tuple[str, ...],
                   taken: Set[str]) -> Dict[str, str]:
    """A collision-free renaming of ``names`` away from ``taken``."""
    mapping: Dict[str, str] = {}
    for name in names:
        fresh = name
        while fresh in taken or fresh in mapping.values():
            fresh += "'"
        mapping[name] = fresh
    return mapping


def _positional_mapping(src: AccelCallStep,
                        dst: AccelCallStep) -> Dict[str, str]:
    """Map ``src``'s loop variables onto ``dst``'s, position by
    position (callers guarantee equal trip tuples)."""
    return dict(zip(src.loop_vars, dst.loop_vars))


def step_buffers(step: object, env: CompileEnv) -> Optional[Set[str]]:
    """Buffer names a step may touch, ``None`` when unknowable.

    Accelerated (and demoted-accelerated) steps have an exact address
    model; native host calls fall back to resolving each pointer-like
    argument, plus the buffers of any FFTW plan argument.  A host call
    with an argument the environment cannot resolve returns the
    buffers it *could* resolve — safe for alias partitioning because
    the recognizer only accepts whole-program sources whose pointers
    all root in declared or malloc'd buffers.
    """
    if isinstance(step, (AccelCallStep, FusedStep)):
        return set(step.in_bufs) | set(step.out_bufs)
    if isinstance(step, HostCallStep):
        if step.demoted and step.proto is not None:
            return {buf for buf, _ in step.proto.addrs.values()}
        names: Set[str] = set()
        for arg in step.args:
            if isinstance(arg, Ident) and arg.name in env.plans:
                plan = env.plans[arg.name]
                names.add(plan.src)
                names.add(plan.dst)
                continue
            try:
                buf, _ = env.buffer_address(arg)
            except (SemanticError, AffineError):
                continue
            names.add(buf)
        return names
    if isinstance(step, (AllocStep, FreeStep)):
        return {step.buffer}
    if isinstance(step, PlanDestroyStep):
        return set()
    return None


def steps_independent(a: AccelCallStep, b: object, env: CompileEnv,
                      vranges: Optional[ValueRanges] = None
                      ) -> LegalityVerdict:
    """Can ``a`` and ``b`` exchange places in the schedule?

    Independence is symmetric: both orders execute the same reads and
    writes on provably disjoint bytes (or on no common buffer at all).
    """
    bufs_a = step_buffers(a, env)
    bufs_b = step_buffers(b, env)
    if bufs_a is None or bufs_b is None:
        return LegalityVerdict(
            ok=False, reason="a step has no buffer model")
    shared = sorted(bufs_a & bufs_b)
    if not shared:
        return LegalityVerdict(
            ok=True, prover=ALIAS_PARTITION,
            facts=(CertFact("reorder-independent", ALIAS_PARTITION,
                            "no shared buffer"),))
    if isinstance(b, FusedStep):
        facts: List[CertFact] = []
        prover = ALIAS_PARTITION
        for member in b.steps:
            verdict = steps_independent(a, member, env, vranges)
            if not verdict.ok:
                return verdict
            facts.extend(verdict.facts)
            prover = verdict.prover
        return LegalityVerdict(ok=True, prover=prover,
                               facts=tuple(facts))
    if not isinstance(b, AccelCallStep):
        return LegalityVerdict(
            ok=False, buffers=tuple(shared),
            reason=f"shared buffer {shared[0]!r} with a step that "
                   "has no byte-footprint model")

    acc_a = step_accesses(a, env)
    acc_b = step_accesses(b, env)
    ranges_a_loop, inv_a = step_ranges(a, vranges)
    ranges_b_loop, inv_b = step_ranges(b, vranges)
    # alpha-rename b's loop variables away from a's: the two steps
    # iterate independently, so a shared variable name must not be
    # unified (that would compare only the diagonal of the iteration
    # product and could "prove" disjointness that does not hold).
    taken = set(ranges_a_loop) | set(inv_a) | set(inv_b)
    renaming = _fresh_mapping(b.loop_vars, taken)
    ranges = {**inv_a, **inv_b, **ranges_a_loop}
    ranges.update({renaming[v]: r
                   for v, r in ranges_b_loop.items()})

    facts = []
    prover = ALIAS_PARTITION
    for fa in acc_a:
        for fb in acc_b:
            if fa.buffer != fb.buffer:
                continue
            if not (fa.writes or fb.writes):
                continue            # read-read pairs commute freely
            verdict = same_iteration_verdict(
                fa.offset, fa.extent,
                _renamed(fb.offset, renaming), fb.extent, ranges)
            pair = (f"{a.accel} {fa.field} vs {b.accel} {fb.field} "
                    f"on {fa.buffer!r}")
            if verdict.relation != "disjoint":
                return LegalityVerdict(
                    ok=False, prover=verdict.prover,
                    buffers=(fa.buffer,),
                    reason=f"dependence {pair} "
                           f"({verdict.relation})")
            facts.append(CertFact("reorder-independent",
                                  verdict.prover, pair))
            prover = verdict.prover
    return LegalityVerdict(ok=True, prover=prover, facts=tuple(facts))


def fuse_legal(producer: AccelCallStep, consumer: AccelCallStep,
               env: CompileEnv,
               vranges: Optional[ValueRanges] = None
               ) -> Tuple[LegalityVerdict, Tuple[str, ...]]:
    """Obligations 1-3 of fusion (deadness is the engine's scan).

    Returns the verdict and the linked intermediate buffers.
    """
    if producer.trips != consumer.trips:
        return LegalityVerdict(
            ok=False,
            reason=f"loop shapes differ ({producer.accel} "
                   f"trips={producer.trips}, {consumer.accel} "
                   f"trips={consumer.trips})"), ()
    if producer.omp or consumer.omp:
        return LegalityVerdict(
            ok=False, reason="OpenMP-collapsed steps keep their own "
                             "descriptor"), ()

    acc_p = step_accesses(producer, env)
    acc_c = step_accesses(consumer, env)
    loop_ranges, inv_p = step_ranges(producer, vranges)
    _, inv_c = step_ranges(consumer, vranges)
    invariant = {**inv_p, **inv_c}
    ranges = {**invariant, **loop_ranges}
    onto_producer = _positional_mapping(consumer, producer)

    writes_p = {a.buffer: a for a in acc_p if a.writes}
    facts: List[CertFact] = []

    # obligation 3 first (it names the sharpest failure): fusing a
    # looped pair interleaves the iterations (a_0 b_0 .. instead of
    # a_0..a_{n-1} b_0..); only *cross*-iteration producer/consumer
    # pairs change relative order, so each such pair with a write
    # must be proven disjoint.
    if producer.looped and producer.calls > 1:
        for fp in acc_p:
            for fc in acc_c:
                if fp.buffer != fc.buffer:
                    continue
                if not (fp.writes or fc.writes):
                    continue
                verdict = cross_iteration_verdict(
                    fp.offset, fp.extent,
                    _renamed(fc.offset, onto_producer), fc.extent,
                    loop_ranges, invariant)
                pair = (f"{producer.accel} {fp.field} vs "
                        f"{consumer.accel} {fc.field} on "
                        f"{fp.buffer!r}")
                if verdict.relation != "disjoint":
                    return LegalityVerdict(
                        ok=False, prover=verdict.prover,
                        buffers=(fp.buffer,),
                        reason="blocking dependence between fused "
                               f"iterations: {pair} "
                               f"({verdict.relation})"), ()
                facts.append(CertFact(
                    "fuse-cross-iteration-disjoint", verdict.prover,
                    pair))

    # obligation 2: every consumer read is the producer's exact
    # per-iteration output — the datapath chain carries the complete
    # operand, so eliding the DRAM round-trip is value-preserving and
    # the pricing model's skipped streams equal the elided traffic.
    linked: List[str] = []
    for rc in acc_c:
        if not rc.reads:
            continue
        w = writes_p.get(rc.buffer)
        if w is None:
            return LegalityVerdict(
                ok=False, buffers=(rc.buffer,),
                reason=f"{consumer.accel} input {rc.field} on "
                       f"{rc.buffer!r} is not produced by "
                       f"{producer.accel}; its DRAM read cannot be "
                       "elided"), ()
        delta = w.offset.sub(_renamed(rc.offset, onto_producer))
        if not delta.is_constant or delta.const != 0 \
                or w.extent != rc.extent:
            return LegalityVerdict(
                ok=False, prover="constant-distance",
                buffers=(rc.buffer,),
                reason=f"{consumer.accel} input {rc.field} on "
                       f"{rc.buffer!r} is not {producer.accel}'s "
                       "exact per-iteration output (offset distance "
                       f"{delta.const if delta.is_constant else 'symbolic'}, "
                       f"extents {w.extent} vs {rc.extent})"), ()
        facts.append(CertFact(
            "fuse-linkage-exact", "constant-distance",
            f"{producer.accel} {w.field} -> {consumer.accel} "
            f"{rc.field} on {rc.buffer!r}, {w.extent} bytes/iter"))
        if rc.buffer not in linked:
            linked.append(rc.buffer)

    # the consumer's write must not clobber a producer operand within
    # the (order-preserved) shared iteration either
    for wc in (a for a in acc_c if a.writes):
        for fp in acc_p:
            if fp.buffer != wc.buffer or not fp.reads:
                continue
            verdict = same_iteration_verdict(
                fp.offset, fp.extent,
                _renamed(wc.offset, onto_producer), wc.extent,
                ranges)
            pair = (f"{consumer.accel} {wc.field} vs "
                    f"{producer.accel} {fp.field} on {wc.buffer!r}")
            if verdict.relation != "disjoint":
                return LegalityVerdict(
                    ok=False, prover=verdict.prover,
                    buffers=(wc.buffer,),
                    reason=f"consumer write aliases a producer "
                           f"operand: {pair} ({verdict.relation})"), ()
            facts.append(CertFact("fuse-operand-disjoint",
                                  verdict.prover, pair))

    prover = next((f.prover for f in facts
                   if f.kind == "fuse-cross-iteration-disjoint"),
                  "constant-distance")
    return LegalityVerdict(ok=True, prover=prover,
                           facts=tuple(facts)), tuple(linked)


def intermediates_dead(later_steps: List[object],
                       buffers: Tuple[str, ...],
                       env: CompileEnv) -> LegalityVerdict:
    """No step after the consumer may touch a fused-away buffer.

    After fusion the intermediate's DRAM copy is never written, so any
    later read would observe stale bytes.  ``free``/plan teardown is
    not a use; an unresolvable step blocks conservatively.
    """
    targets = set(buffers)
    for pos, step in enumerate(later_steps):
        if isinstance(step, (FreeStep, PlanDestroyStep)):
            continue
        touched = step_buffers(step, env)
        if touched is None:
            return LegalityVerdict(
                ok=False, buffers=buffers,
                reason="a later step has no buffer model; cannot "
                       "prove the intermediate dead")
        hit = sorted(targets & touched)
        if hit:
            return LegalityVerdict(
                ok=False, buffers=tuple(hit),
                reason=f"intermediate {hit[0]!r} is used again "
                       f"{pos + 1} step(s) after the consumer; its "
                       "DRAM round-trip cannot be elided")
    facts = tuple(CertFact("fuse-intermediate-dead", SCHEDULE_LIVENESS,
                           f"{b!r} has no use after the consumer")
                  for b in buffers)
    return LegalityVerdict(ok=True, prover=SCHEDULE_LIVENESS,
                           facts=facts)


def split_step(step: AccelCallStep, parts: int, env: CompileEnv,
               vranges: Optional[ValueRanges] = None
               ) -> Tuple[LegalityVerdict, Optional[AccelCallStep]]:
    """Tile a non-looped AXPY into ``parts`` LOOP iterations.

    The partition must be exact; the tiled step then re-proves its
    carried-dependence freedom like any looped step (its
    cross-iteration verdicts from :func:`prove_step`), which makes the
    rewrite's certificate self-contained.
    """
    if step.accel != "AXPY":
        return LegalityVerdict(
            ok=False,
            reason=f"split is defined for elementwise AXPY, not "
                   f"{step.accel}"), None
    if step.looped:
        return LegalityVerdict(
            ok=False, reason="step is already loop-compacted"), None
    n = cast(int, step.proto.scalars["n"])
    if parts < 2 or n % parts != 0:
        return LegalityVerdict(
            ok=False, prover="constant-distance",
            reason=f"n={n} does not partition exactly into "
                   f"{parts} tiles"), None
    chunk = n // parts
    var = "__tile"
    while any(var in off.coefs
              for _, off in step.proto.addrs.values()):
        var += "_"
    addrs: Dict[str, Tuple[str, Affine]] = {}
    for fld, (buf, off) in step.proto.addrs.items():
        stride = chunk * env.buffers[buf].elem_size
        addrs[fld] = (buf, off.add(Affine(coefs={var: stride})))
    proto = dataclasses.replace(
        step.proto, scalars={**step.proto.scalars, "n": chunk},
        addrs=addrs)
    tiled = dataclasses.replace(step, proto=proto, trips=(parts,),
                                loop_vars=(var,))
    facts: List[CertFact] = [CertFact(
        "split-exact-partition", "constant-distance",
        f"n={n} into {parts} tiles of {chunk}")]

    for w, other, verdict in prove_step(tiled, env, vranges).cross:
        if verdict.relation != "disjoint":
            return LegalityVerdict(
                ok=False, prover=verdict.prover,
                buffers=(w.buffer,),
                reason=f"tiled {w.field} carries a dependence "
                       f"across tiles ({verdict.relation})"), None
        facts.append(CertFact(
            "carried-dependence-free", verdict.prover,
            f"{w.field} vs {other.field} on {w.buffer!r} "
            "across tiles"))
    return LegalityVerdict(ok=True, prover=facts[-1].prover,
                           facts=tuple(facts)), tiled

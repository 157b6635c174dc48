"""Alias and overlap analysis over accelerated-call address fields.

Every accelerated call carries a :class:`ParamsProto` whose address
fields are affine byte offsets in the enclosing loop variables. This
module turns each field into a byte *interval* ``[offset, offset +
extent)`` and answers two questions:

* within one invocation, do a written field and another field of the
  same buffer overlap (in-place aliasing, MEA002)?
* across two different iterations of the collapsed loop nest, can a
  written interval touch an interval of the same buffer (loop-carried
  dependence, MEA005)?

The actual proving lives in :mod:`repro.compiler.analysis.deptest`:
symbolic tests (constant distance, mixed-radix, value-range bounds,
GCD lattices, Banerjee direction vectors) run first and bounded
enumeration is only a flagged fallback. This module supplies the
footprints (field -> buffer, affine offset, byte extent) and the
per-step variable ranges the tester consumes. Which fields a call
reads and writes, and how many bytes each covers, come from the
accelerator core's one operand declaration
(:meth:`~repro.accel.base.AcceleratorCore.operands`).

:func:`prove_step` asks every such question of one step once, together
with each field's footprint against its buffer's allocation, and
records the answers in a :class:`StepProof`. The rule engine's
findings and the step's safety certificate both read that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.accel.layer import CORES
from repro.compiler.affine import Affine
from repro.compiler.analysis.deptest import (DepVerdict,
                                             cross_iteration_verdict,
                                             same_iteration_verdict)
from repro.compiler.analysis.ranges import (TOP, Interval, ValueRanges,
                                            affine_interval)
from repro.compiler.recognizer import AccelCallStep
from repro.compiler.semantics import CompileEnv


@dataclass(frozen=True)
class FieldAccess:
    """One address field of an accelerated call, as a byte interval."""

    field: str
    buffer: str
    offset: Affine               # byte offset in loop variables
    extent: int                  # bytes touched per invocation
    writes: bool
    reads: bool


def step_accesses(step, env: CompileEnv) -> List[FieldAccess]:
    """The address fields of an AccelCallStep as FieldAccess records:
    roles and extents as the step's core declares them, offsets from
    the step's parameter prototype."""
    operands = CORES[step.accel].operands(step.proto.zero_params())
    return [FieldAccess(field=fld, buffer=buf, offset=offset,
                        extent=operands[fld].size,
                        writes=operands[fld].writes,
                        reads=operands[fld].reads)
            for fld, (buf, offset) in step.proto.addrs.items()]


def step_ranges(step, vranges: Optional[ValueRanges] = None
                ) -> Tuple[Dict[str, Interval], Dict[str, Interval]]:
    """(loop ranges, invariant ranges) for one accelerated step.

    Loop variables of the collapsed nest get their exact iteration box
    ``[0, trips-1]``; every other symbol appearing in an address
    expression is iteration-invariant and takes its CFG-derived global
    range (unbounded when no :class:`ValueRanges` is supplied or the
    dataflow could not bound it).
    """
    loop_ranges: Dict[str, Interval] = {
        v: Interval.bounded(0, t - 1)
        for v, t in zip(step.loop_vars, step.trips)}
    invariant: Dict[str, Interval] = {}
    for _, (_, offset) in step.proto.addrs.items():
        for var, coef in offset.coefs.items():
            if coef and var not in loop_ranges \
                    and var not in invariant:
                invariant[var] = (vranges.global_range(var)
                                  if vranges is not None else TOP)
    return loop_ranges, invariant


# -- the per-step proof --------------------------------------------------------

class PairProof(NamedTuple):
    """A written field against another field of the same buffer."""

    write: FieldAccess
    other: FieldAccess
    verdict: DepVerdict


@dataclass(frozen=True)
class Footprint:
    """A field's bytes ``[lo, hi]`` over the step's ranges (``None``
    where unbounded), against its buffer's ``total`` allocated bytes.

    ``exact`` holds when every variable of the offset is a loop
    variable: the bounds are then attained at corners of the iteration
    box, so a footprint outside the allocation is provable.
    """

    access: FieldAccess
    lo: Optional[int]
    hi: Optional[int]
    total: int
    exact: bool

    @property
    def inside(self) -> bool:
        return self.lo is not None and self.hi is not None \
            and self.lo >= 0 and self.hi < self.total


@dataclass(frozen=True)
class StepProof:
    """Every dependence and bounds verdict of one accelerated step.

    ``same`` holds, for every written field, its verdict within one
    invocation against each other field of its buffer; ``cross`` (only
    for a looped step) each unordered (written, other) pair on a shared
    buffer across distinct iterations, the field against itself
    included; ``footprints`` one entry per field whose allocation size
    is known. All in field order.
    """

    step: AccelCallStep
    ranges: Dict[str, Interval]  # invariant and loop ranges together
    same: Tuple[PairProof, ...]
    cross: Tuple[PairProof, ...]
    footprints: Tuple[Footprint, ...]


def inplace_ok(accel: str, verdict: DepVerdict) -> bool:
    """Does a same-iteration verdict allow the offload: disjoint, or
    exactly coincident under an in-place transform?"""
    return verdict.relation == "disjoint" or (
        verdict.relation == "exact" and CORES[accel].inplace_exact)


def prove_step(step: AccelCallStep, env: CompileEnv,
               vranges: Optional[ValueRanges] = None) -> StepProof:
    """Build one step's accesses and ranges once and answer every
    same-iteration, cross-iteration and bounds question about them."""
    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    ranges = {**invariant, **loop_ranges}
    writes = [a for a in accesses if a.writes]
    same = tuple(
        PairProof(w, other, same_iteration_verdict(
            w.offset, w.extent, other.offset, other.extent, ranges))
        for w in writes for other in accesses
        if other.field != w.field and other.buffer == w.buffer)
    cross: List[PairProof] = []
    if step.looped:
        checked = set()
        for w in writes:
            for other in accesses:
                key = (w.buffer,) + tuple(sorted({w.field, other.field}))
                if other.buffer != w.buffer or key in checked:
                    continue
                checked.add(key)
                cross.append(PairProof(w, other, cross_iteration_verdict(
                    w.offset, w.extent, other.offset, other.extent,
                    loop_ranges, invariant)))
    footprints = []
    for acc in accesses:
        info = env.buffers.get(acc.buffer)
        if info is None or info.count <= 0 or acc.extent <= 0:
            continue                # allocation size unknown
        span = affine_interval(acc.offset, ranges)
        footprints.append(Footprint(
            access=acc, lo=span.lo,
            hi=None if span.hi is None else span.hi + acc.extent - 1,
            total=info.total_bytes,
            exact=all(not coef or var in loop_ranges
                      for var, coef in acc.offset.coefs.items())))
    return StepProof(step=step, ranges=ranges, same=same,
                     cross=tuple(cross), footprints=tuple(footprints))

"""Admission batching: coalescing compatible small calls.

Small AXPY/DOT calls are invocation-dominated — the wbinvd flush,
descriptor store and doorbell cost as much as the pass itself (the
paper's Fig 12 motivation for descriptor-level batching). The serving
runtime therefore coalesces *adjacent* queued calls of one tenant and
one op into a single multi-PASS descriptor (printed here as TDL;
:func:`coalesce` builds the program tree directly)::

    PASS { COMP AXPY b0.para }
    PASS { COMP AXPY b1.para }
    ...

paying one invocation for the whole batch. One PASS per member — never
a LOOP — because the configuration unit models every pass
independently: each member's pass cost is bit-identical to the cost of
running it as its own descriptor, so the ``accelerator`` ledger totals
of a batched run and an unbatched run are *exactly* equal (a LOOP
would aggregate the members into one long stream and change the memory
model — a different, not-equivalent program). Functional effects are
likewise identical: passes execute in member order against the same
operand buffers.

Only the fixed per-descriptor costs differ, which is the whole point:
the batch pays one invocation overhead and one fetch instead of one
per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.descriptor import OPCODES
from repro.core.runtime import AccPlan
from repro.core.tdl import Comp, ParamStore, Pass, TdlProgram
from repro.serving.qos import check_positive_int


@dataclass(frozen=True)
class BatchPolicy:
    """Which calls may coalesce, and how far.

    Attributes:
        ops: op names eligible for batching (the invocation-dominated
            BLAS-1 pair by default).
        max_batch: most members one coalesced descriptor may carry.
        max_bytes: "small call" threshold — a call whose working set
            (input + output bytes) exceeds it is never batched; big
            calls amortize their own invocation and would only delay
            their co-members.
    """

    ops: Tuple[str, ...] = ("AXPY", "DOT")
    max_batch: int = 8
    max_bytes: int = 32 << 20

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("ops must name at least one batchable op")
        unknown = [op for op in self.ops if op not in OPCODES]
        if unknown:
            raise ValueError(f"ops {unknown} are not accelerator ops; "
                             f"expected names from {sorted(OPCODES)}")
        check_positive_int("max_batch", self.max_batch)
        check_positive_int("max_bytes", self.max_bytes)

    def batchable(self, op: str, working_set_bytes: int) -> bool:
        """May a call of ``op`` with this working set join a batch?"""
        return op in self.ops and working_set_bytes <= self.max_bytes


def call_sizes(layer, op: str, params: object) -> Tuple[int, int]:
    """(input bytes, output bytes) of one call — the Listing 2 buffer
    sizes that size the coherence flush at execute time."""
    streams = layer.accelerator(op).streams(params)
    return (sum(s.total_bytes for s in streams if not s.is_write),
            sum(s.total_bytes for s in streams if s.is_write))


def coalesce(system, members: Sequence[Tuple[str, object, int, int]]
             ) -> AccPlan:
    """Lower ``members`` — ``(op, params, in_bytes, out_bytes)``, the
    sizes as :func:`call_sizes` gives them — into one coalesced
    descriptor, one PASS per member, in member order.

    The program tree is built directly, never printed and parsed back,
    and the sizes come from the caller (the serving runtime computes
    them once, at admission). A single-member "batch" is exactly the
    solo descriptor for that call (same instruction stream, same
    parameter bytes); the caller owns the returned plan and must
    ``acc_destroy`` it after use.
    """
    if not members:
        raise ValueError("cannot coalesce an empty batch")
    store = ParamStore()
    passes = []
    in_size = 0
    out_size = 0
    for i, (op, params, r, w) in enumerate(members):
        name = f"b{i}.para"
        store.add(name, params.pack())
        passes.append(Pass((Comp(op, name),)))
        in_size += r
        out_size += w
    return system.runtime.acc_plan(TdlProgram(tuple(passes)), store,
                                   in_size=in_size, out_size=out_size)

"""Deterministic multi-tenant serving over one :class:`MealibSystem`.

The serving runtime multiplexes many independent client streams
(*tenants*) onto one accelerated memory stack. Each tenant has a FIFO
descriptor queue, a QoS class and an admission bound
(:class:`~repro.serving.qos.TenantConfig`); a virtual-time engine
dispatches rounds of up to ``max_concurrency`` concurrent descriptor
streams and advances a model clock — no wall-clock anywhere, so a
given arrival trace always serves identically, bit for bit.

**Scheduling.** Each round selects queue *heads* (FIFO within a
tenant is structural — nothing can overtake inside a queue) by
effective priority ``qos − elapsed_wait // aging_quantum``: lower
dispatches sooner, and every elapsed quantum promotes a waiting head
one level, so bulk work behind a sustained interactive flood is
dispatched after a bounded wait — priority shapes latency, it never
starves anyone. Ties break by arrival time then admission order.

**Batching.** With a :class:`~repro.serving.batching.BatchPolicy`,
adjacent same-op batchable calls at the front of the selected tenant's
queue coalesce into one multi-PASS descriptor and ride one invocation
(see :mod:`repro.serving.batching` for why this is *exactly*
equivalent in functional results and ``accelerator`` ledger totals).

**Contention.** A round of ``k`` units executes each unit with
``concurrency=k``: the configuration unit prices the vault-bandwidth
time-share into the ``contention`` ledger category *without touching
the call's returned solo decomposition* (the scrub convention), and
the serving runtime folds the stretch into the request's latency —
``finish = dispatch + solo time + contention stretch``. A
single-tenant, ``max_concurrency=1`` run therefore produces per-call
results and ledger contents bit-identical to calling the system
directly.

**Attribution.** Every dispatched call is bracketed: the ledger
entries it appends are recorded as that tenant's slice.
Slices partition the system ledger exactly — every entry belongs to
exactly one tenant — so summing any category across tenants reproduces
the system total joule for joule.
:meth:`ServingRuntime.verify_tenant_decomposition` machine-checks the
partition and, through :func:`~repro.core.ledger.verify_ledger`, that
each slice folds to the cost its requests were charged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.checks import check_int, check_real
from repro.core.ledger import Ledger, verify_ledger
from repro.core.runtime import AccPlan
from repro.core.system import MealibSystem
from repro.eval.workloads import TABLE2
from repro.metrics import ExecResult
from repro.serving.batching import BatchPolicy, call_sizes, coalesce
from repro.serving.qos import TenantConfig
from repro.serving.traffic import Arrival


@dataclass
class Request:
    """One admitted (or shed) call in a tenant's stream."""

    tenant: str
    arrival: float
    seq: int                         # admission order, unique
    op: Optional[str] = None         # owned submissions
    params: Optional[object] = None
    in_bytes: int = 0                # owned submissions' buffer sizes,
    out_bytes: int = 0               # from call_sizes at admission
    plan: Optional[AccPlan] = None   # borrowed plan (submit_plan)
    batchable: bool = False
    shed: bool = False
    start: float = math.nan          # dispatch time
    finish: float = math.nan         # dispatch + solo time + stretch
    #: The execute's returned (solo) decomposition. For a coalesced
    #: batch every member carries the whole batch's result.
    result: Optional[ExecResult] = None
    batch_size: int = 0              # members in the dispatched unit

    @property
    def latency(self) -> float:
        """Queueing wait + service + contention stretch."""
        return self.finish - self.arrival


@dataclass
class TenantStats:
    """One tenant's serving outcome."""

    submitted: int = 0
    shed: int = 0
    completed: int = 0
    batched_calls: int = 0           # completed in a >1-member batch
    latencies: List[float] = field(default_factory=list)


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class ServingRuntime:
    """Multiplex tenant streams onto one system, deterministically."""

    def __init__(self, system: MealibSystem,
                 tenants: Sequence[TenantConfig],
                 max_concurrency: int = 4,
                 batching: Optional[BatchPolicy] = None,
                 aging_quantum: float = 5e-3,
                 functional: bool = True):
        check_int("max_concurrency", max_concurrency, 1)
        check_real("aging_quantum", aging_quantum, positive=True)
        if not tenants:
            raise ValueError("at least one tenant is required")
        self.system = system
        self.tenants: Dict[str, TenantConfig] = {}
        for cfg in tenants:
            if cfg.tenant in self.tenants:
                raise ValueError(f"duplicate tenant {cfg.tenant!r}")
            self.tenants[cfg.tenant] = cfg
        self.max_concurrency = max_concurrency
        self.batching = batching
        self.aging_quantum = aging_quantum
        self.functional = functional
        self.clock = 0.0
        self.stats: Dict[str, TenantStats] = {
            t: TenantStats() for t in self.tenants}
        self.requests: List[Request] = []
        self._pending: List[Request] = []
        self._queues: Dict[str, Deque[Request]] = {
            t: deque() for t in self.tenants}
        self._seq = 0
        # one (tenant, n0, n1, descriptor bytes, returned cost) per
        # dispatch: contiguous [n0, n1) slices of the system ledger's
        # entries that together partition everything logged from
        # _base_entries on (the decomposition invariant)
        self._slices: List[Tuple[str, int, int, int, ExecResult]] = []
        self._base_entries = len(system.ledger)
        self._t_first: Optional[float] = None

    # -- admission -----------------------------------------------------------

    def _admit(self, request: Request) -> Request:
        if request.arrival < 0.0:
            raise ValueError("arrival time must be non-negative")
        self.stats[request.tenant].submitted += 1
        self._pending.append(request)
        self.requests.append(request)
        return request

    def submit(self, tenant: str, op: str, params: object,
               arrival: float = 0.0) -> Request:
        """Admit one owned call: the runtime lowers (and, policy
        permitting, coalesces) its descriptor at dispatch and destroys
        it after execution.

        Raises :class:`ValueError` naming the op, before anything is
        queued, unless ``op`` is a deployed accelerator and ``params``
        an instance of its parameter type."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        layer = self.system.layer
        core = (layer.accelerators.get(op) if isinstance(op, str)
                else None)
        if core is None:
            raise ValueError(f"op {op!r} is not a deployed accelerator; "
                             f"deployed: {sorted(layer.accelerators)}")
        if not isinstance(params, core.params_type):
            raise ValueError(
                f"op {op!r} takes {core.params_type.__name__} params, "
                f"got {type(params).__name__}")
        in_bytes, out_bytes = call_sizes(layer, op, params)
        batchable = (self.batching is not None and
                     self.batching.batchable(op, in_bytes + out_bytes))
        self._seq += 1
        return self._admit(Request(tenant=tenant, arrival=arrival,
                                   seq=self._seq, op=op, params=params,
                                   in_bytes=in_bytes, out_bytes=out_bytes,
                                   batchable=batchable))

    def submit_plan(self, tenant: str, plan: AccPlan,
                    arrival: float = 0.0) -> Request:
        """Admit one call on a caller-owned, reusable plan (the
        repeated-call serving shape — consecutive executes of the same
        plan hit the schedule cache). Never batched, never destroyed."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._seq += 1
        return self._admit(Request(tenant=tenant, arrival=arrival,
                                   seq=self._seq, plan=plan))

    def submit_arrival(self, a: Arrival) -> Request:
        """Admit one generated arrival (Table 2 params at its scale)."""
        return self.submit(a.tenant, a.op, TABLE2[a.op].params(a.scale),
                           arrival=a.time)

    # -- the virtual-time engine ---------------------------------------------

    def _ingest(self, pending: List[Request], i: int) -> int:
        """Move arrivals due by the clock into tenant queues, shedding
        at full queues (the admission bound), in arrival order."""
        while i < len(pending) and pending[i].arrival <= self.clock:
            r = pending[i]
            i += 1
            queue = self._queues[r.tenant]
            if len(queue) >= self.tenants[r.tenant].max_queue_depth:
                r.shed = True
                self.stats[r.tenant].shed += 1
            else:
                queue.append(r)
        return i

    def _effective_priority(self, head: Request) -> int:
        waited = self.clock - head.arrival
        aged = int(waited // self.aging_quantum)
        return int(self.tenants[head.tenant].qos) - aged

    def _select_units(self) -> List[List[Request]]:
        """Pick this round's dispatch units: up to ``max_concurrency``
        queue heads by effective priority, each optionally extended
        into a batch from its own queue's front."""
        units: List[List[Request]] = []
        while len(units) < self.max_concurrency:
            best: Optional[Request] = None
            for queue in self._queues.values():
                if not queue:
                    continue
                head = queue[0]
                key = (self._effective_priority(head), head.arrival,
                       head.seq)
                if best is None or key < (
                        self._effective_priority(best), best.arrival,
                        best.seq):
                    best = head
            if best is None:
                break
            queue = self._queues[best.tenant]
            queue.popleft()
            unit = [best]
            if self.batching is not None and best.batchable:
                while (len(unit) < self.batching.max_batch and queue
                       and queue[0].batchable
                       and queue[0].op == best.op):
                    unit.append(queue.popleft())
            units.append(unit)
        return units

    def _dispatch(self, unit: List[Request], width: int) -> float:
        """Execute one unit under a round of ``width`` streams; returns
        its finish time on the virtual clock."""
        tenant = unit[0].tenant
        owned: Optional[AccPlan] = None
        if unit[0].plan is not None:
            plan = unit[0].plan
        else:
            plan = coalesce(self.system, [(r.op, r.params, r.in_bytes,
                                           r.out_bytes) for r in unit])
            owned = plan
        ledger = self.system.ledger
        n0 = len(ledger)
        try:
            result = self.system.runtime.acc_execute(
                plan, functional=self.functional, concurrency=width)
        finally:
            if owned is not None:
                self.system.runtime.acc_destroy(owned)
        n1 = len(ledger)
        self._slices.append((tenant, n0, n1, plan.descriptor.size, result))
        # the call's contention stretch was ledgered, not returned (the
        # scrub convention): recover it from this call's own entries (at
        # most one) and fold it into the latency
        stretch = ledger.span_time("contention", n0, n1)
        finish = self.clock + result.time + stretch
        stats = self.stats[tenant]
        for r in unit:
            r.start = self.clock
            r.finish = finish
            r.result = result
            r.batch_size = len(unit)
            stats.completed += 1
            stats.latencies.append(finish - r.arrival)
            if len(unit) > 1:
                stats.batched_calls += 1
        return finish

    def run(self) -> None:
        """Drain every submitted arrival through the virtual clock."""
        pending = sorted(self._pending,
                         key=lambda r: (r.arrival, r.seq))
        self._pending = []
        if pending and self._t_first is None:
            self._t_first = pending[0].arrival
        i = self._ingest(pending, 0)
        while i < len(pending) or any(self._queues.values()):
            if not any(self._queues.values()):
                # idle: jump the clock to the next arrival
                self.clock = max(self.clock, pending[i].arrival)
                i = self._ingest(pending, i)
                continue
            units = self._select_units()
            finishes = [self._dispatch(u, len(units)) for u in units]
            self.clock = max(finishes)
            i = self._ingest(pending, i)

    # -- attribution & reporting ---------------------------------------------

    def tenant_ledger(self, tenant: str) -> Ledger:
        """This tenant's attributed slices of the system ledger, as a
        ledger of their own (same entries, same order, so totals are
        computed over the very costs the system logged)."""
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        return self.system.ledger.select(
            (n0, n1) for t, n0, n1, _, _ in self._slices if t == tenant)

    def verify_tenant_decomposition(self) -> None:
        """Machine-check the attribution invariant.

        1. The recorded tenant slices exactly partition every ledger
           entry logged since this runtime attached — contiguous, no
           gap, no overlap (anything else means a foreign call was
           interleaved and attribution is void). Per category, the
           tenants' entries are then the system's, joule for joule.
        2. The system ledger passes
           :func:`~repro.core.ledger.verify_ledger` with every dispatch
           named as an execute: each slice's folding entries (plus the
           descriptor fetch charge) add up to the cost its requests
           were charged.

        Raises :class:`AssertionError` on any violation.
        """
        ledger = self.system.ledger
        pos = self._base_entries
        for tenant, n0, n1, _, _ in self._slices:
            if n0 != pos or n1 < n0:
                raise AssertionError(
                    f"tenant slice [{n0}, {n1}) for {tenant!r} does "
                    f"not continue the partition at entry {pos}: a "
                    "call outside the serving runtime interleaved "
                    "with serving dispatches")
            pos = n1
        if pos != len(ledger):
            raise AssertionError(
                f"{len(ledger) - pos} ledger entries after the last "
                "tenant slice are attributed to no tenant")
        verify_ledger(ledger, [(n0, size, result) for _, n0, _, size, result
                               in self._slices])

    def report(self) -> Dict[str, object]:
        """Serving outcome: per-tenant latency percentiles, goodput
        (completed requests per model second of the serving span) and
        shed counts, plus the system-wide contention total."""
        t0 = self._t_first if self._t_first is not None else 0.0
        span = self.clock - t0
        per_tenant: Dict[str, Dict[str, Union[int, float]]] = {}
        for tenant, stats in self.stats.items():
            lat = sorted(stats.latencies)
            per_tenant[tenant] = {
                "submitted": stats.submitted,
                "shed": stats.shed,
                "completed": stats.completed,
                "batched_calls": stats.batched_calls,
                "p50_latency_s": _percentile(lat, 50.0),
                "p99_latency_s": _percentile(lat, 99.0),
                "goodput_rps": (stats.completed / span
                                if span > 0 else 0.0),
            }
        contention = self.system.ledger.total("contention")
        completed = sum(s.completed for s in self.stats.values())
        return {
            "span_s": span,
            "completed": completed,
            "shed": sum(s.shed for s in self.stats.values()),
            "goodput_rps": completed / span if span > 0 else 0.0,
            "contention_time_s": contention.time,
            "contention_energy_j": contention.energy,
            "contended_executes":
                self.system.runtime.counters.contended_executes,
            "tenants": per_tenant,
        }

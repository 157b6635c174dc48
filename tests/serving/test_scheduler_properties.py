"""Randomized property battery for the multi-tenant scheduler.

Three invariants, each under a wide randomized sweep of tenant mixes,
QoS classes, admission depths, concurrency widths, batching policies
and arrival patterns (320 seeded trials total — every trial is
deterministic from its index):

1. **exact decomposition** — the per-tenant ledger slices partition
   the system ledger exactly and their per-category sums reproduce the
   system totals joule for joule, whatever the schedule interleaving;
2. **solo bit-identity** — serving N tenants together produces, for
   every request, the *same* per-call :class:`ExecResult` bits as
   serving that tenant's stream alone (contention is priced into the
   ledger and the latency, never into the call's result);
3. **FIFO within tenant + no starvation** — requests of one tenant
   dispatch in admission order, every admitted request completes, and
   an aged bulk request overtakes a sustained interactive flood after
   a bounded wait.
"""

import math

import numpy as np
import pytest

from repro.core import MealibSystem
from repro.eval.workloads import TABLE2
from repro.serving import (BatchPolicy, QosClass, ServingRuntime,
                           TenantConfig)
from tests.core.helpers import ledger_entries, record_executions

OPS = ("AXPY", "DOT", "GEMV")
SCALE = 0.004
QOS = (QosClass.INTERACTIVE, QosClass.STANDARD, QosClass.BULK)

N_DECOMPOSITION = 120
N_IDENTITY = 100
N_FAIRNESS = 100


def _system():
    return MealibSystem(stack_bytes=32 << 20, schedule_cache=True)


def _random_serving(rng, system, n_tenants, max_concurrency,
                    batching):
    tenants = [TenantConfig(f"t{i}", QosClass(int(rng.choice(QOS))),
                            max_queue_depth=int(rng.integers(2, 17)))
               for i in range(n_tenants)]
    return ServingRuntime(system, tenants,
                          max_concurrency=max_concurrency,
                          batching=batching, functional=False)


def _random_trace(rng, n_requests):
    """(op, arrival) pairs with clustered arrivals (forces queueing)."""
    gaps = rng.exponential(2e-4, size=n_requests)
    gaps[rng.random(n_requests) < 0.4] = 0.0       # bursts
    times = np.cumsum(gaps)
    ops = [OPS[int(rng.integers(len(OPS)))] for _ in range(n_requests)]
    return list(zip(ops, (float(t) for t in times)))


@pytest.mark.parametrize("trial", range(N_DECOMPOSITION))
def test_tenant_decomposition_is_exact(trial):
    rng = np.random.default_rng((9001, trial))
    n_tenants = int(rng.integers(2, 5))
    batching = (BatchPolicy(max_batch=int(rng.integers(2, 6)))
                if rng.random() < 0.5 else None)
    system = _system()
    serving = _random_serving(rng, system, n_tenants,
                              max_concurrency=int(rng.integers(1, 5)),
                              batching=batching)
    for i in range(n_tenants):
        for op, t in _random_trace(rng, int(rng.integers(2, 6))):
            serving.submit(f"t{i}", op, TABLE2[op].params(SCALE),
                           arrival=t)
    serving.run()
    # the machine-checked invariant: exact entry partition, and each
    # tenant slice folds to the cost its requests were charged
    serving.verify_tenant_decomposition()
    # every admitted request completed with a sane latency
    for r in serving.requests:
        if not r.shed:
            assert r.latency >= 0.0 and math.isfinite(r.latency)
    # the tenant ledgers are views of the very system entries
    attributed = sum(len(serving.tenant_ledger(f"t{i}").entries)
                     for i in range(n_tenants))
    assert attributed == len(system.ledger.entries)


@pytest.mark.parametrize("trial", range(N_IDENTITY))
def test_shared_serving_matches_each_stream_alone(trial):
    rng = np.random.default_rng((9002, trial))
    n_tenants = int(rng.integers(2, 4))
    traces = {f"t{i}": _random_trace(rng, int(rng.integers(2, 5)))
              for i in range(n_tenants)}
    width = int(rng.integers(1, 5))

    # deep queues on purpose: this property compares completed calls
    # one-to-one, so no trial may shed
    shared = ServingRuntime(
        _system(),
        [TenantConfig(t, QosClass(int(rng.choice(QOS))),
                      max_queue_depth=64) for t in traces],
        max_concurrency=width, functional=False)
    for tenant, trace in traces.items():
        for op, t in trace:
            shared.submit(tenant, op, TABLE2[op].params(SCALE),
                          arrival=t)
    shared.run()
    shared.verify_tenant_decomposition()

    for tenant, trace in traces.items():
        solo = ServingRuntime(_system(), [TenantConfig(tenant)],
                              max_concurrency=1, functional=False)
        for op, t in trace:
            solo.submit(tenant, op, TABLE2[op].params(SCALE),
                        arrival=t)
        solo.run()
        shared_reqs = [r for r in shared.requests
                       if r.tenant == tenant and not r.shed]
        solo_reqs = [r for r in solo.requests if not r.shed]
        # admission depths are >= trace length here, so nothing shed
        assert len(shared_reqs) == len(solo_reqs) == len(trace)
        for a, b in zip(shared_reqs, solo_reqs):
            # bit-identical per-call results: contention never touches
            # the solo decomposition (the scrub convention)
            assert a.result.time == b.result.time
            assert a.result.energy == b.result.energy
        # and the solo run really paid zero contention
        assert solo.system.ledger.total("contention").time == 0.0


@pytest.mark.parametrize("trial", range(N_FAIRNESS))
def test_fifo_within_tenant_and_no_starvation(trial):
    rng = np.random.default_rng((9003, trial))
    flood_n = int(rng.integers(10, 21))
    flood_gaps = rng.exponential(1e-4, size=flood_n)
    flood_times = [float(t) for t in np.cumsum(flood_gaps)]
    quantum = max(flood_times) / 8.0
    system = _system()
    serving = ServingRuntime(
        system,
        [TenantConfig("fg", QosClass.INTERACTIVE, max_queue_depth=64),
         TenantConfig("bg", QosClass.BULK, max_queue_depth=64)],
        max_concurrency=1, aging_quantum=quantum, functional=False)
    bulk = serving.submit("bg", "AXPY", TABLE2["AXPY"].params(SCALE),
                          arrival=0.0)
    flood = [serving.submit("fg", "AXPY",
                            TABLE2["AXPY"].params(SCALE), arrival=t)
             for t in flood_times]
    serving.run()
    serving.verify_tenant_decomposition()
    # no starvation: everything admitted completed
    for r in serving.requests:
        assert not r.shed
        assert math.isfinite(r.finish)
    # FIFO within tenant: dispatch order is admission order
    starts = [r.start for r in flood]
    assert starts == sorted(starts)
    # bounded wait: aging promotes the bulk request past the flood —
    # any interactive request arriving 3+ quanta in can no longer beat
    # it (bulk aged to effective priority below a fresh interactive
    # head, and ties break by earlier arrival)
    late = [r for r in flood if r.arrival >= 3.0 * quantum]
    assert late, "trial degenerated: no flood tail to overtake"
    assert bulk.start <= min(r.start for r in late), (
        "aged bulk request starved behind the interactive flood")


def test_contention_overheads_are_the_ledgered_stretches(monkeypatch):
    """Every execution dispatched in a shared round carries exactly one
    ``contention`` overhead (cache replays included), and the ledger's
    contention entries are those values, in dispatch order."""
    system = _system()
    serving = ServingRuntime(system,
                             [TenantConfig("a"), TenantConfig("b")],
                             max_concurrency=2, functional=False)
    seen = record_executions(monkeypatch, system)
    for i in range(4):
        for tenant in ("a", "b"):
            serving.submit(tenant, "AXPY", TABLE2["AXPY"].params(SCALE),
                           arrival=float(i))
    serving.run()
    shared = [ex for ex in seen if ex.overheads]
    assert shared and system.schedule_cache.stats.hits > 0
    assert all(list(ex.overheads) == ["contention"] for ex in shared)
    assert ledger_entries(system, "contention") == [
        ex.overheads["contention"] for ex in shared]
    assert (system.runtime.counters.contended_executes == len(shared)
            == len(seen))

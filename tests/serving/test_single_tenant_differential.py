"""Differential: one tenant served is *byte-identical* to the direct
:class:`MealibSystem` path.

The serving runtime promises a solo synchronous caller pays exactly
nothing for the multi-tenant machinery. This file proves it the hard
way: the same call sequence runs once through the direct runtime API
and once through a 1-tenant ``ServingRuntime`` at concurrency 1, on
identically-built systems, and *everything observable* must match bit
for bit — every per-call :class:`ExecResult`, every ledger entry
(category, label, time, energy, in order), and every resilience
counter. The matrix covers the hardened configurations of the golden
v4 baselines: schedule cache on, seeded latent faults with patrol
scrub, and the thermal RC network with a tight throttling envelope.
"""

import pytest

from repro.core import MealibSystem, verify_ledger
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.metrics import ZERO
from repro.serving import ServingRuntime, TenantConfig, coalesce
from repro.thermal import AMBIENT_K, ThermalConfig
from tests.core.helpers import record_executes
from tests.serving.helpers import member

SCALE = 0.016
FAULT_SEED = 4
THERMAL_MARGIN = 0.5

#: The call sequence both paths execute (repeats exercise the cache and
#: accumulate heat/latent upsets across calls).
CALLS = ("DOT", "AXPY", "GEMV", "AXPY", "RESMP", "GEMV", "AXPY", "DOT")

CONFIGS = ("plain", "cache", "faults-scrub", "faults-scrub-cache",
           "thermal", "thermal-cache")


def _build(config):
    kwargs = {"stack_bytes": 64 << 20}
    if "faults" in config:
        kwargs["faults"] = FaultInjector(seed=FAULT_SEED,
                                         latent_flip_rate=1e-5)
        kwargs["scrub"] = ScrubConfig(interval=2)
    if "thermal" in config:
        kwargs["faults"] = FaultInjector(seed=FAULT_SEED,
                                         latent_flip_rate=1e-5)
        kwargs["thermal"] = ThermalConfig(
            envelope=AMBIENT_K + THERMAL_MARGIN)
    if "cache" in config:
        kwargs["schedule_cache"] = True
    return MealibSystem(**kwargs)


def _run_direct(system):
    results = []
    for op in CALLS:
        plan = coalesce(system,
                        [member(system, op, TABLE2[op].params(SCALE))])
        results.append(system.runtime.acc_execute(plan,
                                                  functional=False))
        system.runtime.acc_destroy(plan)
    return results


def _run_served(system):
    serving = ServingRuntime(system, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    for i, op in enumerate(CALLS):
        serving.submit("solo", op, TABLE2[op].params(SCALE),
                       arrival=float(i))  # strictly FIFO, one at a time
    serving.run()
    serving.verify_tenant_decomposition()
    assert all(not r.shed for r in serving.requests)
    return [r.result for r in serving.requests]


def _assert_systems_identical(direct, served):
    assert len(served.ledger.entries) == len(direct.ledger.entries)
    for i, (a, b) in enumerate(zip(direct.ledger.entries,
                                   served.ledger.entries)):
        assert (a.category, a.label) == (b.category, b.label), (
            f"ledger entry {i} diverged: {a!r} != {b!r}")
        assert a.result.time == b.result.time, f"entry {i} time"
        assert a.result.energy == b.result.energy, f"entry {i} energy"
    assert direct.runtime.counters == served.runtime.counters
    # serving a solo stream prices zero contention
    assert served.ledger.total("contention") == ZERO


@pytest.mark.parametrize("config", CONFIGS)
def test_served_solo_stream_is_byte_identical(config, monkeypatch):
    direct = _build(config)
    served = _build(config)
    executes = record_executes(monkeypatch, direct)
    direct_results = _run_direct(direct)
    served_results = _run_served(served)
    for i, (a, b) in enumerate(zip(direct_results, served_results)):
        assert a.time == b.time and a.energy == b.energy, (
            f"{config}: call {i} ({CALLS[i]}) diverged")
    _assert_systems_identical(direct, served)
    # the served side passed the same checker through its tenant slices
    verify_ledger(direct.ledger, executes)


@pytest.mark.parametrize("config", ("cache", "faults-scrub-cache",
                                    "thermal-cache"))
def test_served_repeated_plan_is_byte_identical(config):
    """The repeated-call shape (``submit_plan``) — consecutive serves
    of one plan must replay the schedule cache exactly like a direct
    execute loop does."""
    executes = 6
    params = TABLE2["AXPY"].params(SCALE)

    direct = _build(config)
    plan_a = coalesce(direct, [member(direct, "AXPY", params)])
    direct_results = [direct.runtime.acc_execute(plan_a,
                                                 functional=False)
                      for _ in range(executes)]

    served = _build(config)
    serving = ServingRuntime(served, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    plan_b = coalesce(served, [member(served, "AXPY", params)])
    for i in range(executes):
        serving.submit_plan("solo", plan_b, arrival=float(i))
    serving.run()
    serving.verify_tenant_decomposition()

    for a, r in zip(direct_results, serving.requests):
        assert a.time == r.result.time
        assert a.energy == r.result.energy
    _assert_systems_identical(direct, served)
    # the serving path really rode the cache, like the direct loop
    stats = served.schedule_cache.stats
    assert stats.lookups == executes
    assert stats.hits == direct.schedule_cache.stats.hits


def test_thermal_state_matches_after_serving():
    """The served system's RC network integrates the same heat."""
    direct = _build("thermal")
    served = _build("thermal")
    _run_direct(direct)
    _run_served(served)
    vaults = direct.device.units
    assert [direct.thermal.temperature(v) for v in range(vaults)] == \
        [served.thermal.temperature(v) for v in range(vaults)]
    assert (direct.governor.stats.throttle_events
            == served.governor.stats.throttle_events)

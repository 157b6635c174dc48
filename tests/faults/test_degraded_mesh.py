"""Partial NoC degradation through the full runtime stack.

Covers the per-vault fallback semantics (dead tiles reroute stripes,
host fallback only with zero serving tiles), link failure and flap
injection, the reroute ledger category, and the warm-retry invocation
cost.
"""

import numpy as np
import pytest

import repro.core.config_unit as config_unit
from repro.accel import AxpyParams
from repro.core import MealibSystem, ParamStore
from repro.core.runtime import Ledger
from repro.faults import FaultInjector
from repro.metrics import ZERO
from tests.core.helpers import ledger_entries, record_executions

N = 1024
EXPECTED = np.full(N, 4.0, np.float32)          # 3*1 + 1


def make_system(faults=None, policy=None):
    return MealibSystem(stack_bytes=128 << 20, faults=faults,
                        policy=policy)


def make_axpy_plan(system, n=N, alpha=3.0):
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    store = ParamStore()
    store.add("a.para", AxpyParams(n=n, alpha=alpha, x_pa=xb.pa,
                                   y_pa=yb.pa).pack())
    plan = system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                   in_size=n * 8, out_size=n * 4)
    return plan, x, y


class TestPerVaultFallback:
    def test_degraded_run_costs_more_than_clean(self):
        # zero-rate injector on both sides so the ECC-protected device
        # timing matches and only the degradation differs
        clean = make_system(faults=FaultInjector(seed=0))
        r_clean = clean.runtime.acc_execute(make_axpy_plan(clean)[0],
                                            functional=False)
        degraded = make_system(faults=FaultInjector(seed=0))
        degraded.layer.mark_tile_failed(5)
        r_degr = degraded.runtime.acc_execute(
            make_axpy_plan(degraded)[0], functional=False)
        assert r_degr.time > r_clean.time
        reroute = degraded.ledger.total("reroute")
        assert reroute.time > 0
        # the ledger decomposes exactly: degraded accelerator share
        # equals the clean one, the excess lands in reroute
        assert degraded.ledger.total("accelerator").time == (
            pytest.approx(clean.ledger.total("accelerator").time))
        assert r_degr.time == pytest.approx(
            r_clean.time + reroute.time)

    def test_more_dead_tiles_cost_more(self):
        times = []
        for dead in (1, 4, 8):
            system = make_system(faults=FaultInjector(seed=0))
            for vault in range(dead):
                system.layer.mark_tile_failed(vault)
            r = system.runtime.acc_execute(make_axpy_plan(system)[0],
                                           functional=False)
            assert system.runtime.counters.fallbacks == 0
            assert system.runtime.counters.rerouted_stripes == dead
            times.append(r.time)
        assert times == sorted(times)
        assert times[0] < times[-1]

    def test_isolated_healthy_tile_is_not_serving(self):
        system = make_system(faults=FaultInjector(seed=0))
        # cut tile 0 (healthy!) off the mesh entirely
        system.layer.noc.fail_link(0, 1)
        system.layer.noc.fail_link(0, 4)
        serving = system.layer.serving_tiles()
        assert 0 not in serving
        assert len(serving) == 15
        # vault 0's stripe cannot reach any serving tile -> host
        assert system.layer.reroute_map() == {0: None}
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)
        assert system.runtime.counters.fallbacks == 1

    def test_reroutes_land_on_nearest_serving_tile(self):
        system = make_system()
        system.layer.mark_tile_failed(5)
        assert system.layer.reroute_map() == {5: 1}   # hop count 1
        system.layer.mark_tile_failed(1)
        reroutes = system.layer.reroute_map()
        assert set(reroutes) == {1, 5}
        assert all(s not in (1, 5) for s in reroutes.values())


class TestLinkFaultInjection:
    def test_injected_link_failure_is_sticky_and_detours(self):
        system = make_system(
            faults=FaultInjector(seed=3, link_fail_rate=1.0))
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(N, 7.0, np.float32))
        assert len(system.layer.noc.failed_links) == 2
        assert system.faults.stats.link_failures == 2
        # all tiles alive and connected: accelerated, not even degraded
        assert system.runtime.counters.fallbacks == 0
        assert system.runtime.counters.availability == 1.0

    def test_link_flap_is_transient(self):
        system = make_system(
            faults=FaultInjector(seed=3, link_flap_rate=1.0))
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)
        assert system.faults.stats.link_flaps == 1
        # the flapped link is restored once the execute returns
        assert not system.layer.noc.degraded
        assert system.layer.noc.bisection_bandwidth() == (
            4 * system.layer.noc.link_bw)

    def test_link_failures_keep_availability_high(self):
        # acceptance: 1 failed link beats PR 1's one-dead-tile
        # availability (which was 0.0 under all-or-nothing fallback)
        system = make_system(faults=FaultInjector(seed=0))
        system.layer.noc.fail_link(5, 6)
        plan, _, y = make_axpy_plan(system)
        for _ in range(5):
            system.runtime.acc_execute(plan)
        assert system.runtime.counters.availability == 1.0
        assert system.runtime.counters.availability > 0.0  # PR 1 value
        np.testing.assert_array_equal(y, np.full(N, 16.0, np.float32))

    def test_determinism_with_link_faults(self):
        def campaign(seed):
            system = make_system(
                faults=FaultInjector(seed=seed, link_fail_rate=0.5,
                                     link_flap_rate=0.3,
                                     tile_fail_rate=0.2))
            plan, _, y = make_axpy_plan(system)
            total = None
            for _ in range(8):
                r = system.runtime.acc_execute(plan)
                total = r if total is None else total.plus(r)
            c = system.runtime.counters
            s = system.faults.stats
            return (total.time, total.energy, c.fallbacks,
                    c.degraded_executes, c.rerouted_stripes,
                    s.link_failures, s.link_flaps, s.tile_failures,
                    tuple(sorted(system.layer.noc.failed_links)),
                    y.tobytes())

        assert campaign(42) == campaign(42)
        assert campaign(42) != campaign(43)


class TestFaultFreeParity:
    def test_no_reroute_entries_without_degradation(self):
        system = make_system(faults=FaultInjector(seed=0))
        plan, _, _ = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        assert system.ledger.total("reroute").time == 0.0
        assert system.ledger.total("reroute").energy == 0.0
        assert system.runtime.counters.degraded_executes == 0
        for category in ("retry", "reroute", "fallback"):
            cost = system.ledger.total(category)
            assert cost.time == 0.0 and cost.energy == 0.0


class TestOverheadChannel:
    """The per-execution overhead map: keyed exactly when its condition
    held, and every value is what the ledger carries for it."""

    def test_healthy_solo_execute_has_no_overheads(self, monkeypatch):
        system = make_system(faults=FaultInjector(seed=0))
        seen = record_executions(monkeypatch, system)
        system.runtime.acc_execute(make_axpy_plan(system)[0])
        assert [ex.overheads for ex in seen] == [{}]
        assert ({e.category for e in system.ledger.entries}
                == {"invocation", "accelerator"})

    def test_reroute_overhead_is_its_ledger_entry(self, monkeypatch):
        system = make_system(faults=FaultInjector(seed=0))
        system.layer.mark_tile_failed(5)
        seen = record_executions(monkeypatch, system)
        system.runtime.acc_execute(make_axpy_plan(system)[0],
                                   functional=False)
        (execution,) = seen
        assert list(execution.overheads) == ["reroute"]
        assert execution.overheads["reroute"].time > 0.0
        assert ledger_entries(system, "reroute") == [
            execution.overheads["reroute"]]
        assert system.runtime.counters.rerouted_stripes == 1

    def test_ledger_rejects_unknown_category(self):
        ledger = Ledger()
        with pytest.raises(ValueError, match="bogus"):
            ledger.log("bogus", "x", ZERO)
        assert ledger.entries == []


class TestWarmRetry:
    def test_warm_retry_cheaper_than_cold_delivery(self):
        system = make_system(
            faults=FaultInjector(seed=0, descriptor_corruption_rate=1.0))
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)   # fallback output
        inv = system.runtime.invocation
        size = plan.descriptor.size
        warm = inv.warm_retry_cost(size)
        cold = inv.descriptor_cost(size)
        assert warm.time < cold.time
        assert warm.energy < cold.energy
        # the ledgered retry cost is backoff + warm redelivery +
        # doorbell: strictly below the cold-redelivery equivalent
        attempts = system.ledger.by_label("retry")
        assert attempts            # retries really happened
        for attempt, entry in attempts.items():
            n = int(attempt.split("-")[1])
            backoff = system.runtime.policy.backoff(n)
            cold_retry = (backoff + cold.time
                          + inv.doorbell_cost().time)
            assert entry.time == pytest.approx(
                backoff + warm.time + inv.doorbell_cost().time)
            assert entry.time < cold_retry


class TestSingleMemorySimulation:
    """A degraded pass and its healthy baseline drain identical streams,
    so one execute of a one-PASS descriptor simulates memory once."""

    @pytest.mark.parametrize("dead_tile", [None, 0])
    def test_one_simulation_per_pass(self, dead_tile, monkeypatch):
        system = make_system(faults=FaultInjector(seed=0))
        if dead_tile is not None:
            system.layer.mark_tile_failed(dead_tile)
        plan, _, _ = make_axpy_plan(system)
        calls = []
        real = config_unit.simulate_streams

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(config_unit, "simulate_streams", counting)
        system.runtime.acc_execute(plan, functional=False)
        assert len(calls) == 1
        degraded = system.runtime.counters.degraded_executes
        assert degraded == (0 if dead_tile is None else 1)
        reroute = system.ledger.total("reroute")
        assert (reroute.time > 0) == (dead_tile is not None)

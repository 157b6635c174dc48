"""Hardened acc_execute: watchdog, retry/backoff, host fallback, ledger."""

import numpy as np
import pytest

from repro.accel import AxpyParams
from repro.core import (MealibRuntimeError, MealibSystem, ParamStore,
                        ResiliencePolicy, verify_ledger)
from repro.faults import FaultInjector


def make_system(faults=None, policy=None):
    return MealibSystem(stack_bytes=128 << 20, faults=faults, policy=policy)


def make_axpy_plan(system, n=1024, alpha=3.0):
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


EXPECTED = np.full(1024, 4.0, np.float32)      # 3*1 + 1


class TestTileFailureDegradation:
    def test_failed_tile_reroutes_instead_of_fallback(self):
        system = make_system(faults=FaultInjector(seed=0))
        system.layer.mark_tile_failed(3)
        plan, _, y = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)   # still correct
        assert result.time > 0 and result.energy > 0
        counters = system.runtime.counters
        assert counters.fallbacks == 0               # stayed accelerated
        assert counters.availability == 1.0
        assert counters.degraded_executes == 1
        assert counters.rerouted_stripes == 1
        assert system.ledger.total("fallback").time == 0
        assert system.ledger.total("accelerator").time > 0
        assert system.ledger.total("reroute").time > 0

    def test_all_tiles_failed_degrades_to_host(self):
        system = make_system(faults=FaultInjector(seed=0))
        for vault in range(len(system.layer.tiles)):
            system.layer.mark_tile_failed(vault)
        plan, _, y = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)
        assert result.time > 0
        assert system.runtime.counters.fallbacks == 1
        assert system.ledger.total("fallback").time > 0
        assert system.ledger.total("accelerator").time == 0
        assert "AXPY" in system.ledger.by_label("fallback")

    def test_fallback_disabled_raises_only_when_no_tile_left(self):
        system = make_system(
            faults=FaultInjector(seed=0),
            policy=ResiliencePolicy(host_fallback=False))
        system.layer.mark_tile_failed(0)
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)             # degraded, no raise
        np.testing.assert_array_equal(y, EXPECTED)
        for vault in range(1, len(system.layer.tiles)):
            system.layer.mark_tile_failed(vault)
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_execute(plan)

    def test_injected_tile_failures_accumulate_degraded(self):
        system = make_system(
            faults=FaultInjector(seed=0, tile_fail_rate=1.0))
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        system.runtime.acc_execute(plan)
        # y accumulates: 1 + 3 + 3 across the two executes
        np.testing.assert_array_equal(y, np.full(1024, 7.0, np.float32))
        assert not system.layer.healthy
        # every execute hard-fails one more tile, but both still ran
        # on the surviving tiles
        assert len(system.layer.failed_tiles()) == 2
        counters = system.runtime.counters
        assert counters.fallbacks == 0
        assert counters.availability == 1.0
        assert counters.degraded_executes == 2
        assert counters.rerouted_stripes == 1 + 2
        assert len(system.layer.serving_tiles()) == 14

    def test_functional_false_skips_numerics(self):
        system = make_system(faults=FaultInjector(seed=0))
        system.layer.mark_tile_failed(0)
        plan, _, y = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan, functional=False)
        np.testing.assert_array_equal(y, np.ones(1024, np.float32))
        assert result.time > 0
        assert system.ledger.total("fallback").time == 0
        assert system.ledger.total("reroute").time > 0


class TestWatchdogAndRetry:
    def test_permanent_hang_watchdog_then_fallback(self):
        policy = ResiliencePolicy(max_retries=2)
        system = make_system(faults=FaultInjector(seed=0, hang_rate=1.0),
                             policy=policy)
        plan, _, y = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)
        counters = system.runtime.counters
        assert counters.watchdog_expiries == 1 + policy.max_retries
        assert counters.retries == policy.max_retries
        assert counters.fallbacks == 1
        fault = system.ledger.total("fault")
        assert fault.time == pytest.approx(
            counters.watchdog_expiries * policy.watchdog_timeout)
        assert result.time > fault.time

    def test_permanent_corruption_retries_then_fallback(self):
        policy = ResiliencePolicy(max_retries=3)
        system = make_system(
            faults=FaultInjector(seed=0, descriptor_corruption_rate=1.0),
            policy=policy)
        plan, _, y = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, EXPECTED)
        assert system.runtime.counters.retries == 3
        assert system.runtime.counters.fallbacks == 1
        retry = system.ledger.total("retry")
        assert retry.time > 0
        # exponential backoff: per-attempt retry cost grows
        attempts = system.ledger.by_label("retry")
        assert attempts["attempt-3"].time > attempts["attempt-1"].time

    def test_transient_corruption_recovers_on_accelerator(self):
        # 40% per-fetch corruption: with 3 retries the execute should
        # (deterministically, for this seed) land on the accelerator
        system = make_system(
            faults=FaultInjector(seed=7, descriptor_corruption_rate=0.4))
        plan, _, y = make_axpy_plan(system)
        for _ in range(6):
            system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(1024, 19.0, np.float32))
        counters = system.runtime.counters
        assert counters.executes == 6
        assert counters.fallbacks == 0          # retries always recovered
        assert counters.retries > 0
        assert system.ledger.total("accelerator").time > 0
        assert system.ledger.total("retry").time > 0

    def test_ecc_corrections_logged_and_transparent(self):
        system = make_system(
            faults=FaultInjector(seed=11, dram_bit_error_rate=2e-4))
        plan, _, y = make_axpy_plan(system)
        for _ in range(40):
            system.runtime.acc_execute(plan)
        # 40 executes * alpha accumulation: y = 1 + 40*3
        np.testing.assert_array_equal(
            y, np.full(1024, 121.0, np.float32))
        assert system.runtime.counters.ecc_corrections > 0
        assert "ecc-correction" in system.ledger.by_label("fault")


class TestFaultFreeParity:
    def test_no_injector_adds_no_resilience_entries(self):
        system = make_system()
        plan, _, _ = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        for category in ("fault", "retry", "fallback"):
            assert system.ledger.total(category).time == 0.0
            assert system.ledger.total(category).energy == 0.0
        # everything the ledger saw is invocation + accelerator; the
        # returned total additionally carries the CU's descriptor fetch
        ledger = system.ledger
        assert {e.category for e in ledger.entries} \
            == {"invocation", "accelerator"}
        verify_ledger(ledger, [(0, plan.descriptor.size, result)])
        assert result.time > ledger.total().time

    def test_zero_rate_injector_without_ecc_matches_baseline(self):
        plain = make_system()
        hardened = make_system(
            faults=FaultInjector(seed=0, ecc_enabled=False))
        r_plain = plain.runtime.acc_execute(make_axpy_plan(plain)[0])
        r_hard = hardened.runtime.acc_execute(make_axpy_plan(hardened)[0])
        assert r_hard.time == r_plain.time
        assert r_hard.energy == r_plain.energy

    def test_ecc_protection_costs_a_little(self):
        plain = make_system()
        protected = make_system(faults=FaultInjector(seed=0))
        r_plain = plain.runtime.acc_execute(make_axpy_plan(plain)[0],
                                            functional=False)
        r_prot = protected.runtime.acc_execute(
            make_axpy_plan(protected)[0], functional=False)
        assert r_prot.energy > r_plain.energy          # ECC decode energy
        assert r_prot.energy < r_plain.energy * 1.05   # but < 5% tax


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def campaign(seed):
            system = make_system(
                faults=FaultInjector(
                    seed=seed, descriptor_corruption_rate=0.3,
                    hang_rate=0.1, dram_bit_error_rate=1e-4))
            plan, _, y = make_axpy_plan(system)
            total = None
            for _ in range(8):
                r = system.runtime.acc_execute(plan)
                total = r if total is None else total.plus(r)
            c = system.runtime.counters
            return (total.time, total.energy, c.retries, c.fallbacks,
                    c.watchdog_expiries, c.ecc_corrections, y.tobytes())

        assert campaign(123) == campaign(123)
        assert campaign(123) != campaign(124)


@pytest.mark.parametrize("field,value,error", [
    ("max_retries", -1, ValueError), ("max_retries", 2.5, TypeError),
    ("max_retries", True, TypeError),
    ("watchdog_timeout", float("nan"), ValueError),
    ("watchdog_timeout", -1e-6, ValueError),
    ("backoff_base", float("inf"), ValueError),
    ("backoff_base", -5e-6, ValueError),
    ("backoff_factor", float("nan"), ValueError),
    ("backoff_factor", -2.0, ValueError),
    ("backoff_factor", "2", TypeError),
    ("host_fallback", "no", TypeError), ("host_fallback", 0, TypeError),
])
def test_policy_typed_errors_name_the_field(field, value, error):
    with pytest.raises(error, match=field):
        ResiliencePolicy(**{field: value})


def test_policy_accepts_zero_delays_and_retries():
    policy = ResiliencePolicy(max_retries=0, watchdog_timeout=0.0,
                              backoff_base=0, backoff_factor=0.0,
                              host_fallback=False)
    assert policy.backoff(1) == 0.0

"""Thermal loop end-to-end: parity, emergencies, Arrhenius coupling.

The acceptance properties of the thermal subsystem as wired through
the full system: with unreachable envelopes a thermal-on run prices
every execute *identically* to a thermal-off run (the model observes,
never perturbs); a forced per-vault emergency degrades through the
existing reroute path with availability 1.0 and an exact
clean + reroute + throttle ledger decomposition; and at a fixed seed a
hotter stack never sees fewer latent flips than a cooler one, on any
vault (the thinned deposit construction).
"""

import numpy as np
import pytest

from repro.core import MealibSystem, ParamStore
from repro.faults import FaultInjector
from repro.metrics import ZERO
from repro.thermal import (AMBIENT_K, NOMINAL, OFFLINE, THROTTLED,
                           ThermalConfig)
from tests.core.helpers import ledger_entries, record_executions


def make_system(thermal=None, faults=None, stack=64 << 20):
    return MealibSystem(stack_bytes=stack, faults=faults,
                        thermal=thermal)


def axpy_plan(system, n=65536):
    from repro.accel import AxpyParams

    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    params = AxpyParams(n=n, alpha=2.0, x_pa=xb.pa, y_pa=yb.pa)
    store = ParamStore()
    store.add("w.para", params.pack())
    core = system.layer.accelerator("AXPY")
    streams = core.streams(params)
    return system.runtime.acc_plan(
        "PASS { COMP AXPY w.para }", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))


def run_executes(system, executes=6, n=65536):
    plan = axpy_plan(system, n)
    return [system.runtime.acc_execute(plan, functional=False)
            for _ in range(executes)]


# -- parity: the model observes, never perturbs -------------------------------


def test_unreachable_envelope_prices_identically_to_thermal_off():
    off = make_system()
    on = make_system(thermal=ThermalConfig(envelope=10_000.0,
                                           critical=20_000.0))
    res_off = run_executes(off)
    res_on = run_executes(on)
    # bit-identical pricing, execute by execute
    assert [(r.time, r.energy) for r in res_on] == [
        (r.time, r.energy) for r in res_off]
    for category in ("accelerator", "invocation"):
        assert on.ledger.total(category) == off.ledger.total(category)
    assert on.ledger.total("throttle").time == 0.0
    assert on.runtime.counters.throttled_executes == 0
    # ...while the thermal model really did integrate the run
    assert on.thermal.elapsed > 0.0
    assert on.thermal.peak_vault_temp > AMBIENT_K
    assert off.thermal is None


def test_thermal_run_is_reproducible():
    cfg = ThermalConfig()
    a = make_system(thermal=cfg)
    b = make_system(thermal=cfg)
    run_executes(a)
    run_executes(b)
    assert np.array_equal(a.thermal.temps, b.thermal.temps)
    assert a.thermal.t_logic == b.thermal.t_logic


# -- throttling: pricing and decomposition ------------------------------------


def throttling_config(**overrides):
    """Envelopes one vault can never cool out of: vault 3 throttles at
    the very first poll (ambient sits above its envelope) and stays
    throttled (release sits below the ambient floor)."""
    kw = dict(vault_envelopes={3: AMBIENT_K - 1.0})
    kw.update(overrides)
    return ThermalConfig(**kw)


def test_throttled_execute_is_the_clean_execute_plus_the_stretch(
        monkeypatch):
    clean_sys = make_system()
    clean = run_executes(clean_sys, executes=1)[0]
    system = make_system(thermal=throttling_config())
    assert system.governor.state[3] == THROTTLED
    seen = record_executions(monkeypatch, system)
    hot = run_executes(system, executes=1)[0]
    throttle = system.ledger.total("throttle")
    assert throttle.time > 0.0 and throttle.energy > 0.0
    assert seen[0].overheads == {"throttle": throttle}
    assert hot.time == pytest.approx(clean.time + throttle.time)
    assert hot.energy == pytest.approx(clean.energy + throttle.energy)
    # the accelerator category keeps exactly the nominal share:
    # frequency-only DVFS does not reprice the work, only the stretch
    assert (system.ledger.total("accelerator")
            == clean_sys.ledger.total("accelerator"))
    assert system.runtime.counters.throttled_executes == 1
    assert system.governor.stats.time_throttled == pytest.approx(
        throttle.time)


def test_unit_throttle_factor_still_ledgers_a_zero_stretch(monkeypatch):
    """A throttled vault at factor 1.0 stretches nothing, but the
    execution still ran throttled: the key is present, priced ZERO."""
    clean = run_executes(make_system(), executes=1)[0]
    system = make_system(thermal=throttling_config(throttle_factor=1.0))
    assert system.governor.state[3] == THROTTLED
    seen = record_executions(monkeypatch, system)
    hot = run_executes(system, executes=1)[0]
    assert seen[0].overheads == {"throttle": ZERO}
    assert ledger_entries(system, "throttle") == [ZERO]
    assert system.runtime.counters.throttled_executes == 1
    assert (hot.time, hot.energy) == (clean.time, clean.energy)


def test_every_overhead_fires_in_ledger_order(monkeypatch):
    """Degraded, throttled and contended at once: the map and the
    ledger both run reroute -> throttle -> contention, value for
    value, and contention stays out of the returned cost."""
    def degraded_hot_system():
        system = make_system(thermal=throttling_config())
        system.layer.mark_tile_failed(5)
        return system, axpy_plan(system)

    solo_sys, solo_plan = degraded_hot_system()
    solo = solo_sys.runtime.acc_execute(solo_plan, functional=False)
    system, plan = degraded_hot_system()
    seen = record_executions(monkeypatch, system)
    n0 = len(system.ledger.entries)
    result = system.runtime.acc_execute(plan, functional=False,
                                        concurrency=2)
    (execution,) = seen
    assert list(execution.overheads) == ["reroute", "throttle",
                                         "contention"]
    overhead_entries = [(e.category, e.result)
                        for e in system.ledger.entries[n0:]
                        if e.category in execution.overheads]
    assert overhead_entries == list(execution.overheads.items())
    assert all(cost.time > 0.0 for cost in execution.overheads.values())
    counters = system.runtime.counters
    assert (counters.degraded_executes, counters.throttled_executes,
            counters.contended_executes) == (1, 1, 1)
    assert (result.time, result.energy) == (solo.time, solo.energy)


def test_forced_emergency_degrades_through_the_reroute_path():
    # vault 9's critical threshold sits below ambient: it goes offline
    # at assembly, before the first execute; vault 3 stays throttled.
    # The run must survive on the accelerated path with an exact
    # clean + reroute + throttle decomposition.
    cfg = throttling_config(
        vault_envelopes={3: AMBIENT_K - 1.0, 9: AMBIENT_K - 10.0},
        vault_criticals={9: AMBIENT_K - 5.0})
    system = make_system(thermal=cfg)
    assert system.governor.state[9] == OFFLINE
    assert system.layer.failed_tiles() == [9]
    clean_sys = make_system()
    executes = 4
    clean = run_executes(clean_sys, executes=executes)
    hot = run_executes(system, executes=executes)
    counters = system.runtime.counters
    assert counters.availability == 1.0
    assert counters.fallbacks == 0
    assert counters.degraded_executes == executes
    assert system.ledger.total("fallback").time == 0.0
    reroute = system.ledger.total("reroute")
    throttle = system.ledger.total("throttle")
    assert reroute.time > 0.0 and throttle.time > 0.0
    total_hot = sum(r.time for r in hot)
    total_clean = sum(r.time for r in clean)
    assert total_hot == pytest.approx(
        total_clean + reroute.time + throttle.time)
    energy_hot = sum(r.energy for r in hot)
    energy_clean = sum(r.energy for r in clean)
    assert energy_hot == pytest.approx(
        energy_clean + reroute.energy + throttle.energy)


def test_offlined_vault_recovers_when_it_cools():
    # trip vault 5 offline with a reachable critical, then let the idle
    # fallback path cool the stack: the governor repairs its own tile
    cfg = ThermalConfig()
    system = make_system(thermal=cfg)
    model, gov = system.thermal, system.governor
    model.temps[5] = cfg.critical + 1.0
    gov.poll()
    assert system.layer.tiles[5].failed
    model.advance(5e-3)                  # long idle cool-down
    gov.poll()
    assert gov.state[5] == NOMINAL
    assert not system.layer.tiles[5].failed
    assert gov.stats.recoveries == 1


# -- thermal-aware reroute tie-break ------------------------------------------


def test_reroute_prefers_the_coolest_equidistant_tile():
    system = make_system(thermal=ThermalConfig(envelope=10_000.0,
                                               critical=20_000.0))
    layer = system.layer
    layer.mark_tile_failed(0)
    # vault 0's one-hop candidates on the 4x4 grid are tiles 1 and 4;
    # topological choice is the lower index
    assert layer.reroute_map()[0] == 1
    system.thermal.temps[1] = AMBIENT_K + 20.0
    assert layer.reroute_map()[0] == 4   # coolest wins
    system.thermal.temps[4] = AMBIENT_K + 30.0
    assert layer.reroute_map()[0] == 1
    # equal temperatures fall back to the deterministic index order
    system.thermal.temps[4] = system.thermal.temps[1]
    assert layer.reroute_map()[0] == 1
    # without a thermal model the historical choice is untouched
    layer.thermal = None
    system.thermal.temps[1] = AMBIENT_K + 500.0
    assert layer.reroute_map()[0] == 1


# -- Arrhenius coupling -------------------------------------------------------


ARRHENIUS = dict(arrhenius_doubling=1.0, arrhenius_cap=8.0,
                 envelope=10_000.0, critical=20_000.0)


def test_hotter_stack_never_sees_fewer_flips_on_any_vault():
    rate = 2e-5
    seed = 11
    cool = make_system(
        thermal=ThermalConfig(g_sink=50.0, **ARRHENIUS),
        faults=FaultInjector(seed=seed, latent_flip_rate=rate))
    hot = make_system(
        thermal=ThermalConfig(g_sink=0.05, **ARRHENIUS),
        faults=FaultInjector(seed=seed, latent_flip_rate=rate))
    run_executes(cool, executes=8)
    run_executes(hot, executes=8)
    assert hot.thermal.max_temp > cool.thermal.max_temp + 1.0
    by_cool = cool.faults.latent_deposits_by_vault
    by_hot = hot.faults.latent_deposits_by_vault
    total_cool = sum(by_cool.values())
    total_hot = sum(by_hot.values())
    assert total_cool > 0                # candidates actually landed
    # pointwise: the hot run accepts a superset of the cool run's flips
    for vault in range(16):
        assert by_hot.get(vault, 0) >= by_cool.get(vault, 0), (
            f"vault {vault} lost flips by running hotter")
    assert total_hot > total_cool        # and strictly more somewhere


def test_thermal_coupling_keeps_the_candidate_stream_seeded():
    # two runs with *different* envelopes (different throttle activity)
    # still draw identical flip candidates: acceptance, not placement,
    # is what temperature modulates
    rate = 2e-5
    a = make_system(
        thermal=ThermalConfig(**ARRHENIUS),
        faults=FaultInjector(seed=7, latent_flip_rate=rate))
    cfg_b = dict(ARRHENIUS)
    cfg_b["envelope"] = AMBIENT_K - 1.0  # throttles from the first poll
    b = make_system(
        thermal=ThermalConfig(**cfg_b),
        faults=FaultInjector(seed=7, latent_flip_rate=rate))
    run_executes(a, executes=4)
    run_executes(b, executes=4)
    assert b.runtime.counters.throttled_executes == 4
    assert a.runtime.counters.throttled_executes == 0
    # the dedicated latent stream consumed identically in both runs
    state_a = a.faults._latent_rng.bit_generator.state
    state_b = b.faults._latent_rng.bit_generator.state
    assert state_a == state_b


def test_legacy_deposit_path_untouched_without_thermal():
    rate = 2e-5
    plain = make_system(faults=FaultInjector(seed=5,
                                             latent_flip_rate=rate))
    run_executes(plain, executes=4)
    assert plain.faults.stats.latent_flips_deposited > 0
    # no vault attribution on the legacy path
    assert plain.faults.latent_deposits_by_vault == {}

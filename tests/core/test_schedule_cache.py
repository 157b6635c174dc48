"""Schedule-cache battery: property, stale-entry and invalidation tests.

Three layers of evidence that descriptor-keyed schedule caching is
*free* — purely a speedup, never a semantic change:

* a *property* battery drives 300 randomized descriptors (op x shape x
  stride x placement) through a cache-on and a cache-off system in
  lockstep and asserts every replayed execution is bit-identical to the
  fresh simulation, call by call and ledger by ledger;
* *stale-cache regressions* fire every invalidation source the system
  wires — injected faults, link failures, tile failures, governor
  throttle/offline/recovery, patrol-scrub repairs — and assert the
  affected entries are evicted and re-simulated;
* a *deliberately-stale* test constructs the nastiest case: a hazard
  that comes and goes between two identical calls (link flap-style
  fail + restore), leaving the *key* bit-identical while the world the
  entry was computed in changed. The entry must be caught as stale,
  never silently replayed.
"""

import dataclasses

import numpy as np
import pytest

from repro.accel.base import pack_strides
from repro.core import CATEGORIES, MealibSystem, ParamStore, ScheduleCache
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.thermal import AMBIENT_K, ThermalConfig

OPS = ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP", "RESHP")

TRIALS = 300


def make_system(**kwargs):
    return MealibSystem(stack_bytes=64 << 20, **kwargs)


def random_descriptor(rng):
    """One random (op, shape, stride, placement) descriptor spec.

    Shape comes from a continuous scale draw, placement from an aligned
    base shift applied to every operand address, and stride/loop
    structure from randomly wrapping the vector ops in a strided LOOP.
    """
    op = OPS[int(rng.integers(len(OPS)))]
    scale = float(rng.uniform(0.001, 0.004))
    params = TABLE2[op].params(scale)
    shift = int(rng.integers(0, 1 << 17)) * 64          # <= 8 MB, aligned
    params_type = type(params)
    params = dataclasses.replace(
        params, **{f: getattr(params, f) + shift
                   for f in params_type.ADDR_FIELDS})
    loop = 1
    strides = b""
    if op in ("AXPY", "DOT") and rng.random() < 0.5:
        loop = int(rng.integers(2, 5))
        elem = params.n * 4
        deltas = {f: (4 if f == "out_pa" else elem)
                  for f in params_type.ADDR_FIELDS}
        strides = pack_strides(params_type, deltas)
    if loop > 1:
        text = f"LOOP {loop} {{ PASS {{ COMP {op} w.para }} }}"
    else:
        text = f"PASS {{ COMP {op} w.para }}"
    return op, params, strides, text


def run_trial(system, spec, executes=2):
    """Plan one descriptor, execute it ``executes`` times, destroy it."""
    op, params, strides, text = spec
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    in_size = sum(s.total_bytes for s in streams if not s.is_write)
    out_size = sum(s.total_bytes for s in streams if s.is_write)
    store = ParamStore()
    store.add("w.para", params.pack() + strides)
    plan = system.runtime.acc_plan(text, store, in_size=in_size,
                                   out_size=out_size)
    results = [system.runtime.acc_execute(plan, functional=False)
               for _ in range(executes)]
    system.runtime.acc_destroy(plan)
    return results


def assert_ledgers_identical(a, b):
    for category in CATEGORIES:
        assert a.ledger.total(category) == b.ledger.total(category), (
            f"ledger[{category}] diverged between cache-on and "
            f"cache-off systems")


# -- property battery: cached replay == fresh simulation ----------------------


def test_property_battery_replay_bit_identical_over_300_trials():
    """300 randomized descriptors, each executed twice on a cache-on
    and a cache-off system in lockstep: every per-call ExecResult and
    every ledger category must match exactly, and every second call on
    the cached system must be a hit."""
    rng = np.random.default_rng(20260808)
    on = make_system(schedule_cache=True)
    off = make_system()
    for trial in range(TRIALS):
        spec = random_descriptor(rng)
        hits_before = on.schedule_cache.stats.hits
        got_on = run_trial(on, spec)
        got_off = run_trial(off, spec)
        assert got_on == got_off, (
            f"trial {trial} ({spec[0]}): cached replay diverged from "
            f"fresh simulation: {got_on!r} != {got_off!r}")
        assert on.schedule_cache.stats.hits == hits_before + 1, (
            f"trial {trial}: the repeated call did not hit the cache")
    assert_ledgers_identical(on, off)
    assert on.runtime.counters.cached_executes == TRIALS
    stats = on.schedule_cache.stats
    assert stats.hits == TRIALS
    assert stats.stale_evictions == 0
    # 300 distinct descriptors through a 256-entry LRU really overflow
    assert stats.capacity_evictions > 0
    assert len(on.schedule_cache) == on.schedule_cache.capacity


def test_replay_marks_cache_hit_and_counter():
    system = make_system(schedule_cache=True)
    rng = np.random.default_rng(7)
    run_trial(system, random_descriptor(rng), executes=3)
    assert system.runtime.counters.cached_executes == 2
    assert system.schedule_cache.stats.hits == 2
    assert system.schedule_cache.stats.misses == 1
    assert system.schedule_cache.hit_rate == pytest.approx(2 / 3)


# -- stale-cache regressions: every invalidation source -----------------------


AXPY_SPEC = ("AXPY", TABLE2["AXPY"].params(0.002), b"",
             "PASS { COMP AXPY w.para }")


def test_injected_fault_invalidates(tmp_path):
    faults = FaultInjector(seed=11)
    system = make_system(faults=faults, schedule_cache=True)
    run_trial(system, AXPY_SPEC)
    assert system.schedule_cache.stats.hits == 1
    # new latent flips landing must bump the fault epoch...
    faults.plant_latent_flips(64, [3])
    assert system.schedule_cache.stats.invalidations["fault"] == 1
    # ...and the next identical call must be caught stale, not replayed
    run_trial(system, AXPY_SPEC)
    assert system.schedule_cache.stats.stale_evictions >= 1


def test_link_failure_and_restore_invalidate():
    system = make_system(schedule_cache=True)
    cache = system.schedule_cache
    run_trial(system, AXPY_SPEC)
    system.layer.noc.fail_link(0, 1)
    assert cache.stats.invalidations["health"] == 1
    system.layer.noc.restore_link(0, 1)
    assert cache.stats.invalidations["health"] == 2
    # restoring a link that is not failed is not a transition
    system.layer.noc.restore_link(0, 1)
    assert cache.stats.invalidations["health"] == 2


def test_tile_failure_and_repair_invalidate():
    system = make_system(schedule_cache=True)
    cache = system.schedule_cache
    system.layer.mark_tile_failed(3)
    assert cache.stats.invalidations["health"] == 1
    system.layer.mark_tile_failed(3)          # already failed: no-op
    assert cache.stats.invalidations["health"] == 1
    system.layer.repair_tile(3)
    assert cache.stats.invalidations["health"] == 2


def test_deliberately_stale_entry_is_caught_not_replayed():
    """The nastiest staleness: a link fails and is restored *between*
    two identical calls. Serving tiles, reroutes, slowdown — the whole
    key — are bit-identical to the cached entry's, so only the epoch
    check stands between the second call and silently replaying an
    entry computed in a different world. It must be caught."""
    cached = make_system(schedule_cache=True)
    fresh = make_system()
    first_on = run_trial(cached, AXPY_SPEC, executes=1)
    first_off = run_trial(fresh, AXPY_SPEC, executes=1)
    assert first_on == first_off
    for system in (cached, fresh):
        system.layer.noc.fail_link(5, 6)
        system.layer.noc.restore_link(5, 6)
    second_on = run_trial(cached, AXPY_SPEC, executes=1)
    second_off = run_trial(fresh, AXPY_SPEC, executes=1)
    assert second_on == second_off
    stats = cached.schedule_cache.stats
    assert stats.stale_evictions == 1, (
        "the flapped-link entry was not caught as stale")
    assert stats.hits == 0
    assert stats.invalidations["health"] == 2


def test_degraded_key_separates_health_states():
    """Dead-tile and healthy executions never share entries, and the
    degraded replay is bit-identical to a fresh degraded simulation."""
    cached = make_system(schedule_cache=True)
    fresh = make_system()
    assert run_trial(cached, AXPY_SPEC) == run_trial(fresh, AXPY_SPEC)
    for system in (cached, fresh):
        system.layer.mark_tile_failed(0)
    got_on = run_trial(cached, AXPY_SPEC)
    got_off = run_trial(fresh, AXPY_SPEC)
    assert got_on == got_off
    assert got_on[0].time > 0.0
    # second degraded call replays the degraded entry
    assert cached.schedule_cache.stats.hits >= 2
    assert_ledgers_identical(cached, fresh)


def test_governor_transitions_invalidate_and_stay_identical():
    """A tight envelope makes the governor throttle mid-run: every
    state transition must bump the thermal epoch, and the cached run
    must stay bit-identical to the uncached one through the throttle
    and release transitions."""
    config = ThermalConfig(envelope=AMBIENT_K + 0.5)
    cached = make_system(thermal=config, schedule_cache=True)
    fresh = make_system(thermal=config)
    got_on = run_trial(cached, ("GEMV", TABLE2["GEMV"].params(0.016),
                                b"", "PASS { COMP GEMV w.para }"),
                       executes=4)
    got_off = run_trial(fresh, ("GEMV", TABLE2["GEMV"].params(0.016),
                                b"", "PASS { COMP GEMV w.para }"),
                        executes=4)
    assert got_on == got_off
    assert_ledgers_identical(cached, fresh)
    assert fresh.governor.stats.throttle_events > 0, (
        "the scenario no longer throttles; pick a heavier op")
    assert cached.schedule_cache.stats.invalidations["thermal"] > 0
    assert (cached.governor.stats.__dict__
            == fresh.governor.stats.__dict__)


def test_scrub_repair_invalidates():
    faults = FaultInjector(seed=5)
    system = make_system(faults=faults,
                         scrub=ScrubConfig(interval=1000),
                         schedule_cache=True)
    run_trial(system, AXPY_SPEC)
    faults.plant_latent_flips(128, [1])
    fault_invals = system.schedule_cache.stats.invalidations["fault"]
    assert fault_invals == 1
    system.scrubber.scrub()
    assert system.schedule_cache.stats.invalidations["scrub"] == 1
    # an empty patrol pass repairs nothing: no invalidation
    system.scrubber.scrub()
    assert system.schedule_cache.stats.invalidations["scrub"] == 1


def test_scrubbed_campaign_identical_with_cache():
    """Deposits + demand adjudication + patrol passes, cache on vs off:
    the whole seeded campaign must match call for call."""
    def build(cache):
        faults = FaultInjector(seed=4, latent_flip_rate=1e-5)
        return make_system(faults=faults,
                           scrub=ScrubConfig(interval=2),
                           schedule_cache=cache)

    spec = ("DOT", TABLE2["DOT"].params(0.016), b"",
            "PASS { COMP DOT w.para }")
    on_sys, off_sys = build(True), build(None)
    assert (run_trial(on_sys, spec, executes=6)
            == run_trial(off_sys, spec, executes=6))
    assert_ledgers_identical(on_sys, off_sys)
    assert (on_sys.runtime.counters.scrub_passes
            == off_sys.runtime.counters.scrub_passes)
    assert (on_sys.datapath.stats.words_corrected
            == off_sys.datapath.stats.words_corrected)


# -- ScheduleCache mechanics ---------------------------------------------------


def test_cache_rejects_bad_capacity_and_domain():
    with pytest.raises(ValueError):
        ScheduleCache(capacity=0)
    with pytest.raises(KeyError):
        ScheduleCache().invalidate("weather")


def test_lru_eviction_order():
    cache = ScheduleCache(capacity=2)
    execution_of = {}
    for key in ("a", "b"):
        assert cache.lookup(key) is None
    from repro.core.config_unit import DescriptorExecution
    from repro.metrics import ExecResult
    for key in ("a", "b"):
        execution_of[key] = DescriptorExecution(
            result=ExecResult(1.0, 1.0), by_accelerator={})
        cache.store(key, [], execution_of[key])
    assert cache.lookup("a") is not None      # refresh 'a'
    cache.store("c", [], execution_of["a"])
    assert len(cache) == 2
    assert cache.stats.capacity_evictions == 1
    assert cache.lookup("b") is None          # 'b' was the LRU victim
    assert cache.lookup("a") is not None


def test_replay_copies_containers():
    from repro.core.config_unit import DescriptorExecution
    from repro.metrics import ExecResult
    cache = ScheduleCache()
    template = DescriptorExecution(
        result=ExecResult(1.0, 2.0), by_accelerator={"AXPY":
                                                     ExecResult(1.0, 2.0)},
        overheads={"throttle": ExecResult(0.5, 0.5)}, vault_heat={0: 0.5})
    cache.store("k", [], template)
    template.by_accelerator["AXPY"] = ExecResult(9.0, 9.0)
    template.overheads["throttle"] = ExecResult(9.0, 9.0)
    template.overheads["contention"] = ExecResult(9.0, 9.0)
    template.vault_heat[0] = 9.0
    replayed = cache.lookup("k").replay()
    assert replayed.by_accelerator["AXPY"] == ExecResult(1.0, 2.0)
    assert replayed.overheads == {"throttle": ExecResult(0.5, 0.5)}
    assert replayed.vault_heat == {0: 0.5}
    assert replayed.cache_hit is True
    replayed.vault_heat[0] = 7.0              # caller-side mutation
    replayed.overheads.clear()
    again = cache.lookup("k").replay()
    assert again.vault_heat == {0: 0.5}
    assert again.overheads == {"throttle": ExecResult(0.5, 0.5)}


def test_clear_drops_entries_but_keeps_stats():
    cache = ScheduleCache()
    from repro.core.config_unit import DescriptorExecution
    from repro.metrics import ExecResult
    cache.store("k", [], DescriptorExecution(
        result=ExecResult(1.0, 1.0), by_accelerator={}))
    assert cache.lookup("k") is not None
    cache.clear()
    assert len(cache) == 0
    assert cache.lookup("k") is None
    assert cache.stats.hits == 1

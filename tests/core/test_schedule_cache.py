"""Schedule-cache battery: replay identity under every hazard.

The cache keys each execution on the whole model input, so a replay can
never be stale. Four layers of evidence that caching is *free* — purely
a speedup, never a semantic change:

* a *property* battery drives 300 randomized descriptors (op x shape x
  stride x placement) through a cache-on and a cache-off system in
  lockstep and asserts every replayed execution is bit-identical to the
  fresh simulation, call by call and ledger by ledger;
* a *directed key* test pins the one input that only matters deep in
  degradation: with a single serving tile, failing a link on its
  reroute paths moves hop counts (and energy) but not the reroute map,
  so the hop counts must be part of the key; a *purity* test runs the
  model step with the live layer, mesh and governor replaced by
  sentinels and gets the live record back;
* *replay-identity* tests put every hazard the system has — injected
  and planted faults, link and tile failures and repairs, governor
  throttle/release, patrol scrubs — between two calls and assert the
  cached system stays bit-identical to an uncached one; a hazard that
  is undone (link fail + restore) returns to a key whose entry is exact
  and replays it;
* a seeded *hazard lockstep* battery mixes all of the above at random,
  heavily degraded states included.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.accel import AxpyParams
from repro.accel.base import pack_strides
from repro.core import (CATEGORIES, MealibSystem, ParamStore, ScheduleCache,
                        verify_ledger)
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.metrics import ExecResult
from repro.thermal import AMBIENT_K, ThermalConfig
from tests.core.helpers import record_executes, record_executions

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


def make_plan(system, spec):
    op, params, strides, text = spec
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    in_size = sum(s.total_bytes for s in streams if not s.is_write)
    out_size = sum(s.total_bytes for s in streams if s.is_write)
    store = ParamStore()
    store.add("w.para", params.pack() + strides)
    return system.runtime.acc_plan(text, store, in_size=in_size,
                                   out_size=out_size)


def run_trial(system, spec, executes=2):
    """Plan one descriptor, execute it ``executes`` times, destroy it."""
    plan = make_plan(system, spec)
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


def test_property_battery_replay_bit_identical_over_300_trials(
        monkeypatch):
    """300 randomized descriptors, each executed twice on a cache-on
    and a cache-off system in lockstep: every per-call ExecResult and
    every ledger category must match exactly, both ledgers must pass
    the ledger checker, and every second call on the cached system must
    be a hit."""
    rng = np.random.default_rng(20260808)
    on = make_system(schedule_cache=True)
    off = make_system()
    executes = {id(s): record_executes(monkeypatch, s) for s in (on, off)}
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
    for system in (on, off):
        verify_ledger(system.ledger, executes[id(system)])
    stats = on.schedule_cache.stats
    assert stats.hits == TRIALS
    # 300 distinct descriptors through a 256-entry LRU really overflow
    assert stats.capacity_evictions > 0
    assert len(on.schedule_cache) == on.schedule_cache.capacity


def test_repeated_descriptor_hits_are_counted_by_the_cache():
    system = make_system(schedule_cache=True)
    rng = np.random.default_rng(7)
    run_trial(system, random_descriptor(rng), executes=3)
    assert system.schedule_cache.stats.hits == 2
    assert system.schedule_cache.stats.misses == 1
    assert system.schedule_cache.stats.hit_rate == pytest.approx(2 / 3)


def test_hit_and_miss_take_the_same_live_path(monkeypatch):
    """A hit skips only decode and the model: the datapath guard runs
    once per execute and the functional run once per plan, on the miss
    that fills the entry and on the hit that uses it alike."""
    from repro.core.config_unit import ConfigurationUnit
    from repro.faults.datapath import DatapathEcc
    calls = {"guard": 0, "functional": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DatapathEcc, "guard",
                        counting("guard", DatapathEcc.guard))
    monkeypatch.setattr(ConfigurationUnit, "run_functional",
                        counting("functional",
                                 ConfigurationUnit.run_functional))
    system = make_system(faults=FaultInjector(seed=3), schedule_cache=True)
    n = 256
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 0.0
    store = ParamStore()
    store.add("a.para", AxpyParams(n=n, alpha=1.0, x_pa=xb.pa,
                                   y_pa=yb.pa).pack())
    plan = system.runtime.acc_plan(
        "PASS { COMP AXPY a.para } PASS { COMP AXPY a.para }", store,
        in_size=n * 8, out_size=n * 4)
    per_call = []
    for _ in range(2):
        before = dict(calls)
        system.runtime.acc_execute(plan)
        per_call.append({k: calls[k] - before[k] for k in calls})
    stats = system.schedule_cache.stats
    assert (stats.hits, stats.misses) == (1, 1)
    assert per_call == [{"guard": 1, "functional": 2}] * 2
    np.testing.assert_array_equal(y, np.full(n, 4.0, np.float32))


# -- the key names every model input ------------------------------------------


AXPY_SPEC = ("AXPY", TABLE2["AXPY"].params(0.002), b"",
             "PASS { COMP AXPY w.para }")


def test_route_hop_counts_are_in_the_key():
    """Fifteen dead tiles reroute every stripe to tile 15. Failing
    link (14, 15) leaves the serving set and the reroute map exactly as
    they were, but vault 14's stripe now detours, so its route hop
    count and the energy move. The second call must miss and match a
    cache-off system."""
    spec = ("AXPY", TABLE2["AXPY"].params(0.004), b"",
            "PASS { COMP AXPY w.para }")
    results = {}
    for cache in (True, False):
        system = make_system(schedule_cache=cache)
        for vault in range(15):
            system.layer.mark_tile_failed(vault)
        plan = make_plan(system, spec)
        first = system.runtime.acc_execute(plan, functional=False)
        reroutes = system.layer.reroute_map()
        system.layer.noc.fail_link(14, 15)
        assert system.layer.reroute_map() == reroutes
        second = system.runtime.acc_execute(plan, functional=False)
        results[cache] = (first, second, system)
    (first, second, cached), (_, second_off, fresh) = (results[True],
                                                      results[False])
    assert first.energy == 0.0063008035318491
    assert second.energy == 0.0063056372094741
    assert second == second_off
    assert cached.schedule_cache.stats.hits == 0
    assert cached.schedule_cache.stats.misses == 2
    assert_ledgers_identical(cached, fresh)


def untouchable(name):
    """A stand-in for live state that fails on any attribute access."""
    class Untouchable:
        def __getattribute__(self, attr):
            raise AssertionError(f"the model step read {name}.{attr}")
    return Untouchable()


@pytest.mark.parametrize("thermal", [None, ThermalConfig()],
                         ids=["no_governor", "governor"])
def test_model_step_reads_only_its_input(monkeypatch, thermal):
    """The model step is a function of the decoded plans and its
    ``ModelInput`` alone. Capture a live degraded, detoured and
    contended execute, swap the configuration unit's layer, mesh and
    governor for sentinels, and model the same input again: the record
    must equal the live one."""
    system = make_system(thermal=thermal)
    cu = system.config_unit
    model = cu._model
    seen = []

    def recording(plans, inp):
        seen.append((plans, inp, model(plans, inp)))
        return seen[-1][2]

    monkeypatch.setattr(cu, "_model", recording)
    for vault in range(15):
        system.layer.mark_tile_failed(vault)
    system.layer.noc.fail_link(14, 15)
    plan = make_plan(system, AXPY_SPEC)
    system.runtime.acc_execute(plan, functional=False, concurrency=2)
    [(plans, inp, live)] = seen
    assert inp.serving == (15,)
    assert (14, 15, 3) in inp.reroutes
    assert inp.contention == 2.0
    assert set(live.overheads) == {"reroute", "contention"}
    assert (live.vault_heat is None) == (thermal is None)
    for name in ("noc", "layer", "governor"):
        setattr(cu, name, untouchable(name))
    assert model(plans, inp) == live


# -- replay identity: hazards between calls ------------------------------------


def lockstep(build, spec, hazards):
    """Run ``spec`` once, then once after each hazard, on a cache-on and
    a cache-off system built by ``build``; returns both systems after
    asserting every call matched."""
    on, off = build(True), build(False)
    plans = {id(s): make_plan(s, spec) for s in (on, off)}
    for step, hazard in enumerate([None, *hazards]):
        got = []
        for system in (on, off):
            if hazard is not None:
                hazard(system)
            got.append(system.runtime.acc_execute(plans[id(system)],
                                                  functional=False))
        assert got[0] == got[1], f"call {step} diverged: {got!r}"
    assert_ledgers_identical(on, off)
    return on, off


def test_planted_flip_replays_and_is_adjudicated_live():
    """A latent flip in the operand footprint does not change the model
    input: the next call replays, and the datapath SECDED guard — which
    runs live on every call — corrects the word exactly as it does on
    the uncached system."""
    x_pa = AXPY_SPEC[1].x_pa
    on, off = lockstep(
        lambda cache: make_system(faults=FaultInjector(seed=11),
                                  schedule_cache=cache),
        AXPY_SPEC, [lambda s: s.faults.plant_latent_flips(x_pa, [3])])
    assert on.schedule_cache.stats.hits == 1
    assert on.datapath.stats.words_corrected == 1
    assert on.datapath.stats == off.datapath.stats
    assert on.faults.stats == off.faults.stats


def test_link_failure_and_restore_invalidate():
    """The key holds route hop counts, not the failed-link set. On a
    healthy layer no stripe is rerouted, so failing link (0, 1) changes
    no model input and replays; restoring it, and restoring it again,
    replay too. Every replay matches the cache-off system."""
    on, _ = lockstep(
        lambda cache: make_system(schedule_cache=cache), AXPY_SPEC,
        [lambda s: s.layer.noc.fail_link(0, 1),
         lambda s: s.layer.noc.restore_link(0, 1),
         lambda s: s.layer.noc.restore_link(0, 1)])
    stats = on.schedule_cache.stats
    assert (stats.hits, stats.misses) == (3, 1)


def test_tile_failure_and_repair_invalidate():
    """A tile failure moves the key (a miss); failing it again is a
    no-op that replays the degraded entry, and repairing it returns to
    the healthy key, whose entry is exact and replays."""
    on, _ = lockstep(
        lambda cache: make_system(schedule_cache=cache), AXPY_SPEC,
        [lambda s: s.layer.mark_tile_failed(3),
         lambda s: s.layer.mark_tile_failed(3),
         lambda s: s.layer.repair_tile(3)])
    stats = on.schedule_cache.stats
    assert (stats.hits, stats.misses) == (2, 2)


def test_flap_between_calls_replays_bit_identical():
    """A link fails and is restored *between* two identical calls. The
    world is back where the entry was computed, so the second call is a
    hit, and it matches a fresh simulation bit for bit."""
    def flap(system):
        system.layer.noc.fail_link(5, 6)
        system.layer.noc.restore_link(5, 6)

    on, _ = lockstep(lambda cache: make_system(schedule_cache=cache),
                     AXPY_SPEC, [flap])
    stats = on.schedule_cache.stats
    assert (stats.hits, stats.misses) == (1, 1)


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


def test_governor_transitions_stay_identical():
    """A tight envelope makes the governor throttle mid-run: the
    throttled state is part of the key, and the cached run must stay
    bit-identical to the uncached one through the throttle and release
    transitions."""
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
    assert cached.schedule_cache.stats.misses > 1
    assert (cached.governor.stats.__dict__
            == fresh.governor.stats.__dict__)


def test_scrub_repair_between_calls_replays_bit_identical():
    """A patrol pass that drains a planted flip changes memory, not the
    model input: the next call replays, identical to the uncached
    system's."""
    def plant_and_scrub(system):
        system.faults.plant_latent_flips(AXPY_SPEC[1].y_pa, [1])
        system.scrubber.scrub()

    on, off = lockstep(
        lambda cache: make_system(faults=FaultInjector(seed=5),
                                  scrub=ScrubConfig(interval=1000),
                                  schedule_cache=cache),
        AXPY_SPEC, [plant_and_scrub])
    assert on.schedule_cache.stats.hits == 1
    assert on.scrubber.stats.words_corrected == 1
    assert on.scrubber.stats == off.scrubber.stats


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
    on_sys, off_sys = build(True), build(False)
    assert (run_trial(on_sys, spec, executes=6)
            == run_trial(off_sys, spec, executes=6))
    assert_ledgers_identical(on_sys, off_sys)
    assert (on_sys.runtime.counters.scrub_passes
            == off_sys.runtime.counters.scrub_passes)
    assert (on_sys.datapath.stats.words_corrected
            == off_sys.datapath.stats.words_corrected)


# -- ScheduleCache mechanics ---------------------------------------------------


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ScheduleCache(capacity=0)
    for value in (2.5, True, None):
        with pytest.raises(TypeError, match="capacity"):
            ScheduleCache(capacity=value)


@pytest.mark.parametrize("value", [None, 1, ScheduleCache()])
def test_schedule_cache_option_is_a_bool(value):
    """A cache is never shared: its key does not name the device or the
    layer, so a second system would replay the first one's results."""
    with pytest.raises(TypeError):
        make_system(schedule_cache=value)


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
    """Neither the execution a miss returned (and stored) nor the one a
    hit hands out aliases the stored record: mutating either cannot
    change a later hit."""
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
    plans, hit = cache.lookup("k")
    assert plans == ()
    assert hit.by_accelerator["AXPY"] == ExecResult(1.0, 2.0)
    assert hit.overheads == {"throttle": ExecResult(0.5, 0.5)}
    assert hit.vault_heat == {0: 0.5}
    hit.vault_heat[0] = 7.0                   # caller-side mutation
    hit.overheads.clear()
    hit.by_accelerator.clear()
    _, again = cache.lookup("k")
    assert again.by_accelerator == {"AXPY": ExecResult(1.0, 2.0)}
    assert again.vault_heat == {0: 0.5}
    assert again.overheads == {"throttle": ExecResult(0.5, 0.5)}


def test_mutating_a_returned_execution_cannot_change_a_later_hit(
        monkeypatch):
    """Through the configuration unit: the execution a miss returns and
    the ones hits return are each the caller's own to mutate."""
    system = make_system(schedule_cache=True)
    seen = record_executions(monkeypatch, system)
    plan = make_plan(system, AXPY_SPEC)
    pristine = []
    for _ in range(3):
        system.runtime.acc_execute(plan, functional=False)
        pristine.append(copy.deepcopy(seen[-1]))
        seen[-1].by_accelerator.clear()
        seen[-1].overheads["contention"] = ExecResult(9.0, 9.0)
    assert system.schedule_cache.stats.hits == 2
    assert pristine[0] == pristine[1] == pristine[2]
    assert list(pristine[2].by_accelerator) == ["AXPY"]
    assert pristine[2].overheads == {}


# -- seeded hazard lockstep battery ---------------------------------------------


HAZARD_SEQUENCES = 24
HAZARD_STEPS = 8


def build_hazard_system(cache, seed, thermal):
    return make_system(
        faults=FaultInjector(seed=seed, latent_flip_rate=2e-9,
                             link_flap_rate=0.1),
        scrub=ScrubConfig(interval=3),
        thermal=(ThermalConfig(envelope=AMBIENT_K + 0.5) if thermal
                 else None),
        schedule_cache=cache)


def draw_hazard(rng, specs):
    """One random hazard, as a function applied to each system alike.

    Tile failures come in two sizes: a few tiles, or all but one — the
    deep degradation where every stripe rides the mesh to one tile and
    a single failed link moves the hop counts."""
    kind = int(rng.integers(8))
    if kind == 1:
        pick = int(rng.integers(1 << 16))

        def hazard(system):
            links = system.layer.noc.healthy_links()
            if links:
                system.layer.noc.fail_link(*links[pick % len(links)])
    elif kind == 2:
        pick = int(rng.integers(1 << 16))

        def hazard(system):
            failed = sorted(system.layer.noc.failed_links)
            if failed:
                system.layer.noc.restore_link(*failed[pick % len(failed)])
    elif kind == 3:
        keep = int(rng.integers(16))
        dead = ([v for v in range(16) if v != keep] if rng.random() < 0.5
                else [int(v) for v in rng.choice(16, size=3,
                                                 replace=False)])

        def hazard(system):
            for vault in dead:
                system.layer.mark_tile_failed(vault)
    elif kind == 4:
        def hazard(system):
            for vault in system.layer.failed_tiles():
                if system.governor is None \
                        or vault not in system.governor.offline:
                    system.layer.repair_tile(vault)
    elif kind == 5:
        spec = specs[int(rng.integers(len(specs)))]
        field = type(spec[1]).ADDR_FIELDS[0]
        addr = getattr(spec[1], field) + int(rng.integers(64)) * 8
        bits = [int(b) for b in rng.choice(64, size=int(rng.integers(1, 3)),
                                           replace=False)]

        def hazard(system):
            system.faults.plant_latent_flips(addr, bits)
    elif kind == 6:
        def hazard(system):
            system.scrubber.scrub()
    else:
        def hazard(system):
            pass
    return hazard


def assert_systems_identical(on, off):
    assert on.ledger.entries == off.ledger.entries
    assert on.runtime.counters == off.runtime.counters
    assert on.faults.stats == off.faults.stats
    assert on.datapath.stats == off.datapath.stats
    assert on.scrubber.stats == off.scrubber.stats
    assert on.layer.failed_tiles() == off.layer.failed_tiles()
    assert on.layer.noc.failed_links == off.layer.noc.failed_links
    if on.governor is not None:
        assert on.governor.stats == off.governor.stats
        assert on.governor.state == off.governor.state
        assert (on.thermal.temps.tolist()
                == off.thermal.temps.tolist())


def test_hazard_lockstep_battery(monkeypatch):
    """Seeded random hazard sequences — link fail/restore and in-execute
    flaps, tile failures down to one serving tile and repairs, planted
    single and double flips, latent deposits, patrol scrubs, DVFS
    throttling, concurrency 1–2 — run on a cache-on and a cache-off
    system in lockstep. Every call, ledger entry, counter and fault,
    datapath, scrub and governor statistic must match, every execute's
    ledgered costs must fold to the cost it returned, and the cache
    must really replay, in deep degradation too."""
    rng = np.random.default_rng(20261017)
    hits = deep_hits = 0
    for seq in range(HAZARD_SEQUENCES):
        thermal = seq % 2 == 1
        on = build_hazard_system(True, seq, thermal)
        off = build_hazard_system(False, seq, thermal)
        specs = [random_descriptor(rng) for _ in range(2)]
        plans = {id(s): [make_plan(s, spec) for spec in specs]
                 for s in (on, off)}
        executes = {id(s): record_executes(monkeypatch, s)
                    for s in (on, off)}
        for step in range(HAZARD_STEPS):
            hazard = draw_hazard(rng, specs)
            which = int(rng.integers(len(specs)))
            concurrency = int(rng.integers(1, 3))
            replays = on.schedule_cache.stats.hits
            got = []
            for system in (on, off):
                hazard(system)
                got.append(system.runtime.acc_execute(
                    plans[id(system)][which], functional=False,
                    concurrency=concurrency))
            assert got[0] == got[1], (
                f"sequence {seq} step {step}: {got[0]!r} != {got[1]!r}")
            if on.schedule_cache.stats.hits > replays:
                hits += 1
                deep_hits += len(on.layer.serving_tiles()) <= 4
        assert_systems_identical(on, off)
        verify_ledger(on.ledger, executes[id(on)])
        verify_ledger(off.ledger, executes[id(off)])
    assert hits > HAZARD_SEQUENCES
    assert deep_hits > 0

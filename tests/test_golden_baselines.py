"""Golden fault-free and degraded-mode regression baselines.

Runs a fixed workload matrix (DOT, AXPY, GEMV, SPMV, FFT, RESMP at
three sizes) through a pristine :class:`MealibSystem` and asserts the
modelled time, energy and ledger totals match the checked-in JSON
*exactly* — bit-for-bit and joule-for-joule. A second, seeded matrix
pins the *degraded* paths: every op once with one dead tile (per-vault
fallback reroutes its stripes) and once with one failed mesh link
(adaptive rerouting detours around it). A third pins the *scrub-on*
path: every op under seeded latent cell upsets with the background
patrol scrubber armed (in-datapath SECDED adjudication + patrol
draining, both deterministic from the injector's dedicated PRNG
stream). A fourth pins the *thermal-on* path: every op heating the
per-vault RC network under a tight power envelope, with throttle
pricing and Arrhenius-thinned deposits both deterministic. The
thermal-off sections are computed exactly as in schema v3 — the
thermal subsystem must never perturb them. Every section additionally
reruns with the descriptor-keyed schedule cache armed
(``schedule_cache=True``) and must stay byte-identical to the very
same golden entries — cached replay is an optimization of the
simulation, never a different model. Any PR that drifts any
model must regenerate the baselines on purpose:

    PYTHONPATH=src python tests/test_golden_baselines.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import MealibSystem, ParamStore
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.thermal import AMBIENT_K, ThermalConfig

GOLDEN_PATH = Path(__file__).parent / "golden_baselines.json"

SCHEMA = "golden-baselines/v4"

#: The pinned workload matrix: op x data-set scale.
OPS = ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP")
SCALES = (0.004, 0.016, 0.064)

#: Degraded-mode matrix: every op at one scale, one fault each.
DEGRADED_SCALE = 0.016
DEGRADED_MODES = ("dead-tile", "failed-link")
FAULT_SEED = 4

#: Scrub-on matrix: seeded latent upsets + patrol every 2nd execute.
SCRUB_INTERVAL = 2
SCRUB_EXECUTES = 4
SCRUB_RATE = 1e-5

#: Thermal-on matrix: a tight envelope just above ambient so the
#: heavier ops really throttle, plus seeded Arrhenius-thinned upsets.
THERMAL_MARGIN = 0.5
THERMAL_EXECUTES = 4
THERMAL_RATE = 1e-5

#: Ledger categories that must stay exactly zero on a fault-free run.
RESILIENCE_CATEGORIES = ("fault", "retry", "reroute", "fallback")

#: Ledger categories recorded in the golden file.
LEDGER_CATEGORIES = ("invocation", "accelerator")


def _execute_op(system: MealibSystem, op: str, scale: float):
    """Build and execute one op's descriptor on the given system."""
    params = TABLE2[op].params(scale)
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    in_size = sum(s.total_bytes for s in streams if not s.is_write)
    out_size = sum(s.total_bytes for s in streams if s.is_write)
    store = ParamStore()
    store.add("w.para", params.pack())
    plan = system.runtime.acc_plan(
        f"PASS {{ COMP {op} w.para }}", store,
        in_size=in_size, out_size=out_size)
    return system.runtime.acc_execute(plan, functional=False)


def run_workload(op: str, scale: float, cache: bool = False):
    """One op at one scale on a fresh, fault-free system."""
    system = MealibSystem(stack_bytes=64 << 20, schedule_cache=cache)
    result = _execute_op(system, op, scale)
    for category in RESILIENCE_CATEGORIES:
        total = system.ledger.total(category)
        assert total.time == 0.0 and total.energy == 0.0, (
            f"fault-free {op}@{scale} leaked into {category!r}")
    ledger = {}
    for category in LEDGER_CATEGORIES:
        total = system.ledger.total(category)
        ledger[category] = [total.time, total.energy]
    return {"time": result.time, "energy": result.energy,
            "ledger": ledger}


def run_degraded(op: str, mode: str, cache: bool = False):
    """One op on a system with a single seeded hardware fault."""
    system = MealibSystem(stack_bytes=64 << 20,
                          faults=FaultInjector(seed=FAULT_SEED),
                          schedule_cache=cache)
    if mode == "dead-tile":
        system.layer.mark_tile_failed(0)
    elif mode == "failed-link":
        noc = system.layer.noc
        links = noc.links()
        rng = np.random.default_rng(FAULT_SEED)
        idx = int(rng.permutation(len(links))[0])
        noc.fail_link(*links[idx])
    else:
        raise ValueError(f"unknown degraded mode {mode!r}")
    result = _execute_op(system, op, DEGRADED_SCALE)
    counters = system.runtime.counters
    reroute = system.ledger.total("reroute")
    fallback = system.ledger.total("fallback")
    return {"time": result.time, "energy": result.energy,
            "availability": counters.availability,
            "reroute": [reroute.time, reroute.energy],
            "fallback": [fallback.time, fallback.energy]}


def run_scrubbed(op: str, cache: bool = False):
    """One op under seeded latent upsets with patrol scrubbing armed.

    Every layer of the new machinery runs: deposits land each execute
    (dedicated PRNG stream, so the sequence is exact), the in-datapath
    SECDED guard adjudicates the operand footprint at each fetch, and
    the patrol pass drains whatever sits at rest every
    ``SCRUB_INTERVAL`` executes, charging the ``scrub`` ledger.
    """
    faults = FaultInjector(seed=FAULT_SEED, latent_flip_rate=SCRUB_RATE)
    system = MealibSystem(stack_bytes=64 << 20, faults=faults,
                          scrub=ScrubConfig(interval=SCRUB_INTERVAL),
                          schedule_cache=cache)
    time = energy = 0.0
    for _ in range(SCRUB_EXECUTES):
        result = _execute_op(system, op, DEGRADED_SCALE)
        time += result.time
        energy += result.energy
    counters = system.runtime.counters
    fault = system.ledger.total("fault")
    scrub = system.ledger.total("scrub")
    return {"time": time, "energy": energy,
            "fault": [fault.time, fault.energy],
            "scrub": [scrub.time, scrub.energy],
            "scrub_passes": counters.scrub_passes,
            "ecc_corrections": counters.ecc_corrections,
            "demand_corrected": system.datapath.stats.words_corrected,
            "scrub_corrected": system.scrubber.stats.words_corrected,
            "deposited": faults.stats.latent_flips_deposited}


def run_thermal(op: str, cache: bool = False):
    """One op heating the RC network under a tight power envelope.

    Every thermal layer runs deterministically: the per-pass joule
    attribution drives the RC integration, the governor throttles once
    the envelope (``THERMAL_MARGIN`` kelvin above ambient) is crossed
    and prices the DVFS stretch into the ``throttle`` ledger, and the
    seeded latent upsets deposit through the Arrhenius thinning path.
    The accelerator ledger keeps exactly the nominal share.
    """
    faults = FaultInjector(seed=FAULT_SEED, latent_flip_rate=THERMAL_RATE)
    system = MealibSystem(
        stack_bytes=64 << 20, faults=faults,
        thermal=ThermalConfig(envelope=AMBIENT_K + THERMAL_MARGIN),
        schedule_cache=cache)
    time = energy = 0.0
    for _ in range(THERMAL_EXECUTES):
        result = _execute_op(system, op, DEGRADED_SCALE)
        time += result.time
        energy += result.energy
    counters = system.runtime.counters
    throttle = system.ledger.total("throttle")
    accelerator = system.ledger.total("accelerator")
    return {"time": time, "energy": energy,
            "peak_vault_k": system.thermal.peak_vault_temp,
            "peak_logic_k": system.thermal.peak_logic,
            "throttle": [throttle.time, throttle.energy],
            "accelerator": [accelerator.time, accelerator.energy],
            "throttle_events": system.governor.stats.throttle_events,
            "throttled_executes": counters.throttled_executes,
            "availability": counters.availability,
            "retries": counters.retries,
            "ecc_corrections": counters.ecc_corrections,
            "deposited": faults.stats.latent_flips_deposited}


def compute_baselines():
    return {
        "schema": SCHEMA,
        "note": ("Exact fault-free, seeded degraded-mode, seeded "
                 "scrub-on and seeded thermal-on time/energy/ledger "
                 "values. Regenerate deliberately with: PYTHONPATH=src "
                 "python tests/test_golden_baselines.py"),
        "workloads": {f"{op}@{scale}": run_workload(op, scale)
                      for op in OPS for scale in SCALES},
        "degraded": {f"{op}@{mode}": run_degraded(op, mode)
                     for op in OPS for mode in DEGRADED_MODES},
        "scrubbed": {op: run_scrubbed(op) for op in OPS},
        "thermal": {op: run_thermal(op) for op in OPS},
    }


def load_golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with: PYTHONPATH=src "
        "python tests/test_golden_baselines.py")
    return load_golden()


def test_schema_and_coverage(golden):
    assert golden["schema"] == SCHEMA
    expected = {f"{op}@{scale}" for op in OPS for scale in SCALES}
    assert set(golden["workloads"]) == expected
    degraded = {f"{op}@{mode}" for op in OPS for mode in DEGRADED_MODES}
    assert set(golden["degraded"]) == degraded
    assert set(golden["scrubbed"]) == set(OPS)
    assert set(golden["thermal"]) == set(OPS)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("op", OPS)
def test_fault_free_model_matches_golden_exactly(golden, op, scale):
    recorded = golden["workloads"][f"{op}@{scale}"]
    fresh = run_workload(op, scale)
    # exact float equality on purpose: JSON round-trips IEEE doubles
    # losslessly, so any mismatch is genuine model drift
    assert fresh["time"] == recorded["time"], (
        f"{op}@{scale} time drifted: {fresh['time']!r} != "
        f"{recorded['time']!r}")
    assert fresh["energy"] == recorded["energy"], (
        f"{op}@{scale} energy drifted: {fresh['energy']!r} != "
        f"{recorded['energy']!r}")
    for category in LEDGER_CATEGORIES:
        assert fresh["ledger"][category] == recorded["ledger"][category], (
            f"{op}@{scale} ledger[{category}] drifted")


def test_runs_are_reproducible_within_session():
    assert run_workload("AXPY", SCALES[0]) == run_workload(
        "AXPY", SCALES[0])


@pytest.mark.parametrize("mode", DEGRADED_MODES)
@pytest.mark.parametrize("op", OPS)
def test_degraded_model_matches_golden_exactly(golden, op, mode):
    recorded = golden["degraded"][f"{op}@{mode}"]
    fresh = run_degraded(op, mode)
    assert fresh == recorded, (
        f"{op}@{mode} degraded baseline drifted: {fresh!r} != "
        f"{recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_scrubbed_model_matches_golden_exactly(golden, op):
    recorded = golden["scrubbed"][op]
    fresh = run_scrubbed(op)
    assert fresh == recorded, (
        f"{op} scrub-on baseline drifted: {fresh!r} != {recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_scrubbed_runs_really_scrub(golden, op):
    point = golden["scrubbed"][op]
    # the patrol fired on schedule and charged the scrub ledger
    assert point["scrub_passes"] == SCRUB_EXECUTES // SCRUB_INTERVAL
    assert point["scrub"][0] > 0.0 and point["scrub"][1] > 0.0
    # seeded upsets really landed and were adjudicated somewhere
    assert point["deposited"] > 0
    assert point["scrub_corrected"] + point["demand_corrected"] > 0


@pytest.mark.parametrize("op", OPS)
def test_thermal_model_matches_golden_exactly(golden, op):
    recorded = golden["thermal"][op]
    fresh = run_thermal(op)
    assert fresh == recorded, (
        f"{op} thermal-on baseline drifted: {fresh!r} != {recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_thermal_runs_really_heat_and_never_drop(golden, op):
    point = golden["thermal"][op]
    # the RC network really integrated the run above ambient...
    assert point["peak_vault_k"] > AMBIENT_K
    assert point["peak_logic_k"] > AMBIENT_K
    # ...and throttling is pricing, never refusal
    assert point["availability"] == 1.0
    # the stretch is priced into `throttle` exactly when it happened
    throttled = point["throttled_executes"] > 0
    assert (point["throttle"][0] > 0.0) == throttled
    assert (point["throttle"][1] > 0.0) == throttled


def test_some_op_crosses_the_tight_envelope(golden):
    # the pinned margin is chosen so the heavier ops genuinely trip the
    # governor: the matrix pins real throttle pricing, not a no-op
    assert any(point["throttled_executes"] > 0
               for point in golden["thermal"].values())


@pytest.mark.parametrize("op", OPS)
def test_throttle_never_reprices_the_nominal_share(op):
    # paired fault-free runs (the v3 sections of the golden file are
    # computed with no thermal model at all; their exact-match tests
    # above already prove thermal-off is unperturbed): under a tight
    # envelope the accelerator ledger stays bit-identical to the
    # thermal-off run's, and the total is exactly the clean total plus
    # the ledgered DVFS stretch — frequency-only throttling never
    # reprices the nominal share
    hot_sys = MealibSystem(
        stack_bytes=64 << 20,
        thermal=ThermalConfig(envelope=AMBIENT_K + THERMAL_MARGIN))
    clean_sys = MealibSystem(stack_bytes=64 << 20)
    hot_time = hot_energy = clean_time = clean_energy = 0.0
    for _ in range(THERMAL_EXECUTES):
        hot = _execute_op(hot_sys, op, DEGRADED_SCALE)
        clean = _execute_op(clean_sys, op, DEGRADED_SCALE)
        hot_time += hot.time
        hot_energy += hot.energy
        clean_time += clean.time
        clean_energy += clean.energy
    assert (hot_sys.ledger.total("accelerator")
            == clean_sys.ledger.total("accelerator"))
    throttle = hot_sys.ledger.total("throttle")
    assert hot_sys.runtime.counters.throttled_executes > 0
    assert hot_time == pytest.approx(clean_time + throttle.time,
                                     rel=1e-12)
    assert hot_energy == pytest.approx(clean_energy + throttle.energy,
                                       rel=1e-12)


# -- the full v4 matrix again, with the schedule cache armed ------------------
#
# The cache must be joule-exact and bit-identical: every section of the
# golden file is recomputed on a cache-enabled system and compared to
# the *same* recorded entries the cache-off tests above pin. The
# scrubbed/thermal sections repeat each descriptor four times, so they
# really exercise replay across hazards (latent deposits, governor
# state changes and patrol repairs all happen mid-matrix).


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("op", OPS)
def test_fault_free_cache_on_matches_golden_exactly(golden, op, scale):
    recorded = golden["workloads"][f"{op}@{scale}"]
    fresh = run_workload(op, scale, cache=True)
    assert fresh == recorded, (
        f"{op}@{scale} drifted with schedule cache on: {fresh!r} != "
        f"{recorded!r}")


@pytest.mark.parametrize("mode", DEGRADED_MODES)
@pytest.mark.parametrize("op", OPS)
def test_degraded_cache_on_matches_golden_exactly(golden, op, mode):
    recorded = golden["degraded"][f"{op}@{mode}"]
    fresh = run_degraded(op, mode, cache=True)
    assert fresh == recorded, (
        f"{op}@{mode} drifted with schedule cache on: {fresh!r} != "
        f"{recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_scrubbed_cache_on_matches_golden_exactly(golden, op):
    recorded = golden["scrubbed"][op]
    fresh = run_scrubbed(op, cache=True)
    assert fresh == recorded, (
        f"{op} scrub-on drifted with schedule cache on: {fresh!r} != "
        f"{recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_thermal_cache_on_matches_golden_exactly(golden, op):
    recorded = golden["thermal"][op]
    fresh = run_thermal(op, cache=True)
    assert fresh == recorded, (
        f"{op} thermal-on drifted with schedule cache on: {fresh!r} != "
        f"{recorded!r}")


@pytest.mark.parametrize("op", OPS)
def test_dead_tile_reroutes_without_fallback(golden, op):
    point = golden["degraded"][f"{op}@dead-tile"]
    # one dead tile costs reroute bandwidth, never the accelerated path
    assert point["availability"] == 1.0
    assert point["fallback"] == [0.0, 0.0]
    assert point["reroute"][0] > 0.0


@pytest.mark.parametrize("op", OPS)
def test_degraded_never_beats_fault_free(golden, op):
    clean = golden["workloads"][f"{op}@{DEGRADED_SCALE}"]
    for mode in DEGRADED_MODES:
        point = golden["degraded"][f"{op}@{mode}"]
        assert point["time"] >= clean["time"], (
            f"{op}@{mode} is faster than the fault-free run")


def main(argv=None):
    baselines = compute_baselines()
    with GOLDEN_PATH.open("w") as fh:
        json.dump(baselines, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(baselines['workloads'])} baselines "
          f"to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

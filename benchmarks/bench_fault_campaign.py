"""Fault-injection campaign: availability, detection, resilience cost.

Four sweeps through the hardened runtime:

* **rate sweep** — descriptor corruption / CU hangs / DRAM bit errors
  at growing intensity: availability, detection rate, resilience share;
* **tile-kill sweep** — 0..16 dead tiles: under per-vault fallback the
  accelerated path survives every partial loss (availability stays 1.0
  with measurable reroute overhead) and collapses to the host only
  when no tile is left;
* **link-failure sweep** — 0..k failed mesh links: the adaptive router
  detours around them, availability stays high, and the degraded
  bisection bandwidth quantifies the lost headroom. A link-flap point
  shows transient outages cost one execution, not the rest of the run;
* **scrub-interval sweep** — latent cell flips accrue in a cold
  (data-at-rest) buffer while a hot working set executes; a background
  patrol scrubber at shrinking intervals drains singles before they
  pair, so the demand-path uncorrectable count of a final cold-buffer
  read declines monotonically while the ``scrub`` ledger cost rises —
  the classic scrub-rate vs. reliability tradeoff. The intervals form
  a divisor chain (and deposits draw from a dedicated PRNG stream), so
  finer settings drain pointwise-superset flip sets and monotonicity
  is a property, not luck;
* **thermal sweep** (``--thermal-sweep``, emitted separately as
  ``BENCH_thermal.json``) — the power-envelope governor at tightening
  envelope margins above ambient: a tighter envelope trips earlier and
  releases later, so total throttle time never decreases as the margin
  shrinks; plus an Arrhenius contrast pair (strong vs. starved
  heatsink) showing the hotter stack accepts a pointwise superset of
  the cooler stack's latent flips on every vault.

Also checks the end-to-end acceptance properties: ECC-corrected runs
are bit-exact against fault-free runs, and STAP still completes — on
15 tiles, not on the host — with a dead accelerator tile.

Runnable as a script: ``python benchmarks/bench_fault_campaign.py
--json -`` emits the sweeps as schema-stable JSON for dashboards.
"""

import argparse
import json
import sys

import numpy as np
import pytest

from repro.accel import AxpyParams
from repro.apps.stap import PRESETS, run_stap_mealib
from repro.core import MealibSystem, ParamStore
from repro.faults import FaultInjector, ScrubConfig
from repro.thermal import AMBIENT_K, ThermalConfig

#: Fault intensity knob: descriptor corruption at x, CU hangs at x/4,
#: DRAM bit errors at x * 1e-4 per bit.
INTENSITIES = (0.0, 0.1, 0.3, 0.6)
EXECUTES = 25

#: Scrub sweep: patrol intervals (in executes; 0 disables) forming a
#: divisor chain so finer settings' scrub points nest inside coarser
#: ones', latent-upset rate per backed bit per step, and the number of
#: hot executes the cold buffer sits at rest for.
SCRUB_INTERVALS = (0, 16, 8, 4, 2, 1)
SCRUB_RATE = 3e-5
SCRUB_EXECUTES = 30

SCHEMA = "fault-campaign/v3"

#: Thermal sweep: envelope margins in kelvin above ambient, tightening
#: left to right (the working set heats vaults a couple of kelvin, so
#: single-digit margins are the interesting regime), crossed with
#: patrol intervals (0 disables); latent-upset rate for the Arrhenius
#: coupling; and the hot working-set size that does the heating.
THERMAL_SCHEMA = "thermal-campaign/v1"
THERMAL_MARGINS = (4.0, 2.0, 1.0, 0.25)
THERMAL_INTERVALS = (0, 4)
THERMAL_RATE = 2e-5
THERMAL_EXECUTES = 8
THERMAL_N = 65536


def make_system(faults=None):
    return MealibSystem(stack_bytes=256 << 20, faults=faults)


def make_axpy_plan(system, n=4096):
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    store = ParamStore()
    store.add("a.para", AxpyParams(n=n, alpha=2.0, x_pa=xb.pa,
                                   y_pa=yb.pa).pack())
    plan = system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                   in_size=n * 8, out_size=n * 4)
    return plan, y


def _run_point(system, executes):
    plan, _ = make_axpy_plan(system)
    for _ in range(executes):
        system.runtime.acc_execute(plan, functional=False)
    counters = system.runtime.counters
    fault, retry, reroute, fallback = (
        system.ledger.total(c)
        for c in ("fault", "retry", "reroute", "fallback"))
    resilience = fault.plus(retry).plus(reroute).plus(fallback)
    total = system.total()
    return {
        "availability": counters.availability,
        "degraded_fraction": counters.degraded_fraction,
        "retries": counters.retries,
        "fallbacks": counters.fallbacks,
        "rerouted_stripes": counters.rerouted_stripes,
        "ecc_corrections": counters.ecc_corrections,
        "overhead": resilience.time / total.time,
        "reroute_share": reroute.time / total.time,
        "total_time": total.time,
        "total_energy": total.energy,
    }


def campaign_point(intensity, seed=4, executes=EXECUTES):
    faults = None
    if intensity > 0:
        faults = FaultInjector(seed=seed,
                               descriptor_corruption_rate=intensity,
                               hang_rate=intensity / 4,
                               dram_bit_error_rate=intensity * 1e-4)
    system = make_system(faults)
    point = _run_point(system, executes)
    point["detection"] = (faults.stats.detection_rate
                          if faults is not None else 1.0)
    return point


def tile_kill_point(dead_tiles, seed=4, executes=EXECUTES):
    """Availability/overhead with ``dead_tiles`` tiles hard-failed."""
    system = make_system(FaultInjector(seed=seed))
    for vault in range(dead_tiles):
        system.layer.mark_tile_failed(vault)
    point = _run_point(system, executes)
    point["dead_tiles"] = dead_tiles
    point["serving_tiles"] = len(system.layer.serving_tiles())
    return point


def link_failure_point(failed_links, seed=4, executes=EXECUTES,
                       flap=False):
    """Availability/overhead with ``failed_links`` links failed up
    front (plus optional per-execute link flaps)."""
    injector = FaultInjector(seed=seed,
                             link_flap_rate=1.0 if flap else 0.0)
    system = make_system(injector)
    noc = system.layer.noc
    # one seeded permutation, failing its first k links: the failure
    # sets nest, so bisection bandwidth declines monotonically with k
    rng = np.random.default_rng(seed)
    links = noc.links()
    for i in rng.permutation(len(links))[:failed_links]:
        noc.fail_link(*links[int(i)])
    point = _run_point(system, executes)
    point["failed_links"] = failed_links
    point["bisection_gbps"] = noc.bisection_bandwidth() / 1e9
    point["link_flaps"] = injector.stats.link_flaps
    return point


def scrub_sweep_point(interval, seed=4, executes=SCRUB_EXECUTES,
                      rate=SCRUB_RATE, n_cold=32768):
    """One scrub-interval setting of the data-at-rest campaign.

    A hot AXPY working set executes ``executes`` times while latent
    upsets accrue everywhere backed — in particular in a *cold* buffer
    nothing reads. The hot operands are adjudicated (and drained) at
    every operand fetch, so only patrol scrubbing stands between the
    cold buffer's singles and their pairing into uncorrectable doubles.
    A final accelerated read of the cold buffer then surfaces whatever
    survived: its demand-path uncorrectable count is the sweep metric
    (scrub-found at-rest doubles are reported separately — a busier
    patrol *finds* more, so counting them would invert the tradeoff).
    """
    faults = FaultInjector(seed=seed, latent_flip_rate=rate)
    system = MealibSystem(stack_bytes=256 << 20, faults=faults,
                          scrub=ScrubConfig(interval=interval))
    plan, _ = make_axpy_plan(system)
    cold_b, cold = system.space.alloc_array((n_cold,), np.float32)
    out_b, out = system.space.alloc_array((n_cold,), np.float32)
    cold[:] = 1.0
    out[:] = 0.0
    store = ParamStore()
    store.add("r.para", AxpyParams(n=n_cold, alpha=1.0, x_pa=cold_b.pa,
                                   y_pa=out_b.pa).pack())
    reader = system.runtime.acc_plan("PASS { COMP AXPY r.para }", store,
                                     in_size=n_cold * 8,
                                     out_size=n_cold * 4)
    for _ in range(executes):
        system.runtime.acc_execute(plan, functional=False)
    system.runtime.acc_execute(reader, functional=False)
    datapath = system.datapath.stats
    scrub = system.scrubber.stats
    scrub_cost = system.ledger.total("scrub")
    total = system.total()
    return {
        "interval": interval,
        "deposited": faults.stats.latent_flips_deposited,
        "demand_uncorrectable": datapath.words_repaired,
        "demand_corrected": datapath.words_corrected,
        "demand_silent": datapath.words_silent,
        "retries": system.runtime.counters.retries,
        "scrub_passes": scrub.passes,
        "scrub_corrected": scrub.words_corrected,
        "scrub_uncorrectable": scrub.words_repaired,
        "scrub_time": scrub_cost.time,
        "scrub_energy": scrub_cost.energy,
        "scrub_share": scrub_cost.time / total.time if total.time else 0.0,
    }


def thermal_sweep_point(margin, interval=0, seed=4,
                        executes=THERMAL_EXECUTES, rate=THERMAL_RATE):
    """One envelope-margin setting of the thermal campaign.

    A hot AXPY working set heats the stack while the governor watches
    an envelope ``margin`` kelvin above ambient. A tighter margin trips
    earlier and (with the hysteresis band reaching below the ambient
    floor) never releases, so total throttle time is monotone in the
    margin. Latent flips deposit through the Arrhenius thinning path,
    and an optional patrol scrubber adds its walk heat to the vaults
    it scans.
    """
    faults = FaultInjector(seed=seed, latent_flip_rate=rate)
    system = MealibSystem(
        stack_bytes=256 << 20, faults=faults,
        scrub=ScrubConfig(interval=interval) if interval else None,
        thermal=ThermalConfig(envelope=AMBIENT_K + margin))
    plan, _ = make_axpy_plan(system, n=THERMAL_N)
    for _ in range(executes):
        system.runtime.acc_execute(plan, functional=False)
    throttle = system.ledger.total("throttle")
    scrub_cost = system.ledger.total("scrub")
    total = system.total()
    stats = system.governor.stats
    return {
        "margin_k": margin,
        "interval": interval,
        "envelope_k": AMBIENT_K + margin,
        "peak_vault_k": system.thermal.peak_vault_temp,
        "peak_logic_k": system.thermal.peak_logic,
        "throttle_time": throttle.time,
        "throttle_energy": throttle.energy,
        "throttle_events": stats.throttle_events,
        "throttled_executes": system.runtime.counters.throttled_executes,
        "offline_events": stats.offline_events,
        "availability": system.runtime.counters.availability,
        "deposited": faults.stats.latent_flips_deposited,
        "latent_by_vault": {str(v): c for v, c in
                            sorted(faults.latent_deposits_by_vault.items())},
        "scrub_time": scrub_cost.time,
        "total_time": total.time,
        "total_energy": total.energy,
    }


def thermal_arrhenius_point(g_sink, seed=4, executes=THERMAL_EXECUTES,
                            rate=THERMAL_RATE):
    """One heatsink setting of the Arrhenius contrast pair.

    Same seed, same workload, unreachable envelope (throttling off the
    table): only the heatsink conductance differs, so any difference in
    accepted latent flips is pure temperature. With ``arrhenius_cap``
    bounding the thinning, the hot run's acceptances are a pointwise
    superset of the cool run's.
    """
    faults = FaultInjector(seed=seed, latent_flip_rate=rate)
    system = MealibSystem(
        stack_bytes=256 << 20, faults=faults,
        thermal=ThermalConfig(g_sink=g_sink, arrhenius_doubling=1.0,
                              arrhenius_cap=8.0, envelope=10_000.0,
                              critical=20_000.0))
    plan, _ = make_axpy_plan(system, n=THERMAL_N)
    for _ in range(executes):
        system.runtime.acc_execute(plan, functional=False)
    by_vault = system.faults.latent_deposits_by_vault
    return {
        "g_sink": g_sink,
        "max_temp_k": system.thermal.max_temp,
        "peak_vault_k": system.thermal.peak_vault_temp,
        "deposited": system.faults.stats.latent_flips_deposited,
        "latent_by_vault": {str(v): c for v, c in sorted(by_vault.items())},
    }


def run_thermal_campaign(margins=THERMAL_MARGINS,
                         intervals=THERMAL_INTERVALS,
                         executes=THERMAL_EXECUTES, seed=4):
    """The thermal campaign as one schema-stable record."""
    return {
        "schema": THERMAL_SCHEMA,
        "executes": executes,
        "seed": seed,
        "ambient_k": AMBIENT_K,
        "envelope_sweep": [
            thermal_sweep_point(m, interval=i, seed=seed,
                                executes=executes)
            for i in intervals for m in margins],
        "arrhenius_contrast": {
            "cool": thermal_arrhenius_point(50.0, seed=seed,
                                            executes=executes),
            "hot": thermal_arrhenius_point(0.05, seed=seed,
                                           executes=executes),
        },
    }


def run_campaign(dead_tiles=(0, 1, 2, 4, 8, 16),
                 failed_links=(0, 1, 2, 4, 6),
                 scrub_intervals=SCRUB_INTERVALS,
                 executes=EXECUTES, seed=4):
    """The full campaign as one schema-stable record."""
    return {
        "schema": SCHEMA,
        "executes": executes,
        "seed": seed,
        "rate_sweep": [
            dict(campaign_point(x, seed=seed, executes=executes),
                 intensity=x)
            for x in INTENSITIES],
        "tile_kill": [tile_kill_point(k, seed=seed, executes=executes)
                      for k in dead_tiles],
        "link_failure": [
            link_failure_point(k, seed=seed, executes=executes)
            for k in failed_links],
        "link_flap": link_failure_point(0, seed=seed,
                                        executes=executes, flap=True),
        "scrub_sweep": [scrub_sweep_point(i, seed=seed)
                        for i in scrub_intervals],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="MEALib fault-injection campaign")
    parser.add_argument("--dead-tiles", type=int, nargs="+",
                        default=[0, 1, 2, 4, 8, 16])
    parser.add_argument("--failed-links", type=int, nargs="+",
                        default=[0, 1, 2, 4, 6])
    parser.add_argument("--scrub-intervals", type=int, nargs="+",
                        default=list(SCRUB_INTERVALS),
                        help="patrol intervals in executes (0 disables); "
                             "keep them a divisor chain so the "
                             "uncorrectable-rate monotonicity holds")
    parser.add_argument("--executes", type=int, default=EXECUTES)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--json", default="-",
                        help="output path, or - for stdout")
    parser.add_argument("--thermal-sweep", nargs="?", metavar="PATH",
                        const="BENCH_thermal.json", default=None,
                        help="run the thermal campaign instead and "
                             "write it to PATH (default "
                             "BENCH_thermal.json, - for stdout)")
    parser.add_argument("--thermal-margins", type=float, nargs="+",
                        default=list(THERMAL_MARGINS),
                        help="envelope margins in K above ambient; "
                             "keep them tightening so throttle-time "
                             "monotonicity reads off the sweep")
    parser.add_argument("--thermal-intervals", type=int, nargs="+",
                        default=list(THERMAL_INTERVALS),
                        help="patrol intervals crossed with the "
                             "margins (0 disables the scrubber)")
    args = parser.parse_args(argv)
    if args.thermal_sweep is not None:
        executes = (args.executes if args.executes != EXECUTES
                    else THERMAL_EXECUTES)
        record = run_thermal_campaign(
            margins=tuple(args.thermal_margins),
            intervals=tuple(args.thermal_intervals),
            executes=executes, seed=args.seed)
        payload = json.dumps(record, indent=1, sort_keys=True)
        if args.thermal_sweep == "-":
            print(payload)
        else:
            with open(args.thermal_sweep, "w") as fh:
                fh.write(payload + "\n")
        return 0
    campaign = run_campaign(dead_tiles=tuple(args.dead_tiles),
                            failed_links=tuple(args.failed_links),
                            scrub_intervals=tuple(args.scrub_intervals),
                            executes=args.executes, seed=args.seed)
    payload = json.dumps(campaign, indent=1, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
    return 0


def test_campaign_rate_sweep(benchmark):
    def sweep():
        return {x: campaign_point(x) for x in INTENSITIES}

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nFault campaign (descriptor corruption x, hangs x/4, "
          "DRAM BER x*1e-4):")
    print(f"{'x':>5} {'avail':>6} {'detect':>7} {'overhead':>9} "
          f"{'retries':>8} {'fallbacks':>10} {'ecc-corr':>9}")
    for x, p in points.items():
        print(f"{x:>5} {p['availability']:>6.2f} {p['detection']:>7.2f} "
              f"{100 * p['overhead']:>8.1f}% {p['retries']:>8} "
              f"{p['fallbacks']:>10} {p['ecc_corrections']:>9}")
    clean = points[0.0]
    assert clean["availability"] == 1.0
    assert clean["overhead"] == 0.0
    overheads = [points[x]["overhead"] for x in INTENSITIES]
    assert overheads == sorted(overheads)       # cost grows with rate
    assert points[0.6]["overhead"] > 0
    assert points[0.6]["retries"] > points[0.1]["retries"]
    for x in INTENSITIES[1:]:
        assert points[x]["detection"] >= 0.99   # SECDED + CRC catch ~all

def test_campaign_tile_kill_sweep(benchmark):
    kills = (0, 1, 4, 15, 16)

    def sweep():
        return {k: tile_kill_point(k) for k in kills}

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nTile-kill campaign (per-vault fallback):")
    print(f"{'dead':>5} {'serving':>8} {'avail':>6} {'reroute%':>9} "
          f"{'overhead%':>10}")
    for k, p in points.items():
        print(f"{k:>5} {p['serving_tiles']:>8} {p['availability']:>6.2f} "
              f"{100 * p['reroute_share']:>8.2f}% "
              f"{100 * p['overhead']:>9.2f}%")
    # a single dead tile no longer abandons the accelerated path: the
    # remaining 15 tiles serve it with measurable reroute overhead
    assert points[1]["availability"] == 1.0
    assert points[1]["serving_tiles"] == 15
    assert points[1]["fallbacks"] == 0
    assert points[1]["reroute_share"] > 0
    # PR 1 semantics gave availability 0.0 at one dead tile; the new
    # floor is only hit with every tile gone
    assert points[1]["availability"] > 0.0
    assert points[16]["availability"] == 0.0
    availabilities = [points[k]["availability"] for k in kills]
    assert availabilities == sorted(availabilities, reverse=True)
    # overhead grows with the number of rerouted stripes
    reroute = [points[k]["reroute_share"] for k in kills[:-1]]
    assert reroute == sorted(reroute)


def test_campaign_link_failure_sweep(benchmark):
    ks = (0, 1, 2, 4, 6)

    def sweep():
        points = {k: link_failure_point(k) for k in ks}
        points["flap"] = link_failure_point(0, flap=True)
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nLink-failure campaign (adaptive rerouting):")
    print(f"{'links':>6} {'avail':>6} {'bisection':>10} {'overhead%':>10}")
    for k in ks:
        p = points[k]
        print(f"{k:>6} {p['availability']:>6.2f} "
              f"{p['bisection_gbps']:>7.0f}GB/s "
              f"{100 * p['overhead']:>9.2f}%")
    p = points["flap"]
    print(f"{'flap':>6} {p['availability']:>6.2f} "
          f"{p['bisection_gbps']:>7.0f}GB/s "
          f"{100 * p['overhead']:>9.2f}%  ({p['link_flaps']} flaps)")
    clean = points[0]
    assert clean["availability"] == 1.0 and clean["overhead"] == 0.0
    # acceptance: availability at 1 failed link strictly beats PR 1's
    # one-dead-tile availability (0.0 under all-or-nothing fallback)
    assert points[1]["availability"] == 1.0
    assert points[1]["availability"] > 0.0
    availabilities = [points[k]["availability"] for k in ks]
    assert availabilities == sorted(availabilities, reverse=True)
    bisections = [points[k]["bisection_gbps"] for k in ks]
    assert bisections == sorted(bisections, reverse=True)
    assert bisections[-1] < bisections[0]
    # flapped links are restored: the mesh ends the run healthy
    assert points["flap"]["link_flaps"] == EXECUTES
    assert points["flap"]["bisection_gbps"] == clean["bisection_gbps"]


def test_campaign_scrub_sweep(benchmark):
    def sweep():
        return [scrub_sweep_point(i) for i in SCRUB_INTERVALS]

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nScrub-interval campaign (latent upsets at "
          f"{SCRUB_RATE:g}/bit/step):")
    print(f"{'interval':>9} {'demand-unc':>11} {'corrected':>10} "
          f"{'scrub-unc':>10} {'scrub-ms':>9}")
    for p in points:
        label = p["interval"] if p["interval"] else "off"
        print(f"{label:>9} {p['demand_uncorrectable']:>11} "
              f"{p['demand_corrected']:>10} {p['scrub_uncorrectable']:>10} "
              f"{1e3 * p['scrub_time']:>9.3f}")
    # the acceptance property: shrinking the patrol interval never
    # increases the demand-path uncorrectable rate
    unc = [p["demand_uncorrectable"] for p in points]
    assert unc == sorted(unc, reverse=True)
    assert unc[0] > 0                       # unscrubbed pairs really form
    assert unc[-1] < unc[0]                 # and patrol really drains them
    # every demand-path double was recovered by retry, invisibly
    assert all(p["retries"] >= (1 if p["demand_uncorrectable"] else 0)
               for p in points)
    # the price: scrub cost rises monotonically with patrol frequency
    times = [p["scrub_time"] for p in points]
    assert times == sorted(times)
    assert points[0]["scrub_time"] == 0.0   # disabled patrol is free
    assert points[0]["scrub_passes"] == 0
    # deposits are scrub-policy-invariant (dedicated PRNG stream)
    deposited = {p["deposited"] for p in points}
    assert len(deposited) == 1


def test_campaign_thermal_sweep(benchmark):
    margins = THERMAL_MARGINS

    def sweep():
        points = [thermal_sweep_point(m) for m in margins]
        contrast = (thermal_arrhenius_point(50.0),
                    thermal_arrhenius_point(0.05))
        return points, contrast

    points, (cool, hot) = benchmark.pedantic(sweep, rounds=1,
                                             iterations=1)
    print("\nThermal campaign (envelope margin above "
          f"{AMBIENT_K:.0f}K ambient):")
    print(f"{'margin':>7} {'peak-K':>7} {'thr-us':>7} {'events':>7} "
          f"{'throttled':>10}")
    for p in points:
        print(f"{p['margin_k']:>7} {p['peak_vault_k']:>7.2f} "
              f"{1e6 * p['throttle_time']:>7.2f} "
              f"{p['throttle_events']:>7} {p['throttled_executes']:>10}")
    print(f"Arrhenius contrast: cool {cool['max_temp_k']:.2f}K / "
          f"{cool['deposited']} flips, hot {hot['max_temp_k']:.2f}K / "
          f"{hot['deposited']} flips")
    # the acceptance property: tightening the envelope margin never
    # decreases total throttle time (at fixed seed and workload)
    times = [p["throttle_time"] for p in points]
    assert times == sorted(times)
    assert times[0] == 0.0                  # widest margin never trips
    assert times[-1] > 0.0                  # tightest margin throttles
    assert points[-1]["throttled_executes"] > 0
    # throttling observes, never drops: the accelerated path survives
    assert all(p["availability"] == 1.0 for p in points)
    assert all(p["offline_events"] == 0 for p in points)
    # the Arrhenius coupling: the hotter stack never sees fewer latent
    # flips than the cooler one, on any vault
    assert hot["max_temp_k"] > cool["max_temp_k"] + 1.0
    for vault in range(16):
        key = str(vault)
        assert (hot["latent_by_vault"].get(key, 0)
                >= cool["latent_by_vault"].get(key, 0))
    assert hot["deposited"] > cool["deposited"]


def test_ecc_corrected_runs_are_bit_exact(benchmark):
    def pair():
        plain = make_system()
        plan_p, y_p = make_axpy_plan(plain)
        protected = make_system(
            FaultInjector(seed=9, dram_bit_error_rate=2e-4))
        plan_f, y_f = make_axpy_plan(protected)
        for _ in range(30):
            plain.runtime.acc_execute(plan_p)
            protected.runtime.acc_execute(plan_f)
        return (y_p.tobytes(), y_f.tobytes(),
                protected.runtime.counters.ecc_corrections)

    y_plain, y_faulty, corrections = benchmark.pedantic(
        pair, rounds=1, iterations=1)
    print(f"\nECC campaign: {corrections} single-bit corrections, "
          f"results bit-exact: {y_plain == y_faulty}")
    assert corrections > 0                      # faults really happened
    assert y_plain == y_faulty                  # and were transparent


def test_stap_survives_dead_tile_on_fifteen_tiles(benchmark):
    cfg = PRESETS["small"]

    def run_pair():
        clean = run_stap_mealib(cfg, system=make_system())
        crippled_sys = make_system(FaultInjector(seed=0))
        crippled_sys.layer.mark_tile_failed(5)
        crippled = run_stap_mealib(cfg, system=crippled_sys)
        return clean, crippled, crippled_sys

    clean, crippled, system = benchmark.pedantic(run_pair, rounds=1,
                                                 iterations=1)
    reroute = system.ledger.total("reroute")
    print(f"\nSTAP with dead tile: completed in {crippled.result.time:.4f}s "
          f"(clean {clean.result.time:.4f}s) on "
          f"{len(system.layer.serving_tiles())} tiles, reroute overhead "
          f"{1e3 * reroute.time:.3f}ms over "
          f"{system.runtime.counters.degraded_executes} descriptors")
    # the dead tile costs bandwidth, not the accelerated path
    assert system.runtime.counters.fallbacks == 0
    assert system.runtime.counters.availability == 1.0
    assert system.ledger.total("fallback").time == 0
    assert reroute.time > 0
    assert system.runtime.counters.degraded_executes > 0
    assert crippled.result.time > clean.result.time     # degraded is slower
    for name, ref in clean.buffers.items():             # but still correct
        np.testing.assert_allclose(crippled.buffers[name], ref,
                                   rtol=1e-5, atol=1e-6,
                                   err_msg=f"buffer {name} diverged")


def test_disabled_injector_matches_baseline(benchmark):
    def pair():
        plain = make_system()
        hardened = make_system(FaultInjector(seed=0, ecc_enabled=False))
        r_plain = plain.runtime.acc_execute(
            make_axpy_plan(plain)[0], functional=False)
        r_hard = hardened.runtime.acc_execute(
            make_axpy_plan(hardened)[0], functional=False)
        return r_plain, r_hard

    r_plain, r_hard = benchmark.pedantic(pair, rounds=1, iterations=1)
    print(f"\nFault-free parity: baseline {r_plain.time:.3e}s, "
          f"zero-rate injector {r_hard.time:.3e}s")
    assert r_hard.time == r_plain.time
    assert r_hard.energy == pytest.approx(r_plain.energy, rel=0, abs=0)


if __name__ == "__main__":
    sys.exit(main())

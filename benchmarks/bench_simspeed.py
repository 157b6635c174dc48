"""Simulation-speed benchmark for the descriptor-keyed schedule cache.

Repeated-call workloads (iterative solvers, STAP's per-dwell loop) run
the same descriptors over and over; the schedule cache replays their
decode + timing/energy decomposition instead of re-simulating the
memory system each time. This bench measures that win and — more
importantly — proves it is *free* in model terms:

* **speedup** — wall-clock time of ``--executes`` repeated executes on
  a cache-off system vs. an identically-built cache-on system (the
  cache-on loop includes its one cold miss);
* **parity** — every per-call :class:`ExecResult` and the final total of
  every ledger category that appears in either system must be
  bit-identical between the two systems; the
  bench *asserts* this before it reports any number;
* **hit rate** — from the cache's own counters (``executes - 1`` hits
  out of ``executes`` lookups on a healthy, unthrottled system).

Emits schema-stable JSON (``BENCH_simspeed.json``) for dashboards:

    PYTHONPATH=src python benchmarks/bench_simspeed.py --json -
"""

import argparse
import json
import sys
import time

from repro.core import MealibSystem, ParamStore
from repro.eval.workloads import TABLE2

SCHEMA = "simspeed/v2"

#: Repeated-call loop length; at hundreds of calls the cold decode +
#: memory-system simulation amortizes to nothing and the speedup is
#: dominated by the replay path (>= 10x is the acceptance floor).
EXECUTES = 200

OPS = ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP")
SCALE = 0.004


def build_plan(system, op, scale):
    params = TABLE2[op].params(scale)
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    store = ParamStore()
    store.add("w.para", params.pack())
    return system.runtime.acc_plan(
        f"PASS {{ COMP {op} w.para }}", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))


def time_loop(system, plan, executes):
    """Wall time plus the per-call results of ``executes`` executes."""
    results = []
    t0 = time.perf_counter()
    for _ in range(executes):
        results.append(system.runtime.acc_execute(plan, functional=False))
    return time.perf_counter() - t0, results


def run_op(op, scale, executes):
    cold_sys = MealibSystem(stack_bytes=64 << 20)
    hot_sys = MealibSystem(stack_bytes=64 << 20, schedule_cache=True)
    cold_plan = build_plan(cold_sys, op, scale)
    hot_plan = build_plan(hot_sys, op, scale)
    cold_wall, cold_results = time_loop(cold_sys, cold_plan, executes)
    hot_wall, hot_results = time_loop(hot_sys, hot_plan, executes)

    # parity gate: cached replay must be bit-identical, per call and in
    # the ledger decomposition — a fast wrong answer is worthless
    for i, (a, b) in enumerate(zip(cold_results, hot_results)):
        assert a.time == b.time and a.energy == b.energy, (
            f"{op}: call {i} diverged under the schedule cache")
    categories = {e.category for e in cold_sys.ledger.entries}
    categories |= {e.category for e in hot_sys.ledger.entries}
    for category in sorted(categories):
        assert (cold_sys.ledger.total(category)
                == hot_sys.ledger.total(category)), (
            f"{op}: ledger[{category}] diverged under the schedule cache")

    stats = hot_sys.schedule_cache.stats
    assert stats.hits == executes - 1 and stats.misses == 1
    return {
        "cold_wall_s": cold_wall,
        "cached_wall_s": hot_wall,
        "speedup": cold_wall / hot_wall,
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "model_time_s": cold_results[0].time,
        "model_energy_j": cold_results[0].energy,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--executes", type=int, default=EXECUTES)
    parser.add_argument("--ops", nargs="+", default=list(OPS),
                        choices=list(OPS))
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--json", default="BENCH_simspeed.json",
                        help="output path, or - for stdout")
    args = parser.parse_args(argv)
    if args.executes < 2:
        parser.error("--executes must be >= 2 (one miss + hits)")

    points = {op: run_op(op, args.scale, args.executes)
              for op in args.ops}
    speedups = [p["speedup"] for p in points.values()]
    record = {
        "schema": SCHEMA,
        "executes": args.executes,
        "scale": args.scale,
        "ops": points,
        "speedup_min": min(speedups),
        "speedup_max": max(speedups),
    }
    payload = json.dumps(record, indent=1, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json}: min speedup "
              f"{record['speedup_min']:.1f}x over {args.executes} "
              "executes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Serving latency/goodput benchmark: offered load vs delivered service.

Drives the multi-tenant serving runtime (:mod:`repro.serving`) with
seeded open-loop traffic at a sweep of offered loads and reports, per
load point, p50/p99 request latency and goodput (completed requests
per model second). The sweep brackets saturation — below it goodput
tracks the offered load; above it goodput plateaus at stack capacity
and the latency tail explodes (queueing) or admission sheds.

Three invariants are *asserted before any number is reported* — a fast
or pretty curve from a broken model is worthless:

* **single-tenant bit-identity** — one tenant served at concurrency 1
  produces per-call :class:`ExecResult` values and ledger category
  totals bit-identical to calling the system directly with the same
  call sequence (the serving layer adds exactly nothing to a solo
  stream);
* **tenant decomposition** — at every load point the per-tenant ledger
  slices partition the system ledger exactly
  (:meth:`ServingRuntime.verify_tenant_decomposition`);
* **ledger invariants** — every ledger the bench fills, direct and
  served, passes :func:`~repro.core.ledger.verify_ledger` with every
  execute named: known category and label codes, finite non-negative
  values, and each execute's ledgered costs (plus the descriptor fetch
  charge) folding to the cost it returned.

Emits schema-stable JSON (``BENCH_serving.json``) for dashboards:

    PYTHONPATH=src python benchmarks/bench_serving.py --json -
"""

import argparse
import json
import sys

from repro.core import CATEGORIES, MealibSystem, verify_ledger
from repro.eval.workloads import TABLE2
from repro.metrics import ZERO
from repro.serving import (BatchPolicy, QosClass, ServingRuntime,
                           TenantConfig, TrafficConfig, call_sizes,
                           coalesce, generate_trace)

SCHEMA = "serving/v1"

#: Offered load as a fraction of measured capacity; brackets
#: saturation (the >= 3 points the acceptance criteria require).
LOAD_FRACTIONS = (0.3, 0.6, 0.9, 1.2)

#: The three-tenant mix every load point serves.
TENANTS = (
    TenantConfig("interactive", QosClass.INTERACTIVE,
                 max_queue_depth=64),
    TenantConfig("standard", QosClass.STANDARD, max_queue_depth=64),
    TenantConfig("bulk", QosClass.BULK, max_queue_depth=64),
)

SCALE = 0.004
REQUESTS = 40
SEED = 2015
MAX_CONCURRENCY = 2
STACK_BYTES = 64 << 20


def _system():
    return MealibSystem(stack_bytes=STACK_BYTES, schedule_cache=True)


def assert_single_tenant_identity(seed, requests, scale):
    """One tenant at concurrency 1 must be bit-identical to the direct
    system path, per call and in the ledger."""
    cfg = TrafficConfig(rate=1000.0, n_requests=requests, scale=scale)
    trace = generate_trace("solo", cfg, seed=seed, stream=0)

    direct = _system()
    direct_results = []
    executes = []
    for a in trace:
        params = TABLE2[a.op].params(a.scale)
        plan = coalesce(direct, [(a.op, params,
                                  *call_sizes(direct.layer, a.op, params))])
        first = len(direct.ledger)
        direct_results.append(
            direct.runtime.acc_execute(plan, functional=False))
        executes.append((first, plan.descriptor.size, direct_results[-1]))
        direct.runtime.acc_destroy(plan)
    verify_ledger(direct.ledger, executes)

    served = _system()
    serving = ServingRuntime(served, [TenantConfig("solo")],
                             max_concurrency=1, functional=False)
    for a in trace:
        serving.submit_arrival(a)
    serving.run()
    serving.verify_tenant_decomposition()

    assert len(serving.requests) == len(direct_results)
    for i, (r, d) in enumerate(zip(serving.requests, direct_results)):
        assert not r.shed
        assert r.result.time == d.time and r.result.energy == d.energy, (
            f"call {i} diverged between serving and the direct path")
    for category in CATEGORIES:
        assert (served.ledger.total(category)
                == direct.ledger.total(category)), (
            f"ledger[{category}] diverged between serving and the "
            "direct path")
    assert served.ledger.total("contention") == ZERO
    assert served.runtime.counters.contended_executes == 0


def run_point(fraction, capacity, seed, requests, scale):
    """Serve one offered-load point; returns its report row."""
    system = _system()
    serving = ServingRuntime(system, list(TENANTS),
                             max_concurrency=MAX_CONCURRENCY,
                             batching=BatchPolicy(),
                             functional=False)
    rate = fraction * capacity / len(TENANTS)
    for stream, tenant in enumerate(TENANTS):
        cfg = TrafficConfig(rate=rate, n_requests=requests, scale=scale)
        for a in generate_trace(tenant.tenant, cfg, seed=seed,
                                stream=stream):
            serving.submit_arrival(a)
    serving.run()
    # attribution gate: the curve is only reported if every joule
    # decomposes exactly across tenants
    serving.verify_tenant_decomposition()
    report = serving.report()
    arrivals = sorted(r.arrival for r in serving.requests)
    completed = [r for r in serving.requests if not r.shed]
    latencies = sorted(r.latency for r in completed)
    span = arrivals[-1] - arrivals[0]
    report["load_fraction"] = fraction
    report["offered_rps"] = ((len(arrivals) - 1) / span
                             if span > 0 else 0.0)
    report["p50_latency_s"] = latencies[len(latencies) // 2]
    report["p99_latency_s"] = latencies[
        min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return report


def measure_capacity(seed, requests, scale):
    """Delivered request rate under saturation (every arrival at t=0):
    the sweep's 1.0 reference."""
    system = _system()
    serving = ServingRuntime(system, list(TENANTS),
                             max_concurrency=MAX_CONCURRENCY,
                             batching=BatchPolicy(),
                             functional=False)
    for stream, tenant in enumerate(TENANTS):
        cfg = TrafficConfig(rate=1e9, n_requests=requests, scale=scale)
        for a in generate_trace(tenant.tenant, cfg, seed=seed,
                                stream=stream):
            serving.submit_arrival(a)
    serving.run()
    serving.verify_tenant_decomposition()
    return serving.report()["goodput_rps"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=REQUESTS,
                        help="requests per tenant per load point")
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--loads", type=float, nargs="+",
                        default=list(LOAD_FRACTIONS),
                        help="offered load as fractions of capacity")
    parser.add_argument("--json", default="BENCH_serving.json",
                        help="output path, or - for stdout")
    args = parser.parse_args(argv)
    if args.requests < 2:
        parser.error("--requests must be >= 2")
    if len(args.loads) < 3:
        parser.error("need >= 3 load points")

    # gates first: a report is only written once the serving layer is
    # provably exact
    assert_single_tenant_identity(args.seed, args.requests, args.scale)
    capacity = measure_capacity(args.seed, args.requests, args.scale)
    points = [run_point(f, capacity, args.seed, args.requests,
                        args.scale)
              for f in sorted(args.loads)]

    record = {
        "schema": SCHEMA,
        "seed": args.seed,
        "scale": args.scale,
        "requests_per_tenant": args.requests,
        "tenants": [t.tenant for t in TENANTS],
        "max_concurrency": MAX_CONCURRENCY,
        "capacity_rps": capacity,
        "single_tenant_identical": True,
        "decomposition_verified": True,
        "ledger_verified": True,
        "points": points,
    }
    payload = json.dumps(record, indent=1, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json}: capacity {capacity:.0f} rps, "
              f"{len(points)} load points, p99 at max load "
              f"{points[-1]['p99_latency_s'] * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())

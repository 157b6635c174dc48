"""Run one benchmark workload in this interpreter and report it as JSON.

``bench/run.py`` starts one of these per workload, one after another,
so memos and caches start empty and peak RSS belongs to one workload::

    python3 bench/worker.py WORKLOAD --seed N --seconds S \\
        --mode {run,trace,setup,reference} [--smoke]

``setup`` stops after set-up; ``run`` times the workload for ``S``
seconds; ``trace`` does the same but installs the layer tracer for every
other cycle of the workload's op mix; ``reference`` walks the
workload's whole input pool once and rewrites
``bench/reference/WORKLOAD.json``. Times are reported scaled to the
reference host speed (``bench/hostspeed.py``); ``raw`` keeps the
unscaled end-to-end values, or for a traced run the scale factor. The
last line on stdout is one JSON object.
"""

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

# single-threaded numerics: must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class Phase:
    """Totals of the units one timed phase ran."""

    def __init__(self) -> None:
        self.units = 0
        self.ops = 0
        self.failed = 0
        #: (per-op end times, per-op host times, host seconds) per unit
        self.timed = []
        self.counters = {}
        self.digests = {}
        self.mismatches = []

    def add(self, unit, reference) -> None:
        self.units += 1
        self.ops += unit.ops
        stamps = unit.stamps or [time.perf_counter()] * len(unit.samples)
        self.timed.append((stamps, unit.samples, unit.seconds))
        for k, v in unit.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        self.digests.setdefault(unit.key, unit.digest)
        if reference.get(unit.key) != unit.digest:
            self.failed += unit.ops
            self.mismatches.append(unit.key)

    def times(self, speed=None):
        """(per-op times, total host seconds), scaled to the reference
        host when ``speed`` is given."""
        samples, seconds = [], 0.0
        for stamps, unit_samples, secs in self.timed:
            if speed is None:
                scaled = list(unit_samples)
            else:
                scaled = [x * speed.scale_at(t)
                          for t, x in zip(stamps, unit_samples)]
            samples.extend(scaled)
            # host time outside the samples scales like the samples
            total = sum(unit_samples)
            seconds += secs * sum(scaled) / total if total else secs
        return samples, seconds


def pull(units, phase: Phase, reference, count: float, deadline: float,
         speed, tracer=None) -> bool:
    """Add up to ``count`` units to ``phase`` before ``deadline``,
    calibrating host speed between units. Returns False once the
    workload has no more units to give.

    The cyclic garbage collector is paused while a unit runs and catches
    up between units, as ``timeit`` does: its pauses land on whichever
    operation happens to cross a threshold, which made tail percentiles
    unrepeatable. Reference counting still frees memory during a unit.
    """
    while count > 0 and time.perf_counter() < deadline:
        count -= 1
        gc.disable()
        try:
            if tracer is None:
                unit = next(units, None)
            else:
                with tracer.op_span(phase.units):
                    unit = next(units, None)
        except Exception:
            # a generator is finished once it raises: count the failed
            # operation and end the run
            traceback.print_exc()
            phase.ops += 1
            phase.failed += 1
            phase.mismatches.append("exception")
            return False
        finally:
            gc.enable()
        if unit is None:
            return False
        phase.add(unit, reference)
        speed.tick()
    return True


def nearest_rank(sorted_values, p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", default="run",
                        choices=("run", "trace", "setup", "reference"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"worker: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from hostspeed import HostSpeed
    from trace import Tracer, layer_metrics

    cls = workloads.WORKLOADS[args.workload]
    if args.mode == "reference":
        return write_reference(cls)

    wl = cls(args.seed)
    reference = workloads.load_reference(args.workload)
    wl.prepare()
    setup_raw = time.perf_counter() - T_ENTRY
    setup_s = setup_raw * HostSpeed().scale_at(time.perf_counter())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    cap = cls.smoke_units if args.smoke else math.inf
    speed = HostSpeed()
    wl.pause = speed.tick
    units = wl.units()
    deadline = time.perf_counter() + args.seconds
    if args.mode == "run":
        plain = Phase()
        pull(units, plain, reference, cap, deadline, speed)
        phases = [plain]
        metrics, raw = {}, {}
        for out, scale in ((metrics, speed), (raw, None)):
            samples, seconds = plain.times(scale)
            samples.sort()
            out.update(op_p50_ms=statistics.median(samples) * 1e3,
                       op_p95_ms=nearest_rank(samples, 95.0) * 1e3,
                       ops_per_s=plain.ops / seconds)
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        raw["setup_s"] = setup_raw
    else:
        # alternate untraced and traced cycles of the op mix, so drift
        # in host speed cancels out of the tracing overhead
        plain, traced = Phase(), Phase()
        phases = [plain, traced]
        tracer = Tracer()
        wl.pause = lambda: tracer.untraced(speed.tick)
        more = True
        while more and traced.units < cap \
                and time.perf_counter() < deadline:
            more = pull(units, plain, reference, cls.cycle, deadline, speed)
            if more:
                tracer.install()
                try:
                    more = pull(units, traced, reference, cls.cycle,
                                deadline, speed, tracer)
                finally:
                    tracer.uninstall()
        if not (plain.ops and traced.ops):
            print(f"worker: {args.workload}: too few units to trace",
                  file=sys.stderr)
            return 2
        _, plain_s = plain.times(speed)
        _, traced_s = traced.times(speed)
        _, traced_raw_s = traced.times()
        overhead = (plain.ops / plain_s) / (traced.ops / traced_s) - 1.0
        raw = {"host_scale": traced_s / traced_raw_s}
        metrics = layer_metrics(tracer, traced.ops, traced_raw_s,
                                traced.counters, overhead,
                                raw["host_scale"])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.trace.json")

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    digests = {}
    for p in phases:
        for k, v in p.digests.items():
            digests.setdefault(k, v)
    mismatches = [k for p in phases for k in p.mismatches]
    if mismatches:
        print(f"worker: {args.workload}: outputs differ from the "
              f"reference for {mismatches[:10]}", file=sys.stderr)
    print(json.dumps({"setup_s": setup_s, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "raw": raw,
                      "digests": digests}))
    return 0


def write_reference(cls) -> int:
    import workloads
    wl = cls(None)
    wl.prepare()
    digests = {}
    for unit in wl.units():
        if digests.setdefault(unit.key, unit.digest) != unit.digest:
            print(f"worker: {unit.key} is not deterministic",
                  file=sys.stderr)
            return 1
    record = {"workload": cls.name, "pool_seed": workloads.POOL_SEED,
              "units": len(digests), "digests": digests}
    path = workloads.reference_path(cls.name)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"reference": str(path.relative_to(ROOT)),
                      "units": len(digests)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

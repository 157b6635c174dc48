"""Host-speed benchmark of the MEALib reproduction.

Measures how fast this Python system runs (host wall time), end to end
and layer by layer, on six workloads that each stress a different layer
(see ``bench/README.md``). Modelled time and energy are outputs the
benchmark checks, never metrics::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--json OUT]
    python3 bench/run.py --write-reference [--workload W]

Each workload runs in its own fresh interpreter (``bench/worker.py``),
one after another and never two at once. Set-up is repeated in
``SETUP_RUNS`` fresh interpreters and ``setup_s`` is their median.
Every operation's output digest is checked against
``bench/reference/<workload>.json``.

Prints every metric with its unit; the last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). Exits 1
when an output differs from the reference, and 2 without a result when
a workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

#: Fresh interpreters whose set-up time makes up ``setup_s``.
SETUP_RUNS = 3

#: A worker that runs longer than this is killed.
WORKER_TIMEOUT_S = 150
REFERENCE_TIMEOUT_S = 900


class BenchError(Exception):
    """A workload could not produce a result."""


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(args: List[str], timeout: float) -> Dict[str, object]:
    """Run one worker to completion; its last stdout line is JSON."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args,
                              stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args) -> Dict[str, object]:
    base = [name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        base.append("--smoke")
    setups: List[float] = []
    if not args.trace and not args.smoke:
        for _ in range(SETUP_RUNS - 1):
            setups.append(worker(base + ["--mode", "setup"],
                                 WORKER_TIMEOUT_S)["setup_s"])
    result = worker(base + ["--mode", "trace" if args.trace else "run"],
                    WORKER_TIMEOUT_S)
    if not args.trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def append_json(path: Path, record: Dict[str, object]) -> None:
    """Append one run to a results file (created when missing)."""
    data: Dict[str, object] = {"schema": "bench-results/v1", "runs": []}
    if path.exists():
        with open(path) as fh:
            data = json.load(fh)
    data["runs"].append(record)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="time ~2%% of a full run's operations")
    parser.add_argument("--json", type=Path,
                        help="append this run, with every op digest, here")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate bench/reference/ from this tree")
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else names

    try:
        if args.write_reference:
            for name in selected:
                out = worker([name, "--mode", "reference"],
                             REFERENCE_TIMEOUT_S)
                print(f"{name}: wrote {out['reference']} "
                      f"({out['units']} units)")
            return 0
        results = {name: run_workload(name, args) for name in selected}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    metrics: Dict[str, Dict[str, object]] = {}
    for name, res in results.items():
        missing = set(units) - set(res["metrics"])
        if missing:
            print(f"bench: {name} did not report {sorted(missing)}",
                  file=sys.stderr)
            return 2
        for metric, unit in units.items():
            value = res["metrics"][metric]
            print(f"{name:17s} {metric:30s} {value:14.6g} {unit}")
            label = metric if len(selected) == 1 else f"{name}.{metric}"
            metrics[label] = {"value": value, "unit": unit}
        print(f"{name:17s} {'attempted':30s} {res['attempted']:14d} ops, "
              f"{res['failed']} failed")

    if args.json is not None:
        append_json(args.json, {
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke,
            "workloads": {name: {k: res[k] for k in
                                 ("attempted", "failed", "metrics", "raw",
                                  "digests")}
                          for name, res in results.items()}})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

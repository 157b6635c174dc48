"""Compare two benchmark result files run by run, metric by metric.

    python3 bench/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change; both are
files written by ``bench/run.py --json``, each holding one or more runs.
For every workload and end-to-end metric it prints both sides' median
and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side exceeds the bound, so the medians cannot
  decide, unless every B run is better than every A run;
* ``no-worse`` — otherwise.

It then lists every operation whose output digest differs between the
two files. Exits 1 when a metric is worse or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> List[Dict[str, object]]:
    with open(path) as fh:
        data = json.load(fh)
    return [r for r in data["runs"] if not r["trace"] and not r["smoke"]]


def values(runs, workload: str, metric: str) -> List[float]:
    return [r["workloads"][workload]["metrics"][metric] for r in runs
            if workload in r["workloads"]]


def quartiles(vals: List[float]) -> Tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, signed change of B's median; positive is worse)."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    change = (bm - am) / am if better == "lower" else (am - bm) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if better == "lower":
        b_wins = max(b) < min(a)
    else:
        b_wins = min(b) > max(a)
    if spread > bound and not b_wins:
        return "unresolved", change
    return ("worse" if change > bound else "no-worse"), change


def digests(runs, workload: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for r in runs:
        if workload in r["workloads"]:
            for k, v in r["workloads"][workload]["digests"].items():
                out.setdefault(k, v)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline results")
    parser.add_argument("b", type=Path, help="changed results")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    if not runs_a or not runs_b:
        print("compare: need at least one untraced run on each side",
              file=sys.stderr)
        return 2

    bad = False
    print(f"{'workload':17s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            a = values(runs_a, w, m["name"])
            b = values(runs_b, w, m["name"])
            if not a or not b:
                continue
            v, change = verdict(a, b, m["better"], m["bound"])
            bad |= v == "worse"
            cols = []
            for vals in (a, b):
                q1, med, q3 = quartiles(vals)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{w:17s} {m['name']:12s} {cols[0]:>30s} {cols[1]:>30s} "
                  f"{change:+8.1%}  {v}")

    for w in (w["name"] for w in spec["workloads"]):
        da, db = digests(runs_a, w), digests(runs_b, w)
        differ = sorted(k for k in da.keys() & db.keys() if da[k] != db[k])
        if differ:
            bad = True
            print(f"{w}: {len(differ)} ops with different outputs: "
                  + ", ".join(differ[:20])
                  + (" ..." if len(differ) > 20 else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the verified schedule rewrite layer.

Translates each corpus workload twice — rewrites off and on — and runs
both on fresh :class:`MealibSystem` instances with identical inputs.
Before any number is reported the bench *asserts* translation
validity: every buffer bit-identical between the two runs, and both
system ledgers decomposing exactly into their category totals.  Only
then does it report what the machine-checked fusions bought:

* modelled time and energy, rewrites off vs. on, and the savings;
* the statically-priced DRAM traffic each fusion elided
  (:meth:`FusedStep.dram_bytes_skipped` — the certificate's linkage
  facts guarantee this equals the traffic the pricing model skips);
* the decision log tally (applied/rejected per primitive).

Emits schema-stable JSON (``BENCH_rewrite.json``) for dashboards:

    PYTHONPATH=src python benchmarks/bench_rewrite.py --json -
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.compiler import FusedStep, run_translated, translate
from repro.compiler.interp import _DTYPES
from repro.compiler.passes import DescriptorStep
from repro.core import MealibSystem, verify_ledger

SCHEMA = "rewrite/v1"

CORPUS_DIR = Path(__file__).resolve().parent.parent / "examples" / "legacy"

#: Corpus workloads: the seeded fusable/illegal pair plus the paper
#: kernels whose interpolation->FFT chains the engine re-proves.
WORKLOADS = ("fusable_chain.c", "illegal_fusion.c", "sar_64.c",
             "sar_fns.c", "stap_small.c")


def make_inputs(tp, seed=11):
    """Deterministic inputs satisfying each program's domain."""
    rng = np.random.default_rng(seed)
    knots_count = next((info.count
                        for name, info in tp.env.buffers.items()
                        if "knot" in name), None)
    inputs = {}
    for name, info in tp.env.buffers.items():
        if info.elem_type not in _DTYPES:
            continue
        dt = _DTYPES[info.elem_type]
        n = info.count
        if "knot" in name:
            arr = np.arange(n, dtype=dt)
        elif "site" in name and knots_count:
            arr = np.clip((np.arange(n) % knots_count) + 0.3,
                          0, knots_count - 1.5).astype(dt)
        elif np.issubdtype(dt, np.complexfloating):
            arr = (rng.standard_normal(n)
                   + 1j * rng.standard_normal(n)).astype(dt)
        elif np.issubdtype(dt, np.integer):
            arr = np.zeros(n, dtype=dt)
        else:
            arr = rng.standard_normal(n).astype(dt)
        if info.shape is not None:
            arr = arr.reshape(info.shape)
        inputs[name] = arr
    return inputs


def record_executes(system):
    """Record ``(first ledger entry, descriptor bytes, returned cost)``
    of every execute on ``system``: the executes
    :func:`verify_ledger` checks the fold of."""
    seen = []
    execute = system.runtime.acc_execute

    def recording(plan, *args, **kwargs):
        first = len(system.ledger)
        result = execute(plan, *args, **kwargs)
        seen.append((first, plan.descriptor.size, result))
        return result

    system.runtime.acc_execute = recording
    return seen


def fused_steps(tp):
    return [s for item in tp.items if isinstance(item, DescriptorStep)
            for s in item.items if isinstance(s, FusedStep)]


def run_workload(name):
    source = (CORPUS_DIR / name).read_text()
    tp_off = translate(source, rewrite=False)
    tp_on = translate(source, rewrite=True)
    inputs = make_inputs(tp_off)

    sys_off = MealibSystem()
    sys_on = MealibSystem()
    executes_off = record_executes(sys_off)
    executes_on = record_executes(sys_on)
    off = run_translated(tp_off, system=sys_off, inputs=dict(inputs))
    on = run_translated(tp_on, system=sys_on, inputs=dict(inputs))

    # translation-validation gate: a fast wrong answer is worthless
    assert set(off.buffers) == set(on.buffers), name
    for buf in sorted(off.buffers):
        assert np.array_equal(off.buffers[buf], on.buffers[buf]), (
            f"{name}: buffer {buf!r} diverged under rewrites")
    verify_ledger(sys_off.ledger, executes_off)
    verify_ledger(sys_on.ledger, executes_on)

    skipped = sum(f.dram_bytes_skipped(tp_on.env)
                  for f in fused_steps(tp_on))
    tally = {}
    for d in tp_on.rewrites:
        key = f"{d.primitive}_{'applied' if d.applied else 'rejected'}"
        tally[key] = tally.get(key, 0) + 1
    t_off, t_on = off.result.time, on.result.time
    e_off, e_on = off.result.energy, on.result.energy
    return {
        "time_off_s": t_off,
        "time_on_s": t_on,
        "time_saved_pct": 100.0 * (1.0 - t_on / t_off) if t_off else 0.0,
        "energy_off_j": e_off,
        "energy_on_j": e_on,
        "energy_saved_pct": (100.0 * (1.0 - e_on / e_off)
                             if e_off else 0.0),
        "dram_bytes_skipped": skipped,
        "descriptors_off": tp_off.descriptor_count(),
        "descriptors_on": tp_on.descriptor_count(),
        "decisions": tally,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+",
                        default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--json", default="BENCH_rewrite.json",
                        help="output path, or - for stdout")
    args = parser.parse_args(argv)

    points = {name: run_workload(name) for name in args.workloads}
    saved = [p["energy_saved_pct"] for p in points.values()
             if p["decisions"].get("fuse_applied")]
    record = {
        "schema": SCHEMA,
        "workloads": points,
        "energy_saved_pct_max": max(saved) if saved else 0.0,
        "dram_bytes_skipped_total": sum(p["dram_bytes_skipped"]
                                        for p in points.values()),
    }
    payload = json.dumps(record, indent=1, sort_keys=True)
    if args.json == "-":
        print(payload)
    else:
        with open(args.json, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.json}: up to "
              f"{record['energy_saved_pct_max']:.1f}% energy saved, "
              f"{record['dram_bytes_skipped_total']} DRAM bytes "
              "elided by verified fusion")
    return 0


if __name__ == "__main__":
    sys.exit(main())

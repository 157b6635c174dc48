"""Checks of the benchmark itself, in ``--smoke`` mode (~2% of the ops).

    python3 -m pytest bench/tests
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _load_tracer_module():
    # bench/trace.py shares its name with a stdlib module: load by path
    spec = importlib.util.spec_from_file_location("bench_trace",
                                                  BENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = _load_tracer_module()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    plain = run_bench("--smoke", "--json", str(out))
    traced = run_bench("--smoke", "--trace", "--json", str(out))
    return plain, traced, json.loads(out.read_text())["runs"]


def _check_result_line(code, lines, kind):
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    expected = {f"{w}.{m}" for w in NAMES for m in units}
    assert set(result["metrics"]) == expected
    for label, metric in result["metrics"].items():
        assert metric["unit"] == units[label.split(".", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    return result


def test_schema_and_digest_check(smoke_runs):
    (code, lines), _, _ = smoke_runs
    result = _check_result_line(code, lines, "end_to_end")
    for w in NAMES:
        assert result["metrics"][f"{w}.ops_per_s"]["value"] > 0


def test_traced_schema_and_digest_check(smoke_runs):
    _, (code, lines), _ = smoke_runs
    _check_result_line(code, lines, "per_layer")


def test_traced_and_untraced_digests_agree(smoke_runs):
    _, _, (plain, traced) = smoke_runs
    assert not plain["trace"] and traced["trace"]
    for w in NAMES:
        a = plain["workloads"][w]["digests"]
        b = traced["workloads"][w]["digests"]
        assert a and b
        assert all(a[k] == b[k] for k in a.keys() & b.keys())


@pytest.mark.parametrize("name,layer", [
    ("sweep_unique", "memsys.vault"),
    ("solver_repeat", "core.runtime"),
    ("degraded_thermal", "thermal.rc.advance"),
    ("apps_functional", "accel.functional"),
    ("compile_corpus", "compiler.parse"),
])
def test_tracing_changes_no_output(name, layer):
    cls = workloads.WORKLOADS[name]
    plain, traced = cls(7), cls(7)
    plain.prepare()
    traced.prepare()
    tracer = bench_trace.Tracer()
    a = [u.digest for _, u in zip(range(3), plain.units())]
    tracer.install()
    try:
        b = [u.digest for _, u in zip(range(3), traced.units())]
    finally:
        tracer.uninstall()
    assert a == b
    assert layer in {name for _, name, *_ in tracer.spans}


def test_self_time_within_span_duration():
    wl = workloads.WORKLOADS["degraded_thermal"](3)
    wl.prepare()
    tracer = bench_trace.Tracer()
    units = wl.units()
    tracer.install()
    try:
        for op in range(3):
            with tracer.op_span(op):
                next(units)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    layers = {name for _, name, *_ in tracer.spans}
    assert {"memsys.vault", "thermal.rc.advance", "core.runtime"} <= layers
    for sid, _, t0, t1, _, _ in tracer.spans:
        assert -1e-9 <= own[sid] <= (t1 - t0) + 1e-12


def test_patches_restored():
    from repro.memsys import vault
    from repro.core import config_unit
    before = (vault.VaultController.service_arrays,
              config_unit.simulate_streams)
    tracer = bench_trace.Tracer()
    tracer.install()
    assert config_unit.simulate_streams is not before[1]
    tracer.uninstall()
    assert (vault.VaultController.service_arrays,
            config_unit.simulate_streams) == before


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(11).keys() == cls(11).keys()
    if name != "compile_corpus":
        assert cls(11).keys() != cls(12).keys()
    else:
        # 9 files: two seeds may rarely agree, several never all do
        assert len({tuple(cls(s).keys()) for s in range(11, 15)}) > 1
    ref = workloads.load_reference(name)
    every = cls(None).keys()
    assert set(cls(11).keys()) <= set(every) == set(ref)


def test_sweep_calls_are_unique():
    pool = workloads.WORKLOADS["sweep_unique"](1).pool
    assert len({(c.op, c.packed) for c in pool.values()}) == len(pool)


def _copy_tree(dst: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "examples", dst / "examples")


def test_fails_without_program_sources(tmp_path):
    _copy_tree(tmp_path, with_sources=False)
    code, lines = run_bench("--workload", "compile_corpus", "--seconds",
                            "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_wrong_output_fails(tmp_path):
    _copy_tree(tmp_path, with_sources=True)
    path = tmp_path / "bench" / "reference" / "compile_corpus.json"
    ref = json.loads(path.read_text())
    ref["digests"]["saxpy_nest.c"] = "0" * 16
    path.write_text(json.dumps(ref))
    code, lines = run_bench("--workload", "compile_corpus", "--smoke",
                            cwd=tmp_path)
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0

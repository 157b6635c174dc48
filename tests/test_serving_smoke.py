"""Smoke test for the serving latency/goodput bench.

Runs ``benchmarks/bench_serving.py`` main over a tiny offered-load
sweep and asserts the JSON schema, the in-bench exactness gates
(single-tenant bit-identity and per-tenant ledger decomposition are
*asserted by the bench before it reports*), and the shape every honest
open-loop curve must have: goodput monotone non-decreasing in offered
load below saturation, and contention priced exactly when — and only
when — streams actually co-ran.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_serving as serving_bench  # noqa: E402

REQUESTS = 10
LOADS = ("0.3", "0.6", "0.9", "1.2")

POINT_KEYS = {
    "span_s", "completed", "shed", "goodput_rps", "contention_time_s",
    "contention_energy_j", "contended_executes", "tenants",
    "load_fraction", "offered_rps", "p50_latency_s", "p99_latency_s",
}


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("serving") / "BENCH_serving.json"
    rc = serving_bench.main(["--requests", str(REQUESTS),
                             "--loads", *LOADS,
                             "--json", str(out)])
    assert rc == 0
    with out.open() as fh:
        return json.load(fh)


def test_schema_is_stable(payload):
    assert payload["schema"] == serving_bench.SCHEMA
    assert set(payload) == {
        "schema", "seed", "scale", "requests_per_tenant", "tenants",
        "max_concurrency", "capacity_rps", "single_tenant_identical",
        "decomposition_verified", "ledger_verified", "points"}
    assert len(payload["points"]) == len(LOADS)
    for point in payload["points"]:
        assert set(point) == POINT_KEYS
        assert set(point["tenants"]) == set(payload["tenants"])


def test_exactness_gates_passed(payload):
    # the bench asserts these before writing any number; the flags
    # record that the gates ran
    assert payload["single_tenant_identical"] is True
    assert payload["decomposition_verified"] is True
    assert payload["ledger_verified"] is True


def test_goodput_is_monotone_below_saturation(payload):
    below = [p for p in sorted(payload["points"],
                               key=lambda p: p["load_fraction"])
             if p["load_fraction"] < 1.0]
    assert len(below) >= 2
    goodputs = [p["goodput_rps"] for p in below]
    assert goodputs == sorted(goodputs), (
        f"goodput not monotone below saturation: {goodputs}")
    # below saturation nothing is shed and everything completes
    for p in below:
        assert p["shed"] == 0
        assert p["completed"] == REQUESTS * len(payload["tenants"])


def test_latency_percentiles_are_sane(payload):
    for p in payload["points"]:
        assert 0.0 < p["p50_latency_s"] <= p["p99_latency_s"]
        for t in p["tenants"].values():
            assert 0.0 < t["p50_latency_s"] <= t["p99_latency_s"]


def test_contention_is_priced_iff_streams_shared(payload):
    for p in payload["points"]:
        shared = p["contended_executes"] > 0
        assert (p["contention_time_s"] > 0.0) == shared
        assert (p["contention_energy_j"] > 0.0) == shared
    # the saturated point really drives concurrent streams
    top = max(payload["points"], key=lambda p: p["load_fraction"])
    assert top["contended_executes"] > 0


def test_stdout_mode_round_trips(capsys):
    rc = serving_bench.main(["--requests", "6",
                             "--loads", "0.4", "0.8", "1.1",
                             "--json", "-"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == serving_bench.SCHEMA
    assert len(out["points"]) == 3

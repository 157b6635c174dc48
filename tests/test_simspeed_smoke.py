"""Smoke test for the schedule-cache simulation-speed bench.

Runs ``benchmarks/bench_simspeed.py`` main with a small loop and
asserts the JSON schema, the cache-off parity gate (the bench itself
asserts bit-identity before emitting), and a conservative speedup
floor — the full bench's acceptance floor is 10x at its default loop
length; even at 24 executes the replay path must clear 5x with wide
margin (the per-call replay is >100x, so the floor tolerates a noisy
shared CI box).
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import bench_simspeed as simspeed  # noqa: E402

EXECUTES = 24

OP_KEYS = {
    "cold_wall_s", "cached_wall_s", "speedup", "hits", "misses",
    "hit_rate", "model_time_s", "model_energy_j",
}


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("simspeed") / "BENCH_simspeed.json"
    rc = simspeed.main(["--executes", str(EXECUTES),
                        "--ops", "DOT", "GEMV",
                        "--json", str(out)])
    assert rc == 0
    with out.open() as fh:
        return json.load(fh)


def test_schema_is_stable(payload):
    assert payload["schema"] == simspeed.SCHEMA
    assert set(payload) == {"schema", "executes", "scale", "ops",
                            "speedup_min", "speedup_max"}
    assert set(payload["ops"]) == {"DOT", "GEMV"}
    for point in payload["ops"].values():
        assert set(point) == OP_KEYS


def test_cached_replay_clears_the_speedup_floor(payload):
    # the bench's run already asserted per-call and ledger parity; the
    # smoke floor is deliberately below the full run's 10x acceptance
    # threshold to leave headroom for timing noise on a loaded machine
    assert payload["speedup_min"] >= 5.0, (
        f"schedule-cache replay too slow: {payload['speedup_min']:.2f}x")


def test_every_repeat_hits_the_cache(payload):
    for op, point in payload["ops"].items():
        assert point["misses"] == 1, op
        assert point["hits"] == EXECUTES - 1, op
        assert point["hit_rate"] == (EXECUTES - 1) / EXECUTES, op
        assert point["model_time_s"] > 0.0
        assert point["model_energy_j"] > 0.0


def test_stdout_mode_round_trips(capsys):
    rc = simspeed.main(["--executes", "4", "--ops", "AXPY",
                        "--json", "-"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == simspeed.SCHEMA
    assert out["ops"]["AXPY"]["hits"] == 3

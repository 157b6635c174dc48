"""Batching equivalence and served schedule-cache replay identity.

The batcher coalesces adjacent small same-op calls into one multi-PASS
descriptor (one PASS per member — see :mod:`repro.serving.batching`).
That transformation must be *exactly* equivalent where it matters:

* functional results — batched and unbatched runs write bit-identical
  output buffers;
* ``accelerator`` ledger totals — every member pass is modeled
  independently, so the batched totals equal the unbatched totals to
  the last bit, while the ``invocation`` total strictly shrinks (the
  whole point of coalescing);

and it must respect its own policy: never across ops, never past
``max_batch``, never for calls above the small-call threshold.

The second half pins schedule-cache replay under serving: hazards
between serves (a link flap, a dead tile, governor throttling) either
move the cache key or leave a world in which the cached entry is still
exact, so served results stay bit-identical to an uncached system, and
tenants share the entries of one system's cache.
"""

import numpy as np
import pytest

from repro.accel.axpy import AxpyParams
from repro.core import MealibSystem
from repro.eval.workloads import TABLE2
from repro.serving import (BatchPolicy, ServingRuntime, TenantConfig,
                           TrafficConfig, coalesce)
from repro.thermal import AMBIENT_K, ThermalConfig
from tests.serving.helpers import member

N_CALLS = 6
VECTOR_N = 4096
SCALE = 0.004


def _system():
    return MealibSystem(stack_bytes=32 << 20)


def _alloc_axpy_calls(system, rng):
    """N_CALLS real AXPY instances on freshly allocated buffers; the
    allocation order fixes the physical addresses, so two systems built
    the same way get bit-identical operand layouts."""
    calls = []
    views = []
    for i in range(N_CALLS):
        bx, x = system.space.alloc_array((VECTOR_N,), np.float32)
        by, y = system.space.alloc_array((VECTOR_N,), np.float32)
        x[:] = rng.standard_normal(VECTOR_N).astype(np.float32)
        y[:] = rng.standard_normal(VECTOR_N).astype(np.float32)
        calls.append(("AXPY", AxpyParams(n=VECTOR_N, alpha=1.5 + i,
                                         x_pa=bx.pa, y_pa=by.pa)))
        views.append(y)
    return calls, views


def _serve(system, calls, batching):
    serving = ServingRuntime(system, [TenantConfig("t")],
                             max_concurrency=1, batching=batching,
                             functional=True)
    for op, params in calls:
        serving.submit("t", op, params, arrival=0.0)
    serving.run()
    serving.verify_tenant_decomposition()
    return serving


def test_batched_run_is_functionally_exact():
    batched_sys = _system()
    unbatched_sys = _system()
    calls_a, views_a = _alloc_axpy_calls(batched_sys,
                                         np.random.default_rng(11))
    calls_b, views_b = _alloc_axpy_calls(unbatched_sys,
                                         np.random.default_rng(11))
    served_a = _serve(batched_sys, calls_a,
                      BatchPolicy(max_batch=N_CALLS))
    served_b = _serve(unbatched_sys, calls_b, None)
    # bit-identical outputs, member by member
    for i, (ya, yb) in enumerate(zip(views_a, views_b)):
        assert ya.tobytes() == yb.tobytes(), f"call {i} diverged"
    # everything rode one coalesced descriptor vs. N solo ones
    assert all(r.batch_size == N_CALLS for r in served_a.requests)
    assert batched_sys.runtime.counters.executes == 1
    assert unbatched_sys.runtime.counters.executes == N_CALLS


def test_batched_ledger_totals_are_exact():
    batched_sys = _system()
    unbatched_sys = _system()
    calls_a, _ = _alloc_axpy_calls(batched_sys,
                                   np.random.default_rng(12))
    calls_b, _ = _alloc_axpy_calls(unbatched_sys,
                                   np.random.default_rng(12))
    _serve(batched_sys, calls_a, BatchPolicy(max_batch=N_CALLS))
    _serve(unbatched_sys, calls_b, None)
    # accelerator totals: bit-identical (one PASS per member, each
    # modeled exactly as its solo descriptor would be)
    a = batched_sys.ledger.total("accelerator")
    b = unbatched_sys.ledger.total("accelerator")
    assert a.time == b.time and a.energy == b.energy
    # invocation totals: strictly smaller batched — the coalescing win
    inv_a = batched_sys.ledger.total("invocation")
    inv_b = unbatched_sys.ledger.total("invocation")
    assert inv_a.time < inv_b.time
    assert inv_a.energy < inv_b.energy


def test_batches_never_cross_ops_or_max_batch():
    system = _system()
    serving = ServingRuntime(system, [TenantConfig("t")],
                             max_concurrency=1,
                             batching=BatchPolicy(max_batch=3),
                             functional=False)
    ops = ["AXPY", "AXPY", "AXPY", "AXPY", "DOT", "DOT", "AXPY"]
    for op in ops:
        serving.submit("t", op, TABLE2[op].params(SCALE), arrival=0.0)
    serving.run()
    sizes = [r.batch_size for r in serving.requests]
    # FIFO + policy: AXPYx3 (cap), AXPY alone, DOTx2, AXPY alone
    assert sizes == [3, 3, 3, 1, 2, 2, 1]
    for r in serving.requests:
        batch_ops = {q.op for q in serving.requests
                     if q.start == r.start}
        assert len(batch_ops) == 1, "a batch mixed ops"


def test_large_calls_are_never_batched():
    system = _system()
    policy = BatchPolicy(max_batch=8, max_bytes=1 << 10)  # tiny cap
    serving = ServingRuntime(system, [TenantConfig("t")],
                             max_concurrency=1, batching=policy,
                             functional=False)
    for _ in range(4):
        serving.submit("t", "AXPY", TABLE2["AXPY"].params(SCALE),
                       arrival=0.0)
    serving.run()
    assert all(r.batch_size == 1 for r in serving.requests)


@pytest.mark.parametrize("build", [
    lambda: TenantConfig("t", max_queue_depth=1.5),
    lambda: TenantConfig("t", max_queue_depth=float("nan")),
    lambda: TenantConfig("t", max_queue_depth=True),
    lambda: TenantConfig("t", max_queue_depth=0),
    lambda: BatchPolicy(max_batch=2.5),
    lambda: BatchPolicy(max_batch=float("nan")),
    lambda: BatchPolicy(max_batch=0),
    lambda: BatchPolicy(max_bytes=float("nan")),
    lambda: BatchPolicy(ops=("NOPE",)),
    lambda: BatchPolicy(ops=()),
], ids=["depth-1.5", "depth-nan", "depth-bool", "depth-0", "batch-2.5",
        "batch-nan", "batch-0", "bytes-nan", "ops-unknown", "ops-empty"])
def test_serving_configs_reject_bad_values(build):
    with pytest.raises(ValueError):
        build()


def test_serving_configs_accept_integer_types():
    assert TenantConfig("t", max_queue_depth=np.int64(3)).max_queue_depth == 3
    policy = BatchPolicy(ops=("DOT",), max_batch=np.int32(2), max_bytes=1)
    assert policy.batchable("DOT", 1) and not policy.batchable("AXPY", 1)


# -- served schedule-cache replay identity ------------------------------------


def _cached_serving(system):
    return ServingRuntime(system, [TenantConfig("t")],
                          max_concurrency=1, functional=False)


def _serve_plan_lockstep(build, op, scale, hazards):
    """Serve one plan once, then once after each hazard, on a cache-on
    and a cache-off system; asserts every served result matches and
    returns the cache-on system and its serving runtime."""
    runs = []
    for cache in (True, False):
        system = build(cache)
        serving = _cached_serving(system)
        plan = coalesce(system,
                        [member(system, op, TABLE2[op].params(scale))])
        for i, hazard in enumerate([None, *hazards]):
            if hazard is not None:
                hazard(system)
            serving.submit_plan("t", plan, arrival=float(i))
            serving.run()
        runs.append((system, serving))
    (on, served_on), (off, served_off) = runs
    for a, b in zip(served_on.requests, served_off.requests):
        assert (a.result.time, a.result.energy) \
            == (b.result.time, b.result.energy)
    assert on.ledger.entries == off.ledger.entries
    return on, served_on


def test_served_link_flap_replays_bit_identical():
    def flap(system):
        noc = system.layer.noc
        link = noc.healthy_links()[0]
        noc.fail_link(*link)
        noc.restore_link(*link)

    system, serving = _serve_plan_lockstep(
        lambda cache: MealibSystem(stack_bytes=32 << 20,
                                   schedule_cache=cache),
        "AXPY", SCALE,
        [None, None, flap, lambda s: s.layer.mark_tile_failed(0)])
    stats = system.schedule_cache.stats
    # a flap that is undone before the serve leaves the world the entry
    # was computed in: the serve replays. A dead tile moves the key.
    assert (stats.hits, stats.misses) == (3, 2)
    healthy = serving.requests[0].result
    assert serving.requests[3].result == healthy
    assert serving.requests[4].result.time > healthy.time
    assert system.ledger.total("reroute").time > 0.0


def test_served_governor_transitions_replay_bit_identical():
    system, serving = _serve_plan_lockstep(
        lambda cache: MealibSystem(
            stack_bytes=32 << 20,
            thermal=ThermalConfig(envelope=AMBIENT_K + 0.5),
            schedule_cache=cache),
        "GEMV", 0.016, [None] * 5)
    assert system.governor.stats.throttle_events > 0, (
        "the scenario no longer throttles; pick a heavier op")
    stats = system.schedule_cache.stats
    assert stats.hits > 0 and stats.misses > 1


def test_tenants_share_cache_entries():
    system = MealibSystem(stack_bytes=32 << 20, schedule_cache=True)
    serving = ServingRuntime(system,
                             [TenantConfig("a"), TenantConfig("b")],
                             max_concurrency=1, functional=False)
    plan = coalesce(system, [member(system, "AXPY",
                                    TABLE2["AXPY"].params(SCALE))])
    for i in range(4):
        serving.submit_plan("a" if i % 2 == 0 else "b", plan,
                            arrival=float(i))
    serving.run()
    # a takes the cold miss; every later serve, b's included, replays
    stats = system.schedule_cache.stats
    assert (stats.hits, stats.misses) == (3, 1)


@pytest.mark.parametrize("field,value,error", [
    ("rate", float("nan"), ValueError),
    ("rate", "1e6", TypeError),
    ("scale", float("nan"), ValueError),
    ("scale", -1, ValueError),
    ("n_requests", 2.5, TypeError),
    ("n_requests", 0, ValueError),
    ("burst_size", True, TypeError),
])
def test_traffic_config_typed_errors_name_the_field(field, value, error):
    kwargs = {"rate": 1e6, "n_requests": 8, field: value}
    with pytest.raises(error, match=field):
        TrafficConfig(**kwargs)


@pytest.mark.parametrize("field,value,error", [
    ("max_concurrency", 0, ValueError), ("max_concurrency", 2.5, TypeError),
    ("max_concurrency", True, TypeError),
    ("aging_quantum", 0.0, ValueError),
    ("aging_quantum", float("nan"), ValueError),
    ("aging_quantum", float("inf"), ValueError),
    ("aging_quantum", "5e-3", TypeError),
])
def test_serving_runtime_typed_errors_name_the_field(field, value, error):
    with pytest.raises(error, match=field):
        ServingRuntime(_system(), [TenantConfig("t")], **{field: value})

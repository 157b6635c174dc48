"""Typed admission: ``ServingRuntime.submit`` rejects a call it could
not serve, before anything is queued.

An owned call must name a deployed accelerator and carry that
accelerator's ``params_type``. Anything else is a :class:`ValueError`
naming the op, raised at ``submit`` whatever the batching policy, so a
bad call can never fail mid-round after earlier requests were served.
Admission also records each call's buffer sizes, which the dispatch
hands to ``coalesce``.
"""

import pytest

from repro.core import MealibSystem
from repro.eval.workloads import TABLE2
from repro.serving import (BatchPolicy, ServingRuntime, TenantConfig,
                           call_sizes)

POLICIES = pytest.mark.parametrize("batching", [None, BatchPolicy()],
                                   ids=["unbatched", "batched"])

AXPY = TABLE2["AXPY"].params(0.004)


def _serving(batching):
    system = MealibSystem(stack_bytes=32 << 20)
    return ServingRuntime(system, [TenantConfig("t")], batching=batching,
                          functional=False)


def _assert_nothing_admitted(serving):
    assert serving.requests == []
    assert serving.stats["t"].submitted == 0


@POLICIES
@pytest.mark.parametrize("op", ["GEMM", "axpy", "", None])
def test_unknown_op_rejected_at_submit(batching, op):
    serving = _serving(batching)
    with pytest.raises(ValueError) as info:
        serving.submit("t", op, AXPY)
    assert repr(op) in str(info.value)
    _assert_nothing_admitted(serving)


@POLICIES
def test_mismatched_params_rejected_at_submit(batching):
    serving = _serving(batching)
    with pytest.raises(ValueError) as info:
        serving.submit("t", "DOT", AXPY)
    assert "'DOT'" in str(info.value)
    assert "DotParams" in str(info.value)
    assert "AxpyParams" in str(info.value)
    _assert_nothing_admitted(serving)


@POLICIES
def test_rejected_call_leaves_the_round_whole(batching):
    """Good calls before and after a rejected one are all served."""
    serving = _serving(batching)
    serving.submit("t", "AXPY", AXPY, arrival=0.0)
    with pytest.raises(ValueError):
        serving.submit("t", "DOT", AXPY, arrival=1e-6)
    with pytest.raises(ValueError):
        serving.submit("t", "GEMM", AXPY, arrival=2e-6)
    serving.submit("t", "AXPY", AXPY, arrival=3e-6)
    serving.run()
    assert [r.result is not None for r in serving.requests] == [True, True]
    assert serving.stats["t"].completed == 2
    serving.verify_tenant_decomposition()


@POLICIES
@pytest.mark.parametrize("op", sorted(TABLE2))
def test_admission_records_call_sizes(batching, op):
    serving = _serving(batching)
    params = TABLE2[op].params(0.004)
    request = serving.submit("t", op, params)
    assert (request.in_bytes, request.out_bytes) == call_sizes(
        serving.system.layer, op, params)


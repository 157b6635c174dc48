"""The columnar ledger: view semantics, sums bit-identical to the
record ledger it replaced, typed rejection of bad logs, the retained
memory per execute, and the one checker, :func:`verify_ledger`, against
mutants it must catch."""

import math
import tracemalloc

import pytest

from repro.core import (CATEGORIES, REGISTRY, Ledger, LedgerEntry,
                        MealibSystem, verify_ledger)
from repro.core import ledger as ledger_module
from repro.core.config_unit import fetch_charge
from repro.core.ledger import MAX_LABELS
from repro.eval.workloads import TABLE2
from repro.faults import FaultInjector, ScrubConfig
from repro.metrics import ZERO, ExecResult
from repro.serving import (BatchPolicy, QosClass, ServingRuntime,
                           TenantConfig, TrafficConfig, coalesce,
                           generate_trace)
from repro.thermal import AMBIENT_K, ThermalConfig
from tests.core.helpers import ReferenceLedger, record_executes
from tests.serving.helpers import member

SCALES = (0.001, 0.004, 0.01)


def _small_ledger():
    ledger = Ledger()
    ledger.log("invocation", "invocation", ExecResult(1.0, 2.0))
    ledger.log("accelerator", "AXPY", ExecResult(3.0, 4.0))
    ledger.log("scrub", "patrol", ExecResult(0.5, 0.25))
    ledger.log("accelerator", "DOT", ExecResult(5.0, 6.0))
    return ledger


def _expected():
    return [LedgerEntry("invocation", "invocation", ExecResult(1.0, 2.0)),
            LedgerEntry("accelerator", "AXPY", ExecResult(3.0, 4.0)),
            LedgerEntry("scrub", "patrol", ExecResult(0.5, 0.25)),
            LedgerEntry("accelerator", "DOT", ExecResult(5.0, 6.0))]


# -- the entries view ---------------------------------------------------------


class TestEntriesView:
    def test_len_index_and_negative_index(self):
        ledger = _small_ledger()
        view = ledger.entries
        expected = _expected()
        assert len(view) == len(ledger) == 4
        for i in range(-4, 4):
            assert view[i] == expected[i]
        for i in (4, -5):
            with pytest.raises(IndexError):
                view[i]

    def test_slices_are_lists_of_entries(self):
        view = _small_ledger().entries
        expected = _expected()
        for sl in (slice(None), slice(1, 3), slice(2, None),
                   slice(None, -1), slice(None, None, 2),
                   slice(None, None, -1), slice(10, 20)):
            assert view[sl] == expected[sl]
            assert isinstance(view[sl], list)

    def test_iteration_and_membership(self):
        view = _small_ledger().entries
        assert list(view) == _expected()
        assert [e.category for e in view] == [
            "invocation", "accelerator", "scrub", "accelerator"]
        assert _expected()[2] in view

    def test_equal_to_a_list_and_to_another_view(self):
        ledger = _small_ledger()
        assert ledger.entries == _expected()
        assert _expected() == ledger.entries
        assert ledger.entries != _expected()[:3]
        assert ledger.entries != _expected()[::-1]
        # the same entries with labels recorded in another order
        source = Ledger()
        source.log("accelerator", "DOT", ExecResult(9.0, 9.0))
        for e in _expected():
            source.log(e.category, e.label, e.result)
        other = source.select([(1, 5)])
        assert other._labels != ledger._labels
        assert ledger.entries == other.entries
        other.log("host", "x", ZERO)
        assert ledger.entries != other.entries
        assert Ledger().entries == []
        assert Ledger().entries == Ledger().entries

    def test_view_has_no_mutators(self):
        ledger = _small_ledger()
        view = ledger.entries
        for name in ("append", "extend", "insert", "pop", "remove",
                     "sort", "reverse", "clear"):
            assert not hasattr(view, name), name
        with pytest.raises(TypeError):
            view[0] = view[1]
        with pytest.raises(TypeError):
            del view[0]
        with pytest.raises(AttributeError):
            ledger.entries = []
        with pytest.raises(TypeError):
            hash(view)
        # an entry is built on read: changing it leaves the ledger alone
        entry = view[0]
        entry.label = "changed"
        assert view[0].label == "invocation"

    def test_view_follows_the_ledger(self):
        ledger = Ledger()
        view = ledger.entries
        assert len(view) == 0
        ledger.log("host", "h", ExecResult(1.0, 1.0))
        assert len(view) == 1 and view[0].label == "h"
        ledger.clear()
        assert view == [] and ledger.by_label("host") == {}


# -- sums: bit-identical to the record ledger ---------------------------------


def _tee(monkeypatch):
    """Log every entry any ledger records into one reference ledger
    too, with the very ExecResult the runtime handed in."""
    ref = ReferenceLedger()
    log = Ledger.log

    def teeing(self, category, label, result):
        log(self, category, label, result)
        ref.log(category, label, result)

    monkeypatch.setattr(Ledger, "log", teeing)
    return ref


def _assert_sums_match(ledger, ref):
    assert len(ledger) == len(ref.entries) > 0
    assert ledger.entries == ref.entries
    for category in (None, *CATEGORIES):
        a, b = ledger.total(category), ref.total(category)
        assert (a.time.hex(), a.energy.hex()) \
            == (b.time.hex(), b.energy.hex()), category
    for category in CATEGORIES:
        a, b = ledger.by_label(category), ref.by_label(category)
        assert list(a) == list(b), category
        for label in a:
            assert (a[label].time.hex(), a[label].energy.hex()) \
                == (b[label].time.hex(), b[label].energy.hex())


def _execute_table2(system, scales, concurrency=1):
    for scale in scales:
        for op in TABLE2:
            plan = coalesce(system,
                            [member(system, op, TABLE2[op].params(scale))])
            system.runtime.acc_execute(plan, functional=False,
                                       concurrency=concurrency)
            system.runtime.acc_destroy(plan)


def _hazard_system():
    system = MealibSystem(
        stack_bytes=64 << 20,
        faults=FaultInjector(seed=0, latent_flip_rate=1e-5,
                             descriptor_corruption_rate=0.3,
                             hang_rate=0.1),
        scrub=ScrubConfig(interval=2),
        thermal=ThermalConfig(envelope=AMBIENT_K + 0.5))
    system.layer.mark_tile_failed(0)
    return system


def _serve_batched_round(system):
    tenants = [TenantConfig("a", QosClass.INTERACTIVE, max_queue_depth=64),
               TenantConfig("b", QosClass.BULK, max_queue_depth=64)]
    serving = ServingRuntime(system, tenants, max_concurrency=2,
                             batching=BatchPolicy(), functional=False)
    for stream, tenant in enumerate(tenants):
        cfg = TrafficConfig(rate=1e9, n_requests=60, scale=0.004)
        for a in generate_trace(tenant.tenant, cfg, seed=3, stream=stream):
            serving.submit_arrival(a)
    serving.run()
    assert any(r.batch_size > 1 for r in serving.requests)
    return serving


def test_sums_match_reference_over_table2_at_three_scales(monkeypatch):
    ref = _tee(monkeypatch)
    system = MealibSystem(stack_bytes=64 << 20)
    _execute_table2(system, SCALES)
    _assert_sums_match(system.ledger, ref)


def test_sums_match_reference_with_every_category(monkeypatch):
    ref = _tee(monkeypatch)
    system = _hazard_system()
    _execute_table2(system, SCALES, concurrency=2)
    system.runtime.log_host("cholesky", ExecResult(3e-6, 1e-4))
    assert {e.category for e in system.ledger.entries} == set(CATEGORIES)
    _assert_sums_match(system.ledger, ref)


def test_sums_match_reference_over_a_batched_serving_round(monkeypatch):
    ref = _tee(monkeypatch)
    system = MealibSystem(stack_bytes=64 << 20, schedule_cache=True)
    serving = _serve_batched_round(system)
    _assert_sums_match(system.ledger, ref)
    for tenant in ("a", "b"):
        mine = ReferenceLedger()
        for e in serving.tenant_ledger(tenant).entries:
            mine.log(e.category, e.label, e.result)
        _assert_sums_match(serving.tenant_ledger(tenant), mine)


def test_span_time_sums_one_category_of_the_span():
    ledger = _small_ledger()
    assert ledger.span_time("accelerator", 1, 3) == 3.0
    assert ledger.span_time("accelerator", 0, 4) == 8.0
    assert ledger.span_time("scrub", 3, 4) == 0.0
    assert ledger.span_time("contention", 0, 4) == 0.0
    with pytest.raises(ValueError, match="unknown ledger category"):
        ledger.span_time("bogus", 0, 4)


def test_sums_are_left_to_right_not_compensated():
    # a compensated sum (``sum`` on Python >= 3.12, ``fsum``) rounds
    # the two small terms up to one ulp of 1.0
    terms = (1.0, 1e-16, 1e-16)
    assert math.fsum(terms) == 1.0 + 2 ** -52
    ledger = Ledger()
    for t in terms:
        ledger.log("host", "h", ExecResult(t, t))
    ref = ReferenceLedger()
    for e in ledger.entries:
        ref.log(e.category, e.label, e.result)
    assert ledger.total() == ref.total() == ExecResult(1.0, 1.0)
    assert ledger.by_label("host") == ref.by_label("host")


# -- typed rejection of bad logs ----------------------------------------------


class TestLogRejects:
    @pytest.mark.parametrize("result", [None, (1.0, 1.0), 1.0, "x"])
    def test_result_not_an_exec_result(self, result):
        ledger = Ledger()
        with pytest.raises(TypeError, match="ExecResult"):
            ledger.log("host", "h", result)
        assert len(ledger) == 0

    @pytest.mark.parametrize("label", [None, 3, b"h", ("h",)])
    def test_label_not_a_str(self, label):
        ledger = Ledger()
        with pytest.raises(TypeError, match="label"):
            ledger.log("host", label, ZERO)
        assert len(ledger) == 0

    @pytest.mark.parametrize("category", ["bogus", "Host", ""])
    def test_unknown_category(self, category):
        ledger = Ledger()
        with pytest.raises(ValueError, match="unknown ledger category"):
            ledger.log(category, "x", ZERO)
        assert len(ledger) == 0

    def test_unknown_category_in_queries(self):
        ledger = _small_ledger()
        with pytest.raises(ValueError, match="unknown ledger category"):
            ledger.total("bogus")
        with pytest.raises(ValueError, match="unknown ledger category"):
            ledger.by_label("bogus")

    def test_label_codes_do_not_wrap(self):
        ledger = Ledger()
        for i in range(MAX_LABELS):
            ledger.log("host", str(i), ZERO)
        assert ledger.entries[-1].label == str(MAX_LABELS - 1)
        with pytest.raises(ValueError, match="distinct labels"):
            ledger.log("host", "one too many", ZERO)
        # known labels still log; nothing wrapped onto label 0
        ledger.log("host", "7", ZERO)
        assert len(ledger) == MAX_LABELS + 1
        assert ledger.entries[-1].label == "7"
        assert ledger.entries[0].label == "0"


# -- retained memory ----------------------------------------------------------


def test_retained_bytes_per_execute_are_tens_not_hundreds():
    system = MealibSystem(stack_bytes=64 << 20, schedule_cache=True)
    plan = coalesce(system,
                    [member(system, "AXPY", TABLE2["AXPY"].params(0.001))])
    execute = system.runtime.acc_execute
    for _ in range(200):            # warm the cache and every freelist
        execute(plan, functional=False)
    n = 1500
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(n):
            execute(plan, functional=False)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system.ledger) == 2 * (200 + n)
    assert retained / n <= 64, f"{retained / n:.1f} B per execute"


# -- the checker --------------------------------------------------------------


def _one_execute(monkeypatch, system=None, concurrency=1):
    system = system or MealibSystem(stack_bytes=64 << 20)
    seen = record_executes(monkeypatch, system)
    _execute_table2(system, (0.004,), concurrency=concurrency)
    return system, seen


def test_registry_declares_every_category_once():
    assert CATEGORIES == tuple(REGISTRY)
    assert [c for c, spec in REGISTRY.items() if not spec.folds] \
        == ["scrub", "contention"]
    overheads = {c: (spec.overhead_label, spec.counter)
                 for c, spec in REGISTRY.items() if spec.counter}
    assert overheads == {
        "reroute": ("vault-stripe", "degraded_executes"),
        "throttle": ("dvfs-stretch", "throttled_executes"),
        "contention": ("vault-share", "contended_executes")}


def test_checker_passes_healthy_hazardous_and_served_ledgers(monkeypatch):
    system, seen = _one_execute(monkeypatch)
    verify_ledger(system.ledger, seen)
    system, seen = _one_execute(monkeypatch, _hazard_system(), 2)
    assert "fallback" in {e.category for e in system.ledger.entries}
    verify_ledger(system.ledger, seen)
    system = MealibSystem(stack_bytes=64 << 20, schedule_cache=True)
    _serve_batched_round(system).verify_tenant_decomposition()


def test_checker_catches_a_dropped_folded_entry(monkeypatch):
    system, seen = _one_execute(monkeypatch)
    ledger = system.ledger
    first = seen[3][0]
    stop = seen[4][0]
    for dropped in range(first + 1, stop):
        assert REGISTRY[ledger.entries[dropped].category].folds
        mutant = ledger.select([(0, dropped), (dropped + 1, len(ledger))])
        shifted = [(f - (f > dropped), size, r) for f, size, r in seen]
        with pytest.raises(AssertionError, match="fold"):
            verify_ledger(mutant, shifted)
    # so does dropping the invocation entry that opens the execute
    mutant = ledger.select([(0, first), (first + 1, len(ledger))])
    with pytest.raises(AssertionError):
        verify_ledger(mutant, seen)


def test_checker_needs_the_fetch_charge(monkeypatch):
    system, seen = _one_execute(monkeypatch)
    verify_ledger(system.ledger, seen)
    monkeypatch.setattr(ledger_module, "fetch_charge", lambda size: ZERO)
    for execute in seen:
        with pytest.raises(AssertionError, match="fold"):
            verify_ledger(system.ledger, [execute])
    # the charge is what closes the gap: ~200 ns per execute
    _, size, _ = seen[0]
    assert 200e-9 < fetch_charge(size).time < 206e-9


def test_checker_rejects_the_wrong_returned_cost(monkeypatch):
    system, seen = _one_execute(monkeypatch)
    first, size, result = seen[0]
    nudged = ExecResult(result.time * (1 + 1e-12), result.energy)
    with pytest.raises(AssertionError, match="time"):
        verify_ledger(system.ledger, [(first, size, nudged)])
    with pytest.raises(AssertionError, match="does not start"):
        verify_ledger(system.ledger, [(first + 1, size, result)])
    with pytest.raises(AssertionError, match="does not start"):
        verify_ledger(system.ledger, [(len(system.ledger), size, result)])


@pytest.mark.parametrize("column", ["_time", "_energy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -1e-300])
def test_checker_catches_a_bad_value(monkeypatch, column, bad):
    system, seen = _one_execute(monkeypatch)
    getattr(system.ledger, column)[5] = bad
    with pytest.raises(AssertionError, match="finite and non-negative"):
        verify_ledger(system.ledger)


def test_checker_catches_out_of_range_codes(monkeypatch):
    system, _ = _one_execute(monkeypatch)
    ledger = system.ledger
    ledger._category[3] = len(CATEGORIES)
    with pytest.raises(AssertionError, match="category code"):
        verify_ledger(ledger)
    ledger._category[3] = ledger._category[2]
    verify_ledger(ledger)
    ledger._label[4] = len(ledger._labels)
    with pytest.raises(AssertionError, match="label code"):
        verify_ledger(ledger)

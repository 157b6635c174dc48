"""Runtime + configuration unit integration: the full descriptor path."""

import numpy as np
import pytest

from repro.accel import (AxpyParams, DotParams, FftParams, ResmpParams,
                         DTYPE_C64)
from repro.accel.base import StrideTable, pack_strides
from repro.core import (MealibSystem, MealibRuntimeError, ParamStore,
                        DescriptorError, encode, encoded_size, parse_tdl,
                        verify_ledger)
from repro.faults import FaultInjector
from repro.memmgmt.allocator import ContiguousAllocator
from repro.metrics import ZERO


@pytest.fixture
def system():
    return MealibSystem(stack_bytes=256 << 20)


def make_axpy_plan(system, n=1024, alpha=2.0):
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    store = ParamStore()
    store.add("a.para", AxpyParams(n=n, alpha=alpha, x_pa=xb.pa,
                                   y_pa=yb.pa).pack())
    plan = system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                   in_size=n * 8, out_size=n * 4)
    return plan, x, y


class TestRuntime:
    def test_execute_is_functional(self, system):
        plan, x, y = make_axpy_plan(system, alpha=3.0)
        result = system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(1024, 4.0, np.float32))
        assert result.time > 0 and result.energy > 0

    def test_plan_reusable(self, system):
        """One acc_plan, many acc_execute — the Fig 12b software loop."""
        plan, x, y = make_axpy_plan(system, alpha=1.0)
        for _ in range(3):
            system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y, np.full(1024, 4.0, np.float32))
        assert plan.executions == 3

    def test_destroy_releases_slot(self, system):
        plan, _, _ = make_axpy_plan(system)
        free_before = system.runtime._command_alloc.free_bytes
        system.runtime.acc_destroy(plan)
        assert system.runtime._command_alloc.free_bytes > free_before
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_execute(plan)
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_destroy(plan)

    def test_negative_sizes_rejected(self, system):
        store = ParamStore()
        store.add("a.para", b"\x00" * AxpyParams.SIZE)
        with pytest.raises(MealibRuntimeError):
            system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                    in_size=-1, out_size=0)

    def test_ledger_accumulates(self, system):
        plan, _, _ = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        ledger = system.runtime.ledger
        assert ledger.total("invocation").time > 0
        assert ledger.total("accelerator").time > 0
        assert "AXPY" in ledger.by_label("accelerator")
        assert len(ledger) == 2
        verify_ledger(ledger, [(0, plan.descriptor.size, result)])

    def test_descriptor_resides_in_command_space(self, system):
        plan, _, _ = make_axpy_plan(system)
        assert plan.descriptor.base_pa < system.space.command_bytes

    def test_acc_plan_encodes_once_in_the_probed_slot(self, system):
        """``acc_plan`` sizes the slot with ``encoded_size`` and encodes
        once; the slot and the bytes are those of probe-encoding at
        base 0 first and then placing the descriptor."""
        shadow = ContiguousAllocator(base=system.space.command_pa + 256,
                                     size=system.space.command_bytes - 256)
        store = ParamStore()
        store.add("a.para", AxpyParams(n=64, alpha=1.5, x_pa=0x1000,
                                       y_pa=0x2000).pack())
        store.add("s.para", AxpyParams(n=64, alpha=1.5, x_pa=0x1000,
                                       y_pa=0x2000).pack()
                  + pack_strides(AxpyParams, {"x_pa": 256, "y_pa": 256}))
        store.add("f.para", FftParams(n=64, batch=2, src_pa=0x3000,
                                      dst_pa=0x4000).pack())
        texts = ["PASS { COMP AXPY a.para }",
                 "LOOP 4 { PASS { COMP AXPY s.para } "
                 "PASS { COMP FFT f.para } }",
                 "PASS { COMP AXPY a.para COMP FFT f.para }\n"
                 "PASS { COMP FFT f.para }"]
        plans = []
        for round_ in range(2):
            for text in texts:
                program = parse_tdl(text)
                probe = encode(program, store, base_pa=0)
                assert encoded_size(program, store) == probe.size
                slot = shadow.alloc(probe.size, align=64)
                plan = system.runtime.acc_plan(text, store, 0, 0)
                assert plan.descriptor.base_pa == slot
                assert plan.descriptor == encode(program, store,
                                                 base_pa=slot)
                plans.append(plan)
            # freed slots are reused exactly as before
            for plan in plans[::2]:
                system.runtime.acc_destroy(plan)
                shadow.free(plan.descriptor.base_pa)
            plans = plans[1::2]

    def test_invocation_overhead_included(self, system):
        plan, _, _ = make_axpy_plan(system)
        result = system.runtime.acc_execute(plan)
        overhead = system.runtime.invocation.total(
            plan.descriptor.size, plan.working_set_bytes)
        assert result.time > overhead.time


class TestLoopsAndStrides:
    def test_loop_advances_addresses(self, system):
        rows, n = 8, 256
        xb, x = system.space.alloc_array((rows, n), np.float32)
        yb, y = system.space.alloc_array((rows, n), np.float32)
        x[:] = np.arange(rows, dtype=np.float32)[:, None]
        y[:] = 0.0
        store = ParamStore()
        base = AxpyParams(n=n, alpha=1.0, x_pa=xb.pa, y_pa=yb.pa)
        store.add("a.para", base.pack() + pack_strides(
            AxpyParams, {"x_pa": n * 4, "y_pa": n * 4}))
        plan = system.runtime.acc_plan(
            f"LOOP {rows} {{ PASS {{ COMP AXPY a.para }} }}", store,
            in_size=rows * n * 4, out_size=rows * n * 4)
        system.runtime.acc_execute(plan)
        np.testing.assert_array_equal(y[:, 0],
                                      np.arange(rows, dtype=np.float32))

    def test_loop_counts_invocations(self, system):
        plan, _, _ = make_axpy_plan(system)
        execution = system.config_unit.run_descriptor  # smoke: attribute
        assert callable(execution)
        assert plan.program.invocation_count() == 1

    def test_stap_shaped_dot_loop(self, system):
        """Many strided cdotc calls collapsed into one LOOP descriptor."""
        iters, n = 16, 32
        xb, x = system.space.alloc_array((iters, n), np.complex64)
        yb, y = system.space.alloc_array((iters, n), np.complex64)
        ob, out = system.space.alloc_array((iters,), np.complex64)
        rng = np.random.default_rng(0)
        x[:] = rng.standard_normal((iters, n)) + 1j
        y[:] = rng.standard_normal((iters, n)) - 1j
        store = ParamStore()
        base = DotParams(n=n, x_pa=xb.pa, y_pa=yb.pa, out_pa=ob.pa,
                         dtype=DTYPE_C64)
        store.add("d.para", base.pack() + pack_strides(
            DotParams, {"x_pa": n * 8, "y_pa": n * 8, "out_pa": 8}))
        plan = system.runtime.acc_plan(
            f"LOOP {iters} {{ PASS {{ COMP DOT d.para }} }}", store,
            in_size=iters * n * 16, out_size=iters * 8)
        system.runtime.acc_execute(plan)
        for i in range(iters):
            assert complex(out[i]) == pytest.approx(
                complex(np.vdot(x[i], y[i])), rel=1e-3)

    @pytest.mark.parametrize("trips", [(2, 0), (0, 2), (2, -1)])
    def test_multi_level_trip_below_one_rejected(self, system, trips):
        """Every level of a multi-level stride table is a trip count
        of at least 1 (only a one-level ``(0,)`` table means "the loop
        count"). Anything smaller is rejected at decode, before any
        functional effect, and the host fallback, decoding the same
        bytes, rejects it too."""
        n = 64
        xb, x = system.space.alloc_array((4, n), np.float32)
        yb, y = system.space.alloc_array((4, n), np.float32)
        x[:] = 1.0
        y[:] = 0.0
        table = StrideTable(trips=trips,
                            deltas={"x_pa": (2 * n * 4, n * 4),
                                    "y_pa": (2 * n * 4, n * 4)})
        store = ParamStore()
        store.add("a.para", AxpyParams(n=n, alpha=1.0, x_pa=xb.pa,
                                       y_pa=yb.pa).pack()
                  + pack_strides(AxpyParams, table))
        plan = system.runtime.acc_plan(
            "LOOP 4 { PASS { COMP AXPY a.para } }", store,
            in_size=4 * n * 8, out_size=4 * n * 4)
        with pytest.raises(DescriptorError, match="trip below 1"):
            system.runtime.acc_execute(plan, functional=True)
        np.testing.assert_array_equal(y, 0.0)


class TestConfigUnit:
    def test_descriptor_without_start_rejected(self, system):
        plan, _, _ = make_axpy_plan(system)
        # the golden image carries CMD_IDLE: without the doorbell the
        # configuration unit must refuse to decode it
        desc = plan.descriptor
        with pytest.raises(DescriptorError):
            system.config_unit.plans_from_image(desc.data, desc.base_pa,
                                                require_start=True)

    def test_chained_pass_faster_than_two_passes(self, system):
        n = 512
        in_pa = 0x100000
        mid_pa = in_pa + n * n * 8 + n * n * 4
        out_pa = mid_pa + n * n * 8
        knots_pa = out_pa + n * n * 8
        rp = ResmpParams(blocks=n, n_in=n, n_out=n, in_pa=in_pa,
                         sites_pa=in_pa + n * n * 8, out_pa=mid_pa,
                         knots_pa=knots_pa)
        fp = FftParams(n=n, batch=n, src_pa=mid_pa, dst_pa=out_pa)
        ws = n * n * 8
        store = ParamStore()
        store.add("r.para", rp.pack())
        store.add("f.para", fp.pack())
        chained = system.runtime.acc_plan(
            "PASS { COMP RESMP r.para COMP FFT f.para }", store,
            in_size=ws, out_size=ws)
        t_chained = system.runtime.acc_execute(chained,
                                               functional=False).time
        s1, s2 = ParamStore(), ParamStore()
        s1.add("r.para", rp.pack())
        s2.add("f.para", fp.pack())
        p1 = system.runtime.acc_plan("PASS { COMP RESMP r.para }", s1,
                                     in_size=ws, out_size=ws)
        p2 = system.runtime.acc_plan("PASS { COMP FFT f.para }", s2,
                                     in_size=ws, out_size=ws)
        t_separate = (system.runtime.acc_execute(p1, functional=False)
                      .plus(system.runtime.acc_execute(
                          p2, functional=False))).time
        assert t_chained < t_separate

    def test_hw_loop_faster_than_sw_loop(self, system):
        n, count = 256, 16
        fp = FftParams(n=n, batch=n, src_pa=0x100000,
                       dst_pa=0x100000 + n * n * 8)
        ws = n * n * 8
        store = ParamStore()
        store.add("f.para", fp.pack())
        hw = system.runtime.acc_plan(
            f"LOOP {count} {{ PASS {{ COMP FFT f.para }} }}", store,
            in_size=ws, out_size=ws)
        t_hw = system.runtime.acc_execute(hw, functional=False).time
        store2 = ParamStore()
        store2.add("f.para", fp.pack())
        sw = system.runtime.acc_plan("PASS { COMP FFT f.para }", store2,
                                     in_size=ws, out_size=ws)
        t_sw = ZERO
        for _ in range(count):
            t_sw = t_sw.plus(system.runtime.acc_execute(
                sw, functional=False))
        assert t_hw < t_sw.time

    def test_breakdown_reports_by_accelerator(self, system):
        plan, _, _ = make_axpy_plan(system)
        system.runtime.acc_execute(plan)
        host, accel, invocation = system.breakdown()
        assert accel.time > 0
        assert invocation.time > 0
        assert host.time == 0


@pytest.mark.parametrize("knob", ["host", "device", "layer", "invocation"])
def test_system_builds_its_own_parts(knob):
    """The host model, stack, accelerator layer and invocation model are
    always the defaults; the system takes none of them."""
    with pytest.raises(TypeError, match=knob):
        MealibSystem(**{knob: None})


# -- argument checks come before any side effect ------------------------------

def _flipping_system():
    """A system whose every execute deposits latent flips first."""
    return MealibSystem(stack_bytes=64 << 20,
                        faults=FaultInjector(seed=5, latent_flip_rate=1e-4))


def _side_effects(system):
    runtime = system.runtime
    return (len(runtime.ledger), runtime.counters.executes,
            system.faults.stats.latent_flips_deposited,
            runtime._command_alloc.free_bytes)


@pytest.mark.parametrize("value,error", [
    (0, ValueError), (-1, ValueError), ("2", TypeError),
    (1.5, TypeError), (True, TypeError), (None, TypeError),
])
def test_bad_concurrency_rejected_before_any_side_effect(value, error):
    system = _flipping_system()
    plan, _, _ = make_axpy_plan(system)
    before = _side_effects(system)
    with pytest.raises(error, match="concurrency"):
        system.runtime.acc_execute(plan, concurrency=value)
    assert _side_effects(system) == before
    assert plan.executions == 0
    # the same plan then runs, and the snapshot does see an execute
    system.runtime.acc_execute(plan, concurrency=2)
    ledger_len, executes, deposited, _ = _side_effects(system)
    assert ledger_len > before[0] and executes == before[1] + 1
    assert deposited > before[2]


@pytest.mark.parametrize("value,error", [
    (0, ValueError), (-2, ValueError), (1.5, TypeError), (2.0, TypeError),
    (True, TypeError), (np.float64(2), TypeError), ("2", TypeError),
])
def test_bad_concurrency_rejected_by_config_unit(system, value, error):
    """A direct caller of the configuration unit gets the runtime's typed
    check: a fractional width would price a fraction of the contention,
    so it raises before the descriptor runs."""
    plan, x, y = make_axpy_plan(system)
    system.runtime._write_descriptor(plan)     # image + START, no execute
    before = y.copy()
    cu = system.config_unit
    with pytest.raises(error, match="concurrency"):
        cu.run_descriptor(plan.descriptor.base_pa, plan.descriptor.size,
                          concurrency=value)
    np.testing.assert_array_equal(y, before)
    cu.run_descriptor(plan.descriptor.base_pa, plan.descriptor.size,
                      concurrency=np.int64(2))
    np.testing.assert_array_equal(y, before + 2.0 * x)


@pytest.mark.parametrize("field,value,error", [
    ("in_size", 1.5, TypeError), ("in_size", float("nan"), TypeError),
    ("out_size", float("inf"), TypeError), ("out_size", True, TypeError),
    ("in_size", "8", TypeError), ("out_size", -1, MealibRuntimeError),
])
def test_bad_plan_sizes_rejected_before_any_side_effect(field, value,
                                                        error):
    system = _flipping_system()
    store = ParamStore()
    store.add("a.para", b"\x00" * AxpyParams.SIZE)
    before = _side_effects(system)
    sizes = {"in_size": 64, "out_size": 64, field: value}
    with pytest.raises(error, match=field):
        system.runtime.acc_plan("PASS { COMP AXPY a.para }", store,
                                **sizes)
    assert _side_effects(system) == before

"""In-datapath SECDED battery: property, differential and seeded e2e.

Three layers of evidence that the accelerators' direct-TSV reads are
really adjudicated:

* a *property* test pins :meth:`SecdedModel.classify` against a
  brute-force bit-counting oracle over hundreds of seeded codewords;
* a *differential* test proves the zero-fault ECC path is priced by
  exactly (and only) the explicitly-modelled ``stream_overhead`` — an
  idle injector adds nothing of its own on top of the device-side ECC
  attachment, functionally or in the model — against the golden
  baselines of ``tests/golden_baselines.json``;
* a *seeded end-to-end* test walks the full outcome chain on real
  buffers: planted single → corrected invisibly (``fault`` ledger
  charged), planted double → :class:`UncorrectableEccError` + retry
  recovery, planted triple → silent corruption observable in the
  functional result.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.accel import (AxpyParams, DotParams, FftParams, GemvParams,
                         ResmpParams, SpmvParams)
from repro.core import CATEGORIES, MealibSystem, ParamStore
from repro.eval.workloads import TABLE2
from repro.faults import (OUTCOME_CLEAN, OUTCOME_CORRECTED,
                          OUTCOME_DETECTED, OUTCOME_SILENT,
                          FaultInjector, SecdedModel, popcount)
from repro.faults.datapath import merge_ranges

GOLDEN_PATH = Path(__file__).parent.parent / "golden_baselines.json"

OPS = ("DOT", "AXPY", "GEMV", "SPMV", "FFT", "RESMP")
SCALES = (0.004, 0.016, 0.064)


def make_system(faults=None, **kwargs):
    return MealibSystem(stack_bytes=64 << 20, faults=faults, **kwargs)


# -- property: classify against a brute-force oracle --------------------------


def test_classify_matches_brute_force_over_random_codewords():
    rng = np.random.default_rng(1234)
    model = SecdedModel()
    trials = 0
    seen = set()
    while trials < 600:
        k = int(rng.integers(0, 9))             # 0..8 flipped cells
        mask = 0
        for bit in rng.choice(64, size=k, replace=False):
            mask |= 1 << int(bit)
        # brute-force adjudication: count the set bits one by one and
        # apply the SECDED truth table directly
        brute = sum((mask >> i) & 1 for i in range(64))
        if brute == 0:
            expected = OUTCOME_CLEAN
        elif brute == 1:
            expected = OUTCOME_CORRECTED
        elif brute == 2:
            expected = OUTCOME_DETECTED
        else:
            expected = OUTCOME_SILENT
        assert popcount(mask) == brute
        assert model.classify(popcount(mask)) == expected
        seen.add(expected)
        trials += 1
    assert trials >= 500
    assert seen == {OUTCOME_CLEAN, OUTCOME_CORRECTED, OUTCOME_DETECTED,
                    OUTCOME_SILENT}


def test_merge_ranges_coalesces_and_drops_empty():
    assert merge_ranges([]) == []
    assert merge_ranges([(0, 0), (8, 0)]) == []
    assert merge_ranges([(16, 8), (0, 8)]) == [(0, 8), (16, 8)]
    assert merge_ranges([(0, 8), (8, 8), (4, 8)]) == [(0, 16)]
    assert merge_ranges([(0, 32), (8, 8)]) == [(0, 32)]


# -- differential: zero faults + ECC == golden + stream_overhead only ---------


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _model_op(system, op, scale):
    params = TABLE2[op].params(scale)
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    store = ParamStore()
    store.add("w.para", params.pack())
    plan = system.runtime.acc_plan(
        f"PASS {{ COMP {op} w.para }}", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))
    return system.runtime.acc_execute(plan, functional=False)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("op", OPS)
def test_idle_injector_prices_exactly_the_ecc_attachment(golden, op,
                                                         scale):
    # a zero-rate injector with ECC enabled must cost *exactly* what a
    # bare system with the SECDED model attached to the device costs:
    # the injector, guard and scrubber machinery add nothing of their own
    injected = _model_op(make_system(FaultInjector(seed=0)), op, scale)
    attached = make_system()
    attached.device.ecc = SecdedModel()
    reference = _model_op(attached, op, scale)
    assert injected.time == reference.time
    assert injected.energy == reference.energy
    # and the delta to the unprotected golden entry is the explicitly
    # priced decode-pipeline overhead: never negative, never free
    recorded = golden["workloads"][f"{op}@{scale}"]
    assert injected.time >= recorded["time"]
    assert injected.energy > recorded["energy"]


@pytest.mark.parametrize("op", OPS)
def test_idle_injector_leaves_resilience_ledger_empty(op):
    system = make_system(FaultInjector(seed=0))
    _model_op(system, op, SCALES[0])
    for category in CATEGORIES:
        if category in ("host", "invocation", "accelerator"):
            continue
        total = system.ledger.total(category)
        assert total.time == 0.0 and total.energy == 0.0, (
            f"idle injector leaked into {category!r} on {op}")
    assert system.datapath.stats.guards == 0
    assert system.runtime.counters.scrub_passes == 0


# -- functional differential on real buffers ----------------------------------


def _build_functional(system, op):
    """Allocate real buffers and lower one functional instance of op.

    Returns ``(plan, output array)``.
    """
    store = ParamStore()
    if op == "AXPY":
        n = 2048
        xb, x = system.space.alloc_array((n,), np.float32)
        yb, y = system.space.alloc_array((n,), np.float32)
        x[:] = np.linspace(0, 1, n, dtype=np.float32)
        y[:] = 1.0
        params = AxpyParams(n=n, alpha=2.0, x_pa=xb.pa, y_pa=yb.pa)
        out = y
    elif op == "DOT":
        n = 2048
        xb, x = system.space.alloc_array((n,), np.float32)
        yb, y = system.space.alloc_array((n,), np.float32)
        ob, o = system.space.alloc_array((1,), np.float32)
        x[:] = np.linspace(0, 1, n, dtype=np.float32)
        y[:] = 2.0
        params = DotParams(n=n, x_pa=xb.pa, y_pa=yb.pa, out_pa=ob.pa)
        out = o
    elif op == "GEMV":
        m = n = 64
        ab, a = system.space.alloc_array((m, n), np.float32)
        xb, x = system.space.alloc_array((n,), np.float32)
        yb, y = system.space.alloc_array((m,), np.float32)
        a[:] = np.arange(m * n, dtype=np.float32).reshape(m, n) / (m * n)
        x[:] = 1.0
        y[:] = 0.5
        params = GemvParams(m=m, n=n, alpha=1.0, beta=1.0, a_pa=ab.pa,
                            x_pa=xb.pa, y_pa=yb.pa)
        out = y
    elif op == "SPMV":
        rows = 256
        nnz = rows * 3
        pb, indptr = system.space.alloc_array((rows + 1,), np.int64)
        ib, indices = system.space.alloc_array((nnz,), np.int64)
        db, data = system.space.alloc_array((nnz,), np.float32)
        xb, x = system.space.alloc_array((rows,), np.float32)
        yb, y = system.space.alloc_array((rows,), np.float32)
        indptr[:] = np.arange(rows + 1, dtype=np.int64) * 3
        indices[:] = np.arange(nnz, dtype=np.int64) % rows
        data[:] = 1.0
        x[:] = np.linspace(1, 2, rows, dtype=np.float32)
        y[:] = 0.0
        params = SpmvParams(rows=rows, cols=rows, nnz=nnz,
                            indptr_pa=pb.pa, indices_pa=ib.pa,
                            data_pa=db.pa, x_pa=xb.pa, y_pa=yb.pa,
                            locality_bytes=rows * 4)
        out = y
    elif op == "FFT":
        n, batch = 256, 4
        sb, src = system.space.alloc_array((batch, n), np.complex64)
        db, dst = system.space.alloc_array((batch, n), np.complex64)
        ramp = np.arange(batch * n, dtype=np.float32).reshape(batch, n)
        src[:] = (ramp + 1j * ramp[::-1]).astype(np.complex64) / n
        params = FftParams(n=n, batch=batch, src_pa=sb.pa, dst_pa=db.pa)
        out = dst
    elif op == "RESMP":
        blocks, n = 4, 128
        ib, series = system.space.alloc_array((blocks, n), np.complex64)
        stb, sites = system.space.alloc_array((blocks, n), np.float32)
        ob, o = system.space.alloc_array((blocks, n), np.complex64)
        kb, knots = system.space.alloc_array((n,), np.float32)
        knots[:] = np.arange(n, dtype=np.float32)
        series[:] = np.exp(
            1j * np.linspace(0, 4, blocks * n)).reshape(
                blocks, n).astype(np.complex64)
        sites[:] = np.linspace(0, n - 1.5, n, dtype=np.float32)
        params = ResmpParams(blocks=blocks, n_in=n, n_out=n, in_pa=ib.pa,
                             sites_pa=stb.pa, out_pa=ob.pa, knots_pa=kb.pa)
        out = o
    else:
        raise ValueError(op)
    store.add("w.para", params.pack())
    core = system.layer.accelerator(op)
    streams = core.streams(params)
    plan = system.runtime.acc_plan(
        f"PASS {{ COMP {op} w.para }}", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))
    return plan, out


@pytest.mark.parametrize("op", OPS)
def test_functional_results_bit_identical_under_idle_ecc(op):
    plain = make_system()
    plan_p, out_p = _build_functional(plain, op)
    plain.runtime.acc_execute(plan_p)

    guarded = make_system(FaultInjector(seed=0))
    plan_g, out_g = _build_functional(guarded, op)
    guarded.runtime.acc_execute(plan_g)

    assert out_p.tobytes() == out_g.tobytes(), (
        f"{op}: idle datapath ECC perturbed the functional result")


# -- seeded end-to-end: the full outcome chain --------------------------------


def _params_of(system, plan, params_type):
    """Recover the lowered COMP parameters from the descriptor image."""
    plans = system.config_unit.plans_from_image(plan.descriptor.data,
                                                plan.descriptor.base_pa)
    (comp,) = plans[0].comps
    assert isinstance(comp.params, params_type)
    return comp.params


def _expected_axpy(n):
    return (2.0 * np.linspace(0, 1, n, dtype=np.float32)
            + 1.0).astype(np.float32)


def test_planted_single_bit_flip_is_corrected():
    system = make_system(FaultInjector(seed=11))
    plan, out = _build_functional(system, "AXPY")
    params = _params_of(system, plan, AxpyParams)
    system.faults.plant_latent_flips(params.x_pa + 128, [5])
    system.runtime.acc_execute(plan)
    np.testing.assert_array_equal(out, _expected_axpy(out.size))
    assert system.runtime.counters.ecc_corrections == 1
    assert system.runtime.counters.retries == 0
    fault = system.ledger.total("fault")
    assert fault.time > 0 and fault.energy > 0
    labels = system.ledger.by_label("fault")
    assert "ecc-correction" in labels
    assert "ecc-stream" in labels
    assert system.faults.latent_word_count == 0     # drained by the read


def test_planted_double_bit_word_detected_and_retried():
    system = make_system(FaultInjector(seed=11))
    plan, out = _build_functional(system, "AXPY")
    params = _params_of(system, plan, AxpyParams)
    system.faults.plant_latent_flips(params.x_pa + 256, [3, 47])
    system.runtime.acc_execute(plan)
    # the demand-repair + retry chain recovered a correct result
    np.testing.assert_array_equal(out, _expected_axpy(out.size))
    assert system.faults.stats.words_uncorrectable == 1
    assert system.runtime.counters.retries == 1
    assert system.runtime.counters.fallbacks == 0
    assert "ecc-uncorrectable" in system.ledger.by_label("fault")
    assert system.ledger.total("retry").time > 0


def test_planted_triple_bit_word_corrupts_silently():
    system = make_system(FaultInjector(seed=11))
    plan, out = _build_functional(system, "AXPY")
    params = _params_of(system, plan, AxpyParams)
    system.faults.plant_latent_flips(params.x_pa + 512, [1, 22, 63])
    system.runtime.acc_execute(plan)
    expected = _expected_axpy(out.size)
    # SECDED cannot see a triple: the result is detectably wrong and
    # nothing raised, retried or fell back
    assert not np.array_equal(out, expected)
    assert system.faults.stats.words_silent == 1
    assert system.runtime.counters.retries == 0
    assert system.runtime.counters.fallbacks == 0
    # only the perturbed codeword's elements diverge
    wrong = np.flatnonzero(out != expected)
    assert 1 <= wrong.size <= 2


def test_ecc_disabled_makes_every_flip_silent():
    system = make_system(FaultInjector(seed=11, ecc_enabled=False))
    plan, out = _build_functional(system, "AXPY")
    params = _params_of(system, plan, AxpyParams)
    system.faults.plant_latent_flips(params.x_pa + 128, [5])
    system.runtime.acc_execute(plan)
    assert not np.array_equal(out, _expected_axpy(out.size))
    assert system.faults.stats.words_silent == 1
    assert system.runtime.counters.ecc_corrections == 0


def test_write_reencode_drops_latent_flips_without_cost():
    # FFT's dst is pure output: a double planted under it must be
    # re-encoded away on the write leg, never detected, never charged
    system = make_system(FaultInjector(seed=11))
    plan, _ = _build_functional(system, "FFT")
    params = _params_of(system, plan, FftParams)
    word = system.faults.plant_latent_flips(params.dst_pa + 64, [7, 9])
    system.runtime.acc_execute(plan)
    assert system.faults.latent_word_count == 0
    assert system.faults.stats.words_rewritten == 1
    assert system.faults.stats.words_uncorrectable == 0
    assert system.runtime.counters.retries == 0
    assert word not in dict(system.faults.all_latent_words())


def test_dot_result_write_drops_latent_flips():
    # DOT's result cell has no timed stream, but the execute overwrites
    # it: a double planted there is re-encoded away like any output
    system = make_system(FaultInjector(seed=11))
    plan, out = _build_functional(system, "DOT")
    params = _params_of(system, plan, DotParams)
    word = system.faults.plant_latent_flips(params.out_pa, [7, 9])
    system.runtime.acc_execute(plan)
    assert system.faults.latent_word_count == 0
    assert system.faults.stats.words_rewritten == 1
    assert system.faults.stats.words_uncorrectable == 0
    assert system.runtime.counters.retries == 0
    assert word not in dict(system.faults.all_latent_words())
    np.testing.assert_allclose(out[0], 2048.0, rtol=1e-5)

"""STAP application: compilation structure + baseline/MEALib agreement."""

import numpy as np
import pytest

from repro.accel import DotAccelerator
from repro.apps import (PAPER_PRESETS, PRESETS, run_stap_baseline,
                        run_stap_mealib, stap_inputs, stap_source)
from repro.compiler import translate
from repro.core import MealibSystem


@pytest.fixture(scope="module")
def small_runs():
    cfg = PRESETS["small"]
    system = MealibSystem()
    baseline = run_stap_baseline(cfg)
    mealib = run_stap_mealib(cfg, system=system)
    return cfg, baseline, mealib, system


def test_three_descriptors(small_runs):
    """The paper's compaction claim: STAP lowers to 3 descriptors."""
    _, _, mealib, _ = small_runs
    assert mealib.descriptors == 3


def test_library_call_count(small_runs):
    cfg, _, mealib, _ = small_runs
    assert mealib.library_calls == cfg.library_calls


def test_numerics_agree(small_runs):
    """Byte for byte: MEALib's passes (the looped CDOTC pass as one
    stacked matmul) store what the host library's per-call kernels
    store."""
    _, baseline, mealib, _ = small_runs
    for name in ("pulse_major", "doppler", "cov", "wts", "prods",
                 "det_out"):
        assert (baseline.buffers[name].tobytes()
                == mealib.buffers[name].tobytes()), name


@pytest.mark.parametrize("preset", ["small", "medium"])
def test_cdotc_pass_runs_as_one_lattice(monkeypatch, preset):
    """STAP's looped CDOTC pass (768 iterations at the small preset)
    runs as one lattice: no per-iteration DOT step is called."""
    lattices, steps = [], []
    real_lattice = DotAccelerator.run_lattice
    real_bind = DotAccelerator.bind

    def run_lattice(self, space, params, strides, count):
        took = real_lattice(self, space, params, strides, count)
        lattices.append((count, took))
        return took

    def bind(self, space, params, offsets):
        step = real_bind(self, space, params, offsets)

        def counted(i):
            steps.append(i)
            step(i)
        return counted
    monkeypatch.setattr(DotAccelerator, "run_lattice", run_lattice)
    monkeypatch.setattr(DotAccelerator, "bind", bind)
    cfg = PRESETS[preset]
    run_stap_mealib(cfg)
    assert lattices == [(cfg.dot_calls, True)]
    assert steps == []
    if preset == "small":
        assert cfg.dot_calls == 768


def test_corner_turn_is_real_transpose(small_runs):
    cfg, baseline, _, _ = small_runs
    cube = stap_inputs(cfg)["datacube"]
    ref = cube.reshape(cfg.n_pulse, cfg.n_cr).T.reshape(-1)
    np.testing.assert_allclose(baseline.buffers["pulse_major"], ref,
                               rtol=1e-5)


def test_doppler_is_fft_along_pulses(small_runs):
    cfg, baseline, _, _ = small_runs
    pm = baseline.buffers["pulse_major"].reshape(cfg.n_cr, cfg.n_pulse)
    ref = np.fft.fft(pm, axis=1).reshape(-1)
    np.testing.assert_allclose(baseline.buffers["doppler"], ref,
                               rtol=1e-2, atol=1e-2)


def test_mealib_wins_where_it_should(small_runs):
    """At functional (small) scale invocation overhead can dominate,
    but the breakdown must at least show accelerator work happening."""
    _, _, _, system = small_runs
    host, accel, invocation = system.breakdown()
    assert accel.time > 0
    assert invocation.time > 0
    assert host.time > 0


def test_ledger_names_all_stap_accelerators(small_runs):
    _, _, _, system = small_runs
    by_accel = system.ledger.by_label("accelerator")
    assert {"RESHP", "FFT", "DOT", "AXPY"} <= set(by_accel)


def test_presets_scale_monotonically():
    calls = [PRESETS[p].dot_calls for p in ("small", "medium", "large")]
    assert calls == sorted(calls)
    paper_calls = [PAPER_PRESETS[p].dot_calls
                   for p in ("small", "medium", "large")]
    assert paper_calls == sorted(paper_calls)


def test_paper_large_hits_16m_calls():
    assert PAPER_PRESETS["large"].dot_calls == 1 << 24


def test_source_parses_for_all_presets():
    for preset in PRESETS.values():
        translated = translate(stap_source(preset))
        assert translated.descriptor_count() == 3

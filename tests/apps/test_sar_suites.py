"""SAR application and Fig 1 suite proxies."""

import numpy as np
import pytest

from repro.apps import (BENCHMARKS, SarConfig, library_speedups,
                        run_sar_baseline, run_sar_mealib, suite_maxima)
from repro.apps.sar import sar_source
from repro.compiler import translate


class TestSar:
    def test_side_must_be_pow2(self):
        with pytest.raises(ValueError):
            SarConfig(side=100)

    def test_chains_to_one_descriptor(self):
        translated = translate(sar_source(SarConfig(side=64)))
        assert translated.descriptor_count() == 1

    def test_numerics_agree(self):
        """Byte for byte: the chained MEALib pass stores what the host
        library's per-call kernels store."""
        cfg = SarConfig(side=64)
        baseline = run_sar_baseline(cfg)
        mealib = run_sar_mealib(cfg)
        for name in ("interp", "image"):
            assert (baseline.buffers[name].tobytes()
                    == mealib.buffers[name].tobytes()), name

    def test_image_is_fft_of_interp(self):
        cfg = SarConfig(side=32)
        baseline = run_sar_baseline(cfg)
        interp = baseline.buffers["interp"].reshape(32, 32)
        ref = np.fft.fft(interp, axis=1).reshape(-1)
        np.testing.assert_allclose(baseline.buffers["image"], ref,
                                   rtol=1e-2, atol=1e-2)


class TestSuites:
    def test_all_suites_present(self):
        assert {b.suite for b in BENCHMARKS} == {"R", "PERFECT",
                                                 "PARSEC"}

    def test_library_always_wins(self):
        for row in library_speedups():
            assert row.speedup_multi >= 1.0
            assert row.speedup_single >= 1.0

    def test_multi_thread_at_least_single(self):
        for row in library_speedups():
            assert row.speedup_multi >= row.speedup_single - 1e-9

    def test_suite_maxima_in_paper_band(self):
        """Fig 1 callouts: R 27x, PERFECT 42x, PARSEC 24x."""
        maxima = suite_maxima()
        assert 20 < maxima["R"] < 35
        assert 30 < maxima["PERFECT"] < 55
        assert 15 < maxima["PARSEC"] < 35

"""Fault injector unit behaviour: determinism, ECC adjudication, hooks."""

import numpy as np
import pytest

from repro.faults import (FaultConfig, FaultInjector, SecdedModel,
                          UncorrectableEccError)
from repro.faults.ecc import (OUTCOME_CLEAN, OUTCOME_CORRECTED,
                              OUTCOME_DETECTED, OUTCOME_SILENT)


class TestSecdedModel:
    def test_adjudication(self):
        ecc = SecdedModel()
        assert ecc.classify(0) == OUTCOME_CLEAN
        assert ecc.classify(1) == OUTCOME_CORRECTED
        assert ecc.classify(2) == OUTCOME_DETECTED
        assert ecc.classify(3) == OUTCOME_SILENT
        assert ecc.classify(7) == OUTCOME_SILENT

    def test_correction_cost_scales(self):
        ecc = SecdedModel()
        one = ecc.correction_cost(1)
        ten = ecc.correction_cost(10)
        assert ten.time == pytest.approx(10 * one.time)
        assert ten.energy == pytest.approx(10 * one.energy)
        assert one.time > 0 and one.energy > 0

    def test_stream_overhead_zero_bytes(self):
        ecc = SecdedModel()
        assert ecc.stream_overhead(0).time == 0.0
        assert ecc.stream_overhead(4096).energy > 0


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(dram_bit_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(hang_rate=-0.1)

    @pytest.mark.parametrize("field,value,error", [
        ("seed", "a", TypeError),
        ("seed", 2.5, TypeError),
        ("seed", None, TypeError),
        ("seed", -1, ValueError),
        ("hang_rate", True, TypeError),
        ("hang_rate", "x", TypeError),
        ("latent_flip_rate", None, TypeError),
        ("dram_bit_error_rate", float("nan"), ValueError),
    ])
    def test_typed_errors_name_the_field(self, field, value, error):
        with pytest.raises(error, match=field):
            FaultConfig(**{field: value})

    def test_kw_construction(self):
        inj = FaultInjector(seed=7, hang_rate=0.5)
        assert inj.config.seed == 7
        assert inj.config.hang_rate == 0.5
        with pytest.raises(ValueError):
            FaultInjector(FaultConfig(), hang_rate=0.5)


class TestDramReadHook:
    def test_zero_rate_is_identity(self):
        inj = FaultInjector(seed=0)
        data = bytes(range(256))
        assert inj.dram_read(0x1000, data) is data
        assert inj.stats.injected_events == 0

    def test_single_bit_flips_are_corrected(self):
        # rate chosen so flips land but two-in-one-word is vanishingly rare
        inj = FaultInjector(seed=1, dram_bit_error_rate=1e-4)
        data = bytes(4096)
        corrected_before = inj.stats.words_corrected
        for _ in range(20):
            out = inj.dram_read(0, data)
            assert out == data            # ECC returned clean data
        assert inj.stats.words_corrected > corrected_before
        cost, n = inj.drain_correction_cost()
        assert n == inj.stats.words_corrected
        assert cost.time > 0
        # drained: second drain is empty
        assert inj.drain_correction_cost()[1] == 0

    def test_ecc_disabled_corrupts_silently(self):
        inj = FaultInjector(seed=2, dram_bit_error_rate=1e-3,
                            ecc_enabled=False)
        data = bytes(4096)
        saw_corruption = False
        for _ in range(10):
            if inj.dram_read(0, data) != data:
                saw_corruption = True
        assert saw_corruption
        assert inj.stats.words_silent > 0
        assert inj.stats.words_corrected == 0

    def test_double_bit_raises_uncorrectable(self):
        # brutal rate: almost every word has >= 2 flips somewhere
        inj = FaultInjector(seed=3, dram_bit_error_rate=0.05)
        with pytest.raises(UncorrectableEccError):
            for _ in range(50):
                inj.dram_read(0, bytes(512))

    @staticmethod
    def _read(inj, data):
        try:
            return inj.dram_read(0, data)
        except UncorrectableEccError as exc:
            return ("uncorrectable", exc.words)

    def test_determinism_across_instances(self):
        a = FaultInjector(seed=42, dram_bit_error_rate=1e-3)
        b = FaultInjector(seed=42, dram_bit_error_rate=1e-3)
        data = bytes(2048)
        outs_a = [self._read(a, data) for _ in range(10)]
        outs_b = [self._read(b, data) for _ in range(10)]
        assert outs_a == outs_b
        assert a.stats == b.stats

    def test_reset_restores_sequence(self):
        inj = FaultInjector(seed=5, dram_bit_error_rate=1e-3)
        data = bytes(2048)
        first = [self._read(inj, data) for _ in range(5)]
        inj.reset()
        again = [self._read(inj, data) for _ in range(5)]
        assert first == again


class TestCommandPathHooks:
    def test_descriptor_corruption_changes_one_word(self):
        inj = FaultInjector(seed=0, descriptor_corruption_rate=1.0)
        raw = bytes(range(64))
        out = inj.corrupt_descriptor(raw)
        assert out != raw
        assert len(out) == len(raw)
        diff_words = [i for i in range(len(raw) // 4)
                      if out[i * 4:i * 4 + 4] != raw[i * 4:i * 4 + 4]]
        assert len(diff_words) == 1
        assert inj.stats.descriptor_corruptions == 1

    def test_hang_and_tile_sampling(self):
        inj = FaultInjector(seed=0, hang_rate=1.0, tile_fail_rate=1.0)
        assert inj.sample_tile_failure() is not None
        assert inj.sample_hang()
        assert inj.stats.cu_hangs == 1
        assert inj.stats.tile_failures == 1
        quiet = FaultInjector(seed=0)
        assert quiet.sample_tile_failure() is None
        assert not quiet.sample_hang()

    def test_detection_rate_counts_silent(self):
        inj = FaultInjector(seed=0)
        inj.stats.words_corrected = 8
        inj.stats.words_silent = 2
        assert inj.stats.detection_rate == pytest.approx(0.8)
        inj.stats.clear()
        assert inj.stats.detection_rate == 1.0


def test_physmem_hook_is_wired():
    from repro.memmgmt.physmem import PhysicalMemory
    mem = PhysicalMemory(1 << 20)
    mem.add_region(0, 4096)
    mem.write(0, b"\xAA" * 64)
    calls = []

    def hook(addr, data):
        calls.append((addr, len(data)))
        return bytes(len(data))           # zero out everything

    mem.fault_hook = hook
    assert mem.read(0, 64) == bytes(64)
    assert calls == [(0, 64)]
    # views bypass the hook (direct datapath access)
    assert np.all(mem.view(0, 64) == 0xAA)

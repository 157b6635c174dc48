"""Integration tests for multi-unit memory devices."""

from dataclasses import replace

import pytest

from repro.memsys import (HMC_ENERGY, HMC_VAULT, DdrMemory, MemoryDevice,
                          StackedDram, haswell_memory, msas_memory)
from tests.memsys.helpers import run_trace
from tests.memsys.test_address import BAD_FIELD_VALUES


def seq_trace(n_bytes, burst, base=0, write=False):
    return [(base + i * burst, write) for i in range(n_bytes // burst)]


def test_stack_peak_bandwidth_class():
    assert 480e9 < StackedDram().peak_bandwidth < 560e9


def test_haswell_memory_is_25_6():
    assert haswell_memory().peak_bandwidth == pytest.approx(25.6e9)


def test_msas_memory_is_102_4():
    assert msas_memory().peak_bandwidth == pytest.approx(102.4e9)


def test_sequential_reads_near_peak_stack():
    dev = StackedDram()
    res = run_trace(dev, seq_trace(1 << 19, dev.request_bytes))
    assert res.bandwidth > 0.85 * dev.peak_bandwidth


def test_sequential_reads_near_peak_ddr():
    dev = haswell_memory()
    res = run_trace(dev, seq_trace(1 << 20, dev.request_bytes))
    assert res.bandwidth > 0.85 * dev.peak_bandwidth


def test_bytes_accounting():
    dev = StackedDram()
    trace = seq_trace(1 << 16, dev.request_bytes)
    res = run_trace(dev, trace)
    assert res.bytes_moved == len(trace) * dev.request_bytes


def test_energy_positive_and_has_static_component():
    dev = StackedDram()
    res = run_trace(dev, seq_trace(1 << 16, dev.request_bytes))
    assert res.energy > dev.static_power() * res.time


def test_empty_trace():
    dev = StackedDram()
    res = run_trace(dev, [])
    assert res.time == 0.0
    assert res.energy == 0.0
    assert res.bytes_moved == 0


def test_stack_beats_ddr_on_same_pattern():
    trace = seq_trace(1 << 19, 64)
    stack = run_trace(StackedDram(), [(a, w) for a, w in trace])
    ddr = run_trace(haswell_memory(), trace)
    assert stack.time < ddr.time


def test_random_pattern_slower_than_sequential():
    dev = StackedDram()
    seq = run_trace(dev, seq_trace(1 << 18, dev.request_bytes))
    step = 97 * 4096 + dev.request_bytes  # scattered, row-missing
    rand = run_trace(dev, [((i * step) % (1 << 30), False)
                           for i in range((1 << 18) // dev.request_bytes)])
    assert rand.bandwidth < seq.bandwidth
    assert rand.stats.row_hit_rate < seq.stats.row_hit_rate


def test_more_channels_more_bandwidth():
    t2 = run_trace(DdrMemory(channels=2), seq_trace(1 << 20, 64))
    t8 = run_trace(DdrMemory(channels=8), seq_trace(1 << 20, 64))
    assert t8.bandwidth > 2.5 * t2.bandwidth


def test_memresult_scaled_linearity():
    dev = StackedDram()
    res = run_trace(dev, seq_trace(1 << 16, dev.request_bytes))
    doubled = res.scaled(2.0)
    assert doubled.time == pytest.approx(2 * res.time)
    assert doubled.energy == pytest.approx(2 * res.energy)
    assert doubled.bytes_moved == 2 * res.bytes_moved
    assert doubled.bandwidth == pytest.approx(res.bandwidth)


@pytest.mark.parametrize("window, error", [
    (0, ValueError), (-1, ValueError), (2.5, TypeError), (8.0, TypeError),
    (True, TypeError), ("8", TypeError), (None, TypeError)])
def test_reorder_window_rejected_at_construction(window, error):
    with pytest.raises(error, match="reorder_window"):
        MemoryDevice(HMC_VAULT, HMC_ENERGY, units=4, interleave_bytes=256,
                     reorder_window=window)


@pytest.mark.parametrize("field", ["units", "interleave_bytes", "banks",
                                   "row_bytes"])
@pytest.mark.parametrize("value, error", BAD_FIELD_VALUES)
def test_mapping_fields_rejected_at_construction(field, value, error):
    """A bad address-mapping field raises an error naming it, whether
    the device takes it directly or through its timing."""
    kwargs = {"units": 4, "interleave_bytes": 256}
    with pytest.raises(error, match=field):
        if field in kwargs:
            MemoryDevice(HMC_VAULT, HMC_ENERGY, **{**kwargs, field: value})
        else:
            MemoryDevice(replace(HMC_VAULT, **{field: value}), HMC_ENERGY,
                         **kwargs)


def test_reorder_window_of_one_is_accepted():
    dev = MemoryDevice(HMC_VAULT, HMC_ENERGY, units=4, interleave_bytes=256,
                       reorder_window=1)
    res = run_trace(dev, seq_trace(1 << 12, dev.request_bytes))
    assert res.bytes_moved == 1 << 12


def test_stretch_for_tiles_prices_the_stretch_at_static_power():
    dev = StackedDram()
    res = run_trace(dev, seq_trace(1 << 16, dev.request_bytes))
    assert dev.stretch_for_tiles(res, dev.units) is res
    quarter = dev.stretch_for_tiles(res, dev.units // 4)
    assert quarter.time == res.time * 4
    assert quarter.energy == pytest.approx(
        res.energy + dev.static_power() * 3 * res.time)
    assert quarter.bytes_moved == res.bytes_moved

"""Unit tests for DRAM timing parameter sets."""

import dataclasses

import pytest

from repro.memsys.timing import DDR3_1600_CHANNEL, HMC_VAULT, DramTiming


def test_ddr3_peak_bandwidth_matches_part():
    # one DDR3-1600 channel is 12.8 GB/s
    assert DDR3_1600_CHANNEL.peak_bandwidth == pytest.approx(12.8e9)


def test_hmc_vault_aggregate_is_510_gbps_class():
    total = 16 * HMC_VAULT.peak_bandwidth
    assert 480e9 < total < 560e9


def test_t_burst_is_burst_bytes_over_rate():
    t = DDR3_1600_CHANNEL
    assert t.t_burst == pytest.approx(
        t.burst_bytes / (t.bytes_per_cycle * t.clock_hz))


def test_scaled_clock_keeps_latencies():
    t = HMC_VAULT.scaled_clock(2.5e9)
    assert t.clock_hz == 2.5e9
    assert t.t_rcd == HMC_VAULT.t_rcd
    assert t.peak_bandwidth > HMC_VAULT.peak_bandwidth


def test_with_row_bytes_only_changes_row():
    t = HMC_VAULT.with_row_bytes(4096)
    assert t.row_bytes == 4096
    assert t.clock_hz == HMC_VAULT.clock_hz
    assert t.banks == HMC_VAULT.banks


def test_t_ck_is_inverse_clock():
    assert HMC_VAULT.t_ck == pytest.approx(1.0 / HMC_VAULT.clock_hz)


def test_timing_is_frozen():
    with pytest.raises(Exception):
        DDR3_1600_CHANNEL.clock_hz = 1.0  # type: ignore[misc]


def test_column_rate_matches_burst_rate():
    # tCCD must not throttle the bus below its peak by more than ~25%
    for t in (DDR3_1600_CHANNEL, HMC_VAULT):
        assert t.t_ccd <= 1.25 * t.t_burst


@pytest.mark.parametrize("name",
                         ["t_rcd", "t_cas", "t_rp", "t_ras", "t_wr", "t_ccd"])
@pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
def test_rejects_negative_or_non_finite_delays(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(HMC_VAULT, **{name: value})


@pytest.mark.parametrize("name", ["clock_hz", "bytes_per_cycle",
                                  "burst_bytes", "row_bytes", "banks"])
@pytest.mark.parametrize("value", [0, -1])
def test_rejects_non_positive_sizes_and_clock(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(DDR3_1600_CHANNEL, **{name: value})


def test_rejects_non_finite_clock():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="clock_hz"):
            HMC_VAULT.scaled_clock(value)


def test_zero_delays_and_presets_construct():
    dataclasses.replace(HMC_VAULT, t_wr=0.0, t_ccd=0.0)
    for preset in (DDR3_1600_CHANNEL, HMC_VAULT):
        assert preset.scaled_clock(2 * preset.clock_hz).t_burst > 0
        assert preset.with_row_bytes(4096).row_bytes == 4096

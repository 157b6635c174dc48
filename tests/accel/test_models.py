"""Accelerator timing/energy models, params packing, layer assembly."""

import pytest

from repro.accel import (ACCELERATOR_TYPES, AcceleratorLayer,
                         AxpyAccelerator, AxpyParams, DotParams,
                         FftAccelerator, FftParams, GemvParams,
                         LAYER_AREA_BUDGET_MM2, MeshNoc, ReshpParams,
                         ResmpParams, SpmvAccelerator, SpmvParams)
from repro.memsys import StackedDram, haswell_memory

DEVICE = StackedDram()


def sample_params(name):
    return {
        "AXPY": AxpyParams(n=1 << 20, alpha=2.0, x_pa=0, y_pa=1 << 23),
        "DOT": DotParams(n=1 << 20, x_pa=0, y_pa=1 << 23, out_pa=1 << 24),
        "GEMV": GemvParams(m=2048, n=2048, alpha=1.0, beta=0.0, a_pa=0,
                           x_pa=1 << 24, y_pa=(1 << 24) + 8192),
        "SPMV": SpmvParams(rows=1 << 16, cols=1 << 16, nnz=15 << 16,
                           indptr_pa=0, indices_pa=1 << 20,
                           data_pa=1 << 23, x_pa=1 << 24, y_pa=1 << 25),
        "RESMP": ResmpParams(blocks=128, n_in=1024, n_out=1024, in_pa=0,
                             sites_pa=1 << 21, out_pa=1 << 22,
                             knots_pa=1 << 23),
        "FFT": FftParams(n=2048, batch=256, src_pa=0, dst_pa=1 << 23),
        "RESHP": ReshpParams(rows=4096, cols=4096, elem_bytes=4, src_pa=0,
                             dst_pa=1 << 26),
    }[name]


@pytest.mark.parametrize("accel_type", ACCELERATOR_TYPES)
def test_params_pack_roundtrip(accel_type):
    core = accel_type()
    params = sample_params(core.name)
    packed = params.pack()
    assert isinstance(packed, bytes)
    assert core.params_type.unpack(packed) == params


@pytest.mark.parametrize("accel_type", ACCELERATOR_TYPES)
def test_model_produces_sane_results(accel_type):
    core = accel_type()
    params = sample_params(core.name)
    execution = core.model(DEVICE, params)
    assert execution.result.time > 0
    assert execution.result.energy > 0
    assert 1.0 < execution.result.power < 60.0


@pytest.mark.parametrize("accel_type", ACCELERATOR_TYPES)
def test_streams_cover_profile_bytes(accel_type):
    """The access streams and the profile must agree on payload within
    2x (streams may add metadata like CSR row pointers)."""
    core = accel_type()
    params = sample_params(core.name)
    prof = core.profile(params)
    stream_bytes = sum(s.total_bytes for s in core.streams(params))
    assert 0.5 * prof.bytes_total <= stream_bytes <= 2.0 * prof.bytes_total


def test_higher_bandwidth_is_faster():
    core = AxpyAccelerator()
    params = sample_params("AXPY")
    slow = core.model(haswell_memory(), params).result.time
    fast = core.model(DEVICE, params).result.time
    assert fast < slow


def test_frequency_scaling_when_compute_bound():
    params = FftParams(n=1024, batch=64, src_pa=0, dst_pa=1 << 22)
    slow = FftAccelerator(tiles=1, freq_hz=0.4e9)
    fast = FftAccelerator(tiles=1, freq_hz=2.0e9)
    t_slow = slow.model(DEVICE, params)
    t_fast = fast.model(DEVICE, params)
    assert t_fast.result.time < t_slow.result.time


def test_more_tiles_more_compute():
    core1 = FftAccelerator(tiles=2)
    core16 = FftAccelerator(tiles=16)
    assert core16.compute_rate() == pytest.approx(8 * core1.compute_rate())


def test_invalid_construction():
    with pytest.raises(ValueError):
        AxpyAccelerator(tiles=0)
    with pytest.raises(ValueError):
        AxpyAccelerator(freq_hz=0)
    with pytest.raises(ValueError):
        FftAccelerator(block_elems=0)


class TestLayer:
    def test_all_accelerators_deployed(self):
        layer = AcceleratorLayer()
        assert layer.names == sorted(
            ["AXPY", "DOT", "GEMV", "SPMV", "RESMP", "FFT", "RESHP"])

    def test_area_within_budget(self):
        """Table 5: all components fit the 68 mm^2 HMC logic die."""
        layer = AcceleratorLayer()
        assert layer.layer_area_mm2() < LAYER_AREA_BUDGET_MM2
        assert layer.layer_area_mm2() > 0.5 * LAYER_AREA_BUDGET_MM2

    def test_lookup_by_opcode(self):
        layer = AcceleratorLayer()
        assert layer.by_opcode(1).name == "AXPY"
        assert layer.by_opcode(6).name == "FFT"
        with pytest.raises(KeyError):
            layer.by_opcode(99)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            AcceleratorLayer().accelerator("GEMM")

    def test_opcodes_unique(self):
        opcodes = [t.opcode for t in ACCELERATOR_TYPES]
        assert len(set(opcodes)) == len(opcodes)

    def test_fft_and_spmv_are_largest(self):
        """Table 5's area ordering: FFT and SPMV dominate."""
        layer = AcceleratorLayer()
        areas = {name: layer.accelerator(name).area_mm2()
                 for name in layer.names if name != "RESHP"}
        ranked = sorted(areas, key=areas.get, reverse=True)
        assert set(ranked[:2]) == {"FFT", "SPMV"}


class TestNoc:
    def test_hops_xy(self):
        noc = MeshNoc()
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 15) == 6    # corner to corner in 4x4

    def test_transfer_time_zero_for_same_tile(self):
        assert MeshNoc().transfer_time(4096, 5, 5) == 0.0

    def test_transfer_scales_with_bytes(self):
        noc = MeshNoc()
        assert noc.transfer_time(1 << 20, 0, 15) > noc.transfer_time(
            1 << 10, 0, 15)

    def test_energy_scales_with_hops(self):
        noc = MeshNoc()
        assert noc.transfer_energy(1024, 0, 15) > noc.transfer_energy(
            1024, 0, 1)

    def test_bad_tile(self):
        with pytest.raises(ValueError):
            MeshNoc().hops(0, 16)

    def test_mean_hops_reasonable(self):
        assert 2.0 < MeshNoc().mean_hops() < 3.0

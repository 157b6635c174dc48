"""Tests for stream specs, window sampling, and extrapolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import (StackedDram, StreamSpec, haswell_memory, seq_read,
                          seq_write, simulate_streams)
from tests.memsys.helpers import emit_stream_window, merge_streams


def test_seq_stream_addresses():
    s = seq_read(1000, 64, elem_bytes=4)
    assert s.n_elems == 16
    assert s.element_addr(0) == 1000
    assert s.element_addr(3) == 1012


def test_strided_stream_addresses():
    s = StreamSpec(base=0, n_elems=4, elem_bytes=4, kind="strided",
                   stride=4096)
    assert [s.element_addr(i) for i in range(4)] == [0, 4096, 8192, 12288]


def test_blocked_stream_addresses():
    s = StreamSpec(base=0, n_elems=8, elem_bytes=4, kind="blocked",
                   block_elems=4, block_stride=1024)
    assert s.element_addr(3) == 12
    assert s.element_addr(4) == 1024
    assert s.element_addr(7) == 1036


def test_gather_stays_in_region():
    s = StreamSpec(base=512, n_elems=1000, elem_bytes=4, kind="gather",
                   region_bytes=4096)
    for i in range(1000):
        addr = s.element_addr(i)
        assert 512 <= addr < 512 + 4096


def test_gather_is_deterministic():
    s = StreamSpec(base=0, n_elems=10, elem_bytes=4, kind="gather",
                   region_bytes=1 << 20)
    assert [s.element_addr(i) for i in range(10)] == [
        s.element_addr(i) for i in range(10)]


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        StreamSpec(base=0, n_elems=1, elem_bytes=4, kind="nope")
    with pytest.raises(ValueError):
        StreamSpec(base=0, n_elems=1, elem_bytes=4, kind="gather")
    with pytest.raises(ValueError):
        StreamSpec(base=0, n_elems=1, elem_bytes=4, kind="blocked")
    with pytest.raises(ValueError):
        StreamSpec(base=0, n_elems=1, elem_bytes=0)
    with pytest.raises(ValueError):
        StreamSpec(base=0, n_elems=-1, elem_bytes=4)


#: Values of a count field that are not integers, and the type error
#: each must raise.
NOT_COUNTS = [True, False, np.bool_(True), 2.5, 8.0, "4", None]


@pytest.mark.parametrize("value", NOT_COUNTS)
@pytest.mark.parametrize("field", ["n_elems", "elem_bytes"])
def test_stream_count_fields_reject_non_integers(field, value):
    kwargs = {"base": 0, "n_elems": 16, "elem_bytes": 4, field: value}
    with pytest.raises(TypeError, match=field):
        StreamSpec(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("n_elems", -1), ("n_elems", -5), ("elem_bytes", 0),
    ("elem_bytes", -4)])
def test_stream_count_fields_reject_small_values(field, value):
    kwargs = {"base": 0, "n_elems": 16, "elem_bytes": 4, field: value}
    with pytest.raises(ValueError, match=field):
        StreamSpec(**kwargs)


#: A valid stream of the kind that reads each integer field.
FIELD_STREAMS = {
    "base": {"kind": "seq"},
    "stride": {"kind": "strided", "stride": 64},
    "region_bytes": {"kind": "gather", "region_bytes": 4096},
    "block_elems": {"kind": "blocked", "block_elems": 8,
                    "block_stride": 256},
    "block_stride": {"kind": "blocked", "block_elems": 8,
                     "block_stride": 256},
}


@pytest.mark.parametrize("value", NOT_COUNTS)
@pytest.mark.parametrize("field", sorted(FIELD_STREAMS))
def test_stream_int_fields_reject_non_integers(field, value):
    kwargs = {"base": 0, "n_elems": 16, "elem_bytes": 4,
              **FIELD_STREAMS[field], field: value}
    with pytest.raises(TypeError, match=field):
        StreamSpec(**kwargs)


@pytest.mark.parametrize("value", [1, 0, "no", None, 1.0])
def test_is_write_must_be_a_bool(value):
    with pytest.raises(TypeError, match="is_write"):
        StreamSpec(base=0, n_elems=16, elem_bytes=4, is_write=value)


@pytest.mark.parametrize("value", NOT_COUNTS)
def test_window_elems_rejects_non_integers(value):
    with pytest.raises(TypeError, match="window_elems"):
        simulate_streams(StackedDram(), [seq_read(0, 1 << 20)],
                         window_elems=value)


@pytest.mark.parametrize("value", [0, -5, np.int64(0)])
def test_window_elems_rejects_values_below_one(value):
    with pytest.raises(ValueError, match="window_elems"):
        simulate_streams(StackedDram(), [seq_read(0, 1 << 20)],
                         window_elems=value)


def test_numpy_integer_counts_are_accepted():
    dev = StackedDram()
    plain = simulate_streams(dev, [StreamSpec(base=0, n_elems=4096,
                                              elem_bytes=4)],
                             window_elems=1024)
    numpy = simulate_streams(dev, [StreamSpec(base=np.int64(0),
                                              n_elems=np.int64(4096),
                                              elem_bytes=np.int32(4),
                                              is_write=np.bool_(False))],
                             window_elems=np.int64(1024))
    assert numpy == plain


def test_coalescing_dense_scan():
    s = seq_read(0, 1024, elem_bytes=4)       # 256 elements
    reqs = emit_stream_window(s, 256, burst_bytes=64)
    assert len(reqs) == 16                    # 1024 B / 64 B bursts


def test_no_coalescing_wide_stride():
    s = StreamSpec(base=0, n_elems=64, elem_bytes=4, kind="strided",
                   stride=4096)
    reqs = emit_stream_window(s, 64, burst_bytes=64)
    assert len(reqs) == 64


def test_merge_preserves_all_requests():
    a = seq_read(0, 4096)
    b = seq_write(1 << 20, 4096)
    merged = merge_streams([a, b], [a.n_elems, b.n_elems], 64)
    assert len(merged) == 64 + 64
    assert sum(1 for _, w in merged if w) == 64


def test_merge_interleaves_proportionally():
    a = seq_read(0, 8192)                      # twice the elements of b
    b = seq_write(1 << 20, 4096)
    merged = merge_streams([a, b], [a.n_elems, b.n_elems], 64)
    # first half of merged trace must contain requests from both streams
    first_half = merged[: len(merged) // 2]
    assert any(w for _, w in first_half)
    assert any(not w for _, w in first_half)


def test_simulate_empty():
    res = simulate_streams(StackedDram(), [])
    assert res.time == 0.0


def test_simulate_skips_zero_length_streams():
    res = simulate_streams(
        StackedDram(),
        [StreamSpec(base=0, n_elems=0, elem_bytes=4), seq_read(0, 4096)])
    assert res.bytes_moved > 0


def test_extrapolation_linearity():
    """The headline validation: a sampled window extrapolated 4x must agree
    with simulating 4x more elements directly (within a few percent)."""
    dev = haswell_memory()
    small = simulate_streams(dev, [seq_read(0, 1 << 22)],
                             window_elems=1 << 14)
    big = simulate_streams(dev, [seq_read(0, 1 << 22)],
                           window_elems=1 << 16)
    assert small.time == pytest.approx(big.time, rel=0.05)
    assert small.energy == pytest.approx(big.energy, rel=0.05)


def test_full_trace_when_window_larger_than_stream():
    dev = StackedDram()
    res = simulate_streams(dev, [seq_read(0, 4096)], window_elems=1 << 20)
    assert res.bytes_moved == 4096


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 16))
def test_total_bytes_property(n_bytes):
    s = seq_read(0, n_bytes & ~3 or 4)
    assert s.total_bytes == s.n_elems * s.elem_bytes


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=64, max_value=1 << 14))
def test_simulated_time_monotone_in_bytes(n_bytes):
    dev = haswell_memory()
    r1 = simulate_streams(dev, [seq_read(0, n_bytes)])
    r2 = simulate_streams(dev, [seq_read(0, 4 * n_bytes)])
    assert r2.time >= r1.time

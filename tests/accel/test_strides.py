"""Mixed-radix stride tables, their offset columns and parameter
shifting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import AxpyParams, DotAccelerator, DotParams
from repro.accel.base import (StrideTable, linear_strides, offset_columns,
                              pack_strides, unpack_strides)
from repro.core import DescriptorError
from repro.core.config_unit import CompInstance, _checked_plan
from tests.accel.helpers import offsets, shift_params


def test_linear_table():
    table = linear_strides(AxpyParams, {"x_pa": 64})
    assert table.trips == (0,)
    assert table.deltas["x_pa"] == (64,)
    assert table.deltas["y_pa"] == (0,)
    assert offsets(table, 5) == {"x_pa": 320, "y_pa": 0}


def test_linear_rejects_unknown_field():
    with pytest.raises(ValueError):
        linear_strides(AxpyParams, {"z_pa": 64})


def test_table_arity_checked():
    with pytest.raises(ValueError):
        StrideTable(trips=(2, 3), deltas={"x_pa": (1,)})


def test_mixed_radix_offsets():
    # trips (2, 3): iteration order (0,0)(0,1)(0,2)(1,0)...
    table = StrideTable(trips=(2, 3),
                        deltas={"x_pa": (100, 10), "y_pa": (0, 1)})
    assert table.total == 6
    assert offsets(table, 0) == {"x_pa": 0, "y_pa": 0}
    assert offsets(table, 2) == {"x_pa": 20, "y_pa": 2}
    assert offsets(table, 3) == {"x_pa": 100, "y_pa": 0}
    assert offsets(table, 5) == {"x_pa": 120, "y_pa": 2}


def test_pack_unpack_roundtrip():
    table = StrideTable(
        trips=(4, 8),
        deltas={"x_pa": (512, 8), "y_pa": (0, 16), "out_pa": (8, 1)})
    blob = pack_strides(DotParams, table)
    back = unpack_strides(DotParams, blob)
    assert back.trips == (4, 8)
    assert back.deltas["x_pa"] == (512, 8)
    assert back.deltas["out_pa"] == (8, 1)


def test_pack_accepts_mapping():
    blob = pack_strides(AxpyParams, {"y_pa": 32})
    back = unpack_strides(AxpyParams, blob)
    assert back.deltas["y_pa"] == (32,)


def test_shift_params():
    base = AxpyParams(n=16, alpha=1.0, x_pa=1000, y_pa=2000)
    shifted = shift_params(base, {"x_pa": 64, "y_pa": 128}, 3)
    assert shifted.x_pa == 1000 + 192
    assert shifted.y_pa == 2000 + 384
    assert shifted.n == 16
    assert shift_params(base, {"x_pa": 64}, 0) is base
    assert shift_params(base, None, 7) is base


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=35))
def test_offsets_match_nested_loops(t0, t1, i):
    """Mixed-radix offsets must equal what the source loop nest does."""
    table = StrideTable(trips=(t0, t1),
                        deltas={"x_pa": (17, 3), "y_pa": (5, 0)})
    if i >= t0 * t1:
        i = i % (t0 * t1)
    outer, inner = divmod(i, t1)
    expected_x = 17 * outer + 3 * inner
    expected_y = 5 * outer
    assert offsets(table, i) == {"x_pa": expected_x, "y_pa": expected_y}


# -- offset columns ----------------------------------------------------------

def assert_columns_match(table, iterations):
    """``offset_columns`` equals the per-iteration reference at every
    iteration; a field left out is one whose offset is always 0."""
    columns = offset_columns(table, iterations)
    assert set(columns) <= {f for f, d in table.deltas.items() if any(d)}
    for field in table.deltas:
        expected = [offsets(table, i)[field] for i in iterations]
        assert columns.get(field, [0] * len(iterations)) == expected
        assert all(type(v) is int for v in columns.get(field, []))


def random_table(rng, levels):
    if levels == 1 and rng.random() < 0.5:
        trips = (0,)                     # linear: the LOOP count rules
    else:
        trips = tuple(rng.randint(1, 5) for _ in range(levels))
    magnitudes = (0, 0, 4, 8, 64, 1 << 20, (1 << 62) - 3, 1 << 62)
    deltas = {f: tuple(rng.choice(magnitudes) * rng.choice((1, -1))
                       for _ in range(levels))
              for f in ("x_pa", "y_pa", "out_pa")}
    return StrideTable(trips=trips, deltas=deltas)


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_offset_columns_match_reference(levels):
    """Seeded random tables, with loop counts below, equal to and above
    the table total (wrapping), and windows that start mid-loop."""
    rng = random.Random(1000 + levels)
    for _ in range(60):
        table = random_table(rng, levels)
        total = table.total or rng.randint(1, 40)
        for count in (max(total - 1, 0), total, total + rng.randint(1, 9),
                      3 * total + 1):
            assert_columns_match(table, range(count))
            lo = rng.randint(0, count)
            assert_columns_match(table, range(lo, count))


def test_offset_columns_none_and_still_fields():
    assert offset_columns(None, range(10)) == {}
    table = StrideTable(trips=(2, 3), deltas={"x_pa": (0, 0),
                                              "y_pa": (0, 8)})
    assert offset_columns(table, range(6)) == {"y_pa": [0, 8, 16] * 2}
    linear = linear_strides(AxpyParams, {"x_pa": 64})
    assert offset_columns(linear, range(4)) == {"x_pa": [0, 64, 128, 192]}
    assert offset_columns(linear, range(0)) == {"x_pa": []}


@pytest.mark.parametrize("table", [
    StrideTable(trips=(0,), deltas={"x_pa": (1 << 62,)}),
    StrideTable(trips=(3, 3), deltas={"x_pa": (1 << 62, 1 << 62)}),
    StrideTable(trips=(2, 2, 2), deltas={"x_pa": (-(1 << 62), 1 << 62,
                                                  -(1 << 62))}),
])
def test_offset_columns_do_not_wrap_at_int64(table):
    """Offsets past ``2**63`` stay exact integers (int64 would wrap)."""
    columns = offset_columns(table, range(9))
    assert max(abs(v) for v in columns["x_pa"]) >= 1 << 63
    assert_columns_match(table, range(9))


def one_level_dot(trip, delta):
    """A DOT of 16 floats whose operands advance ``delta`` bytes per
    iteration under a one-level table of trip ``trip``."""
    params = DotParams(n=16, x_pa=0x10000, y_pa=0x20000, out_pa=0x30000)
    table = StrideTable(trips=(trip,), deltas={
        "x_pa": (delta,), "y_pa": (delta,), "out_pa": (4,)})
    return CompInstance(core=DotAccelerator(), params=params,
                        strides=table)


@pytest.mark.parametrize("trip", [0, 1, 2])
def test_operand_spans_widen_one_level_table_over_count(trip):
    """A one-level table is linear over the LOOP count whatever its
    trip, as ``offset_columns`` runs it: 8 iterations of 64-byte
    windows 64 bytes apart read 512 bytes of each operand, the eight
    result cells 4 bytes apart are written, and the decoded plan's
    ``reads``/``writes`` (what the datapath ECC adjudicates) cover
    them all."""
    comp = one_level_dot(trip, 64)
    columns = offset_columns(comp.strides, range(8))
    assert columns["x_pa"] == [64 * i for i in range(8)]
    reads, writes = comp.core.operand_spans(comp.params, 8, comp.strides)
    assert reads == [(0x10000, 512), (0x20000, 512)]
    assert writes == [(0x30000, 32)]
    plan = _checked_plan((comp,), 8)
    assert plan.reads == ((0x10000, 512), (0x20000, 512))
    assert plan.writes == ((0x30000, 32),)


def test_checked_plan_rejects_linear_reach_past_addr_limit():
    """A one-level loop whose linear reach leaves the physical address
    range is a malformed descriptor, whatever its table's trip."""
    comp = one_level_dot(1, 1 << 60)
    assert _checked_plan((comp,), 8).count == 8     # 7 * 2**60 fits
    with pytest.raises(DescriptorError, match="physical address range"):
        _checked_plan((comp,), 16)

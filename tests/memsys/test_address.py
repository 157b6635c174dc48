"""Unit and property tests for the address mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.address import AddressMapping, _fold, _xor_fold

MAPPING = AddressMapping(interleave_bytes=256, units=16, banks=8,
                         row_bytes=2048)


def test_rejects_non_pow2():
    with pytest.raises(ValueError):
        AddressMapping(interleave_bytes=100, units=16, banks=8,
                       row_bytes=2048)
    with pytest.raises(ValueError):
        AddressMapping(interleave_bytes=256, units=3, banks=8,
                       row_bytes=2048)


FIELDS = {"interleave_bytes": 256, "units": 16, "banks": 8,
          "row_bytes": 2048}

#: Bad values of a mapping field and the error each must raise.
BAD_FIELD_VALUES = [(True, TypeError), (2.5, TypeError), (8.0, TypeError),
                    ("4", TypeError), (None, TypeError), (0, ValueError),
                    (-4, ValueError), (3, ValueError)]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("value, error", BAD_FIELD_VALUES)
def test_rejects_bad_field(field, value, error):
    with pytest.raises(error, match=field):
        AddressMapping(**{**FIELDS, field: value})


def test_rejects_rows_smaller_than_the_interleave():
    with pytest.raises(ValueError, match="row_bytes"):
        AddressMapping(interleave_bytes=256, units=16, banks=8,
                       row_bytes=128)
    assert AddressMapping(interleave_bytes=256, units=16, banks=8,
                          row_bytes=256).cols_per_row == 1


def test_rejects_negative_address():
    with pytest.raises(ValueError):
        MAPPING.decompose(-1)


def test_fields_in_range():
    for addr in (0, 255, 256, 65536, 1 << 30, (1 << 30) + 12345):
        unit, bank, row, col = MAPPING.decompose(addr)
        assert 0 <= unit < 16
        assert 0 <= bank < 8
        assert 0 <= col < MAPPING.cols_per_row
        assert row >= 0


def test_same_interleave_block_same_location():
    u1 = MAPPING.decompose(0)
    u2 = MAPPING.decompose(255)
    assert u1 == u2


def test_unit_of_matches_decompose():
    for addr in (0, 300, 5000, 1 << 26, 123456789):
        assert MAPPING.unit_of(addr) == MAPPING.decompose(addr)[0]


def test_units_of_matches_unit_of():
    rng = np.random.default_rng(11)
    top = np.iinfo(np.int64).max
    for mapping in (MAPPING,
                    AddressMapping(interleave_bytes=64, units=4, banks=8,
                                   row_bytes=2048),
                    AddressMapping(interleave_bytes=256, units=1, banks=8,
                                   row_bytes=2048)):
        # random addresses over the whole int64 range (high bits set)
        # plus the edges
        addrs = np.concatenate([
            rng.integers(0, top, 2000, dtype=np.int64, endpoint=True),
            rng.integers(0, 1 << 34, 500, dtype=np.int64),
            np.array([0, 1, 255, 256, top], dtype=np.int64)])
        units = mapping.units_of(addrs)
        assert units.dtype == np.int64
        assert units.tolist() == [mapping.unit_of(a)
                                  for a in addrs.tolist()]


def test_sequential_blocks_rotate_units():
    units = [MAPPING.decompose(i * 256)[0] for i in range(16)]
    assert sorted(units) == list(range(16))


def test_pow2_stride_does_not_alias_one_unit():
    # 16 KiB stride (a 4096-float matrix row) must still spread over units
    units = {MAPPING.decompose(i * 16384)[0] for i in range(64)}
    assert len(units) >= 8


def test_pow2_stride_does_not_alias_one_bank():
    locs = {MAPPING.decompose(i * (1 << 20))[:2] for i in range(64)}
    banks = {b for (_, b) in locs}
    assert len(banks) >= 4


def test_fold_is_within_modulus():
    for x in (0, 1, 255, 12345, 1 << 40):
        assert 0 <= _fold(x, 16) < 16
        assert 0 <= _fold(x, 8) < 8


def test_fold_modulus_one_is_zero():
    assert _fold(12345, 1) == 0


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=(1 << 34) - 1))
def test_mapping_is_injective_per_block(addr):
    """Two addresses in different interleave blocks of the same unit must
    never decompose to the same (bank, row, col)."""
    unit, bank, row, col = MAPPING.decompose(addr)
    # reconstruct the per-unit block index from (bank^fold, row, col)
    raw_bank = bank ^ _fold(row, MAPPING.banks)
    block = (row * MAPPING.banks + raw_bank) * MAPPING.cols_per_row + col
    base_block = block * MAPPING.units
    # one of the 16 unit positions must reproduce the original address block
    blocks = [base_block + u for u in range(MAPPING.units)]
    assert addr // MAPPING.interleave_bytes in blocks


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=1 << 30))
def test_decompose_deterministic(addr):
    assert MAPPING.decompose(addr) == MAPPING.decompose(addr)


@pytest.mark.parametrize("modulus", [1, 2, 4, 8, 16, 256])
def test_fold_array_matches_scalar_fold(modulus):
    """The log-depth array fold equals the scalar chunk loop, in int64
    up to 2**63 - 1 and in int32 up to 2**31 - 1, for every width that
    covers the values."""
    bits = modulus.bit_length() - 1
    near_top = [(1 << 62) + d for d in (-1, 0, 1, 12345)] + [
        (1 << 63) - 1, (1 << 62) - (1 << 40)]
    arrays = [np.array(near_top, dtype=np.int64),
              np.zeros(7, dtype=np.int64),
              np.empty(0, dtype=np.int64),
              np.arange(0, 5000, 7, dtype=np.int64),
              np.array([0, 1, 12345, (1 << 31) - 1], dtype=np.int32)]
    for x in arrays:
        top = int(x.max(initial=0)).bit_length()
        for width in {top, top + 1, 8 * x.itemsize - 1}:
            got = _xor_fold(x, bits, width)
            assert got.dtype == x.dtype
            assert got.tolist() == [_fold(v, modulus) for v in x.tolist()]


# -- batch decompose across geometries -----------------------------------------

#: Addresses on both sides of 2**31 (the batch path narrows to int32
#: below it) and up to 2**62, deep in the int64 range.
EDGE_ADDRS = [0, (1 << 31) - 1, 1 << 31, 1 << 40, 1 << 62]


def battery_addrs(rng):
    """Address arrays the batch paths must decompose exactly: below
    2**31 only, over the whole non-negative int64 range, the edges up
    to exactly 2**31 and up to 2**62, and empty."""
    small = rng.integers(0, 1 << 31, 300, dtype=np.int64)
    wide = rng.integers(0, 1 << 63, 200, dtype=np.int64, endpoint=False)
    return [np.concatenate([small, [0, (1 << 31) - 1]]).astype(np.int64),
            np.concatenate([small[:100], wide,
                            EDGE_ADDRS]).astype(np.int64),
            np.array(EDGE_ADDRS[:3], dtype=np.int64),
            np.array(EDGE_ADDRS, dtype=np.int64),
            np.empty(0, dtype=np.int64)]


@pytest.mark.parametrize("units", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("banks", [1, 2, 4, 8, 16])
def test_decompose_batch_matches_scalar_across_geometries(units, banks):
    """Every element of ``decompose_batch`` and ``units_of`` equals the
    scalar ``decompose`` and ``unit_of``, for 1-32 units, 1-16 banks
    and one or more interleave blocks per row."""
    rng = np.random.default_rng(units * 100 + banks)
    for interleave, cols in ((32, 1), (64, 4), (256, 8), (256, 1)):
        mapping = AddressMapping(interleave_bytes=interleave, units=units,
                                 banks=banks, row_bytes=interleave * cols)
        for addrs in battery_addrs(rng):
            got = mapping.decompose_batch(addrs)
            assert all(g.size == addrs.size for g in got)
            assert all(np.issubdtype(g.dtype, np.integer) for g in got)
            values = addrs.tolist()
            assert list(zip(*(g.tolist() for g in got))) == [
                mapping.decompose(a) for a in values]
            assert mapping.units_of(addrs).tolist() == [
                mapping.unit_of(a) for a in values]

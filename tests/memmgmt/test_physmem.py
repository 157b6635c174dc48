"""Tests for the sparse simulated physical memory."""

import numpy as np
import pytest

from repro.memmgmt import PhysicalMemory, PhysMemError


@pytest.fixture
def mem():
    m = PhysicalMemory(1 << 20)
    m.add_region(0x1000, 0x2000)
    return m


def test_capacity_positive():
    with pytest.raises(ValueError):
        PhysicalMemory(0)


def test_read_write_roundtrip(mem):
    mem.write(0x1000, b"hello world")
    assert mem.read(0x1000, 11) == b"hello world"


def test_unbacked_access_raises(mem):
    with pytest.raises(PhysMemError):
        mem.read(0x100, 4)
    with pytest.raises(PhysMemError):
        mem.read(0x4000, 4)


def test_cross_region_end_raises(mem):
    with pytest.raises(PhysMemError):
        mem.read(0x2FFE, 8)


def test_overlapping_region_rejected(mem):
    with pytest.raises(PhysMemError):
        mem.add_region(0x1800, 0x100)
    with pytest.raises(PhysMemError):
        mem.add_region(0x800, 0x1000)


def test_region_outside_capacity():
    m = PhysicalMemory(0x1000)
    with pytest.raises(PhysMemError):
        m.add_region(0x800, 0x1000)


def test_remove_region(mem):
    mem.remove_region(0x1000)
    with pytest.raises(PhysMemError):
        mem.read(0x1000, 1)
    with pytest.raises(PhysMemError):
        mem.remove_region(0x1000)


def test_zero_initialised(mem):
    assert mem.read(0x1000, 16) == b"\x00" * 16


def test_view_is_zero_copy(mem):
    view = mem.view(0x1000, 8)
    view[:] = 7
    assert mem.read(0x1000, 8) == b"\x07" * 8


def test_ndarray_view_aliases_storage(mem):
    arr = mem.ndarray(0x1000, np.float32, (4,))
    arr[:] = [1.0, 2.0, 3.0, 4.0]
    arr2 = mem.ndarray(0x1000, np.float32, (4,))
    np.testing.assert_array_equal(arr2, [1.0, 2.0, 3.0, 4.0])


def test_ndarray_2d(mem):
    arr = mem.ndarray(0x1000, np.int32, (4, 8))
    assert arr.shape == (4, 8)
    arr[2, 3] = 42
    flat = mem.ndarray(0x1000, np.int32, (32,))
    assert flat[2 * 8 + 3] == 42


def test_regions_listing(mem):
    mem.add_region(0x8000, 0x1000)
    assert mem.regions() == [(0x1000, 0x2000), (0x8000, 0x1000)]


@pytest.mark.parametrize("shape", [(-1,), (2, -3), (-2, -3)])
def test_ndarray_negative_dimension_raises(mem, shape):
    with pytest.raises(PhysMemError):
        mem.ndarray(0x1000, np.float32, shape)


def test_negative_byte_count_raises(mem):
    with pytest.raises(PhysMemError):
        mem.view(0x1000, -8)
    with pytest.raises(PhysMemError):
        mem.read(0x1000, -8)


def test_zero_sized_views_are_legal(mem):
    assert mem.view(0x1000, 0).size == 0
    assert mem.read(0x1000, 0) == b""
    assert mem.ndarray(0x1000, np.float32, (0,)).shape == (0,)
    assert mem.ndarray(0x1000, np.float32, (3, 0)).shape == (3, 0)
    assert mem.ndarray(0x1000, np.float32, ()).shape == ()

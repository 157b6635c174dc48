"""Integration tests: driver + unified address space."""

import numpy as np
import pytest

from repro.core import MealibSystem
from repro.memmgmt import (DriverError, IoctlRequest, MappedBuffer,
                           MealibDriver, UnifiedAddressSpace)


@pytest.fixture
def space():
    return UnifiedAddressSpace(MealibDriver(stack_bytes=64 << 20,
                                            command_bytes=1 << 16))


def test_command_space_mapped_at_install(space):
    assert space.driver.live_mappings >= 1
    assert space.command_pa == 0
    assert space.command_bytes == 1 << 16


def test_alloc_gives_dual_view(space):
    buf = space.alloc(4096)
    assert buf.size == 4096
    assert space.driver.virt_to_phys(buf.va, buf.size) == buf.pa


def test_cpu_and_accelerator_see_same_bytes(space):
    """The paper's core shared-memory property: CPU writes via VA, the
    accelerator reads the same bytes via PA — one copy of the data."""
    buf = space.alloc(64)
    space.va_write(buf.va, b"datacube")
    assert space.pa_read(buf.pa, 8) == b"datacube"
    space.pa_write(buf.pa + 8, b"!")
    assert space.va_read(buf.va + 8, 1) == b"!"


def test_ndarray_views_alias(space):
    buf, cpu = space.alloc_array((16,), np.float32)
    acc = space.pa_ndarray(buf.pa, np.float32, (16,))
    cpu[:] = np.arange(16, dtype=np.float32)
    np.testing.assert_array_equal(acc, np.arange(16, dtype=np.float32))


def test_free_releases(space):
    buf = space.alloc(4096)
    space.free(buf)
    with pytest.raises(Exception):
        space.pa_read(buf.pa, 1)


def test_allocations_physically_contiguous(space):
    buf = space.alloc(3 * 4096 + 17)
    # translate across the full span: raises if not contiguous
    assert space.driver.virt_to_phys(buf.va, buf.size) == buf.pa


def test_ioctl_rejects_bad_request(space):
    with pytest.raises(DriverError):
        space.driver.ioctl("bogus", 0)  # type: ignore[arg-type]
    with pytest.raises(DriverError):
        space.driver.ioctl(IoctlRequest.MEM_ALLOC, 0)


def test_mmap_guard_pages_keep_mappings_apart(space):
    b1 = space.alloc(4096)
    b2 = space.alloc(4096)
    assert abs(b2.va - b1.va) >= 4096 * 2


def test_mapped_buffer_translation():
    buf = MappedBuffer(va=0x1000, pa=0x9000, size=256)
    assert buf.va_to_pa(0x1080) == 0x9080
    with pytest.raises(ValueError):
        buf.va_to_pa(0x2000)
    with pytest.raises(ValueError):
        MappedBuffer(va=0, pa=0, size=0)


def test_driver_rejects_command_space_bigger_than_stack():
    with pytest.raises(ValueError):
        MealibDriver(stack_bytes=1 << 20, command_bytes=1 << 20)


def test_munmap(space):
    pa = space.driver.ioctl(IoctlRequest.MEM_ALLOC, 4096)
    va = space.driver.mmap(pa, 4096)
    space.driver.munmap(va)
    with pytest.raises(DriverError):
        space.driver.munmap(va)


def test_many_alloc_free_cycles(space):
    for _ in range(50):
        bufs = [space.alloc(8192) for _ in range(8)]
        for b in bufs:
            space.free(b)
    assert space.driver.live_mappings == 1   # only the command space


@pytest.mark.parametrize("field,value,error", [
    ("stack_bytes", float("nan"), TypeError),
    ("stack_bytes", float(64 << 20), TypeError),
    ("stack_bytes", 0, ValueError),
    ("command_bytes", 4096.0, TypeError),
    ("command_bytes", True, TypeError),
    ("command_bytes", 0, ValueError),
])
def test_driver_typed_errors_name_the_field(field, value, error):
    sizes = {"stack_bytes": 64 << 20, "command_bytes": 1 << 16,
             field: value}
    with pytest.raises(error, match=field):
        MealibDriver(**sizes)


def test_system_stack_size_is_checked_by_the_driver():
    with pytest.raises(TypeError, match="stack_bytes"):
        MealibSystem(stack_bytes=float("nan"))

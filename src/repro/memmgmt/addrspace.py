"""The unified address space shared by CPU and accelerators.

A thin facade over driver + page table + physical memory: the CPU reads
and writes through virtual addresses, accelerators through physical ones,
and both resolve to the *same* backing bytes (Figure 7 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.memmgmt.driver import IoctlRequest, MealibDriver


@dataclass(frozen=True)
class MappedBuffer:
    """A physically contiguous buffer visible at both a VA and a PA."""

    va: int
    pa: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("buffer size must be positive")

    def contains_va(self, va: int, n: int = 1) -> bool:
        return self.va <= va and va + n <= self.va + self.size

    def va_to_pa(self, va: int) -> int:
        """Translate a VA inside this buffer (contiguity is guaranteed)."""
        if not self.contains_va(va):
            raise ValueError(f"VA {va:#x} outside buffer")
        return self.pa + (va - self.va)


class UnifiedAddressSpace:
    """Allocation + dual-view access for one local memory stack."""

    def __init__(self, driver: Optional[MealibDriver] = None):
        self.driver = driver if driver is not None else MealibDriver()

    # -- allocation --------------------------------------------------------

    def alloc(self, size: int) -> MappedBuffer:
        """Allocate a physically contiguous buffer and map it virtually.

        This is what ``mealib_mem_alloc`` bottoms out in: an ioctl for the
        physical span and a custom mmap for the virtual view.
        """
        pa = self.driver.ioctl(IoctlRequest.MEM_ALLOC, size)
        va = self.driver.mmap(pa, size)
        return MappedBuffer(va=va, pa=pa, size=size)

    def free(self, buffer: MappedBuffer) -> None:
        self.driver.ioctl(IoctlRequest.MEM_FREE, buffer.pa)

    def alloc_array(self, shape, dtype) -> Tuple[MappedBuffer, np.ndarray]:
        """Allocate a buffer sized for ``shape``/``dtype`` and return both
        the buffer and a CPU-side (virtual-view) ndarray over it."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        buf = self.alloc(count * dtype.itemsize)
        return buf, self.va_ndarray(buf, dtype, shape)

    # -- CPU (virtual) view -------------------------------------------------

    def va_read(self, va: int, n: int) -> bytes:
        pa = self.driver.virt_to_phys(va, n)
        return self.driver.phys.read(pa, n)

    def va_write(self, va: int, data: bytes) -> None:
        pa = self.driver.virt_to_phys(va, len(data))
        self.driver.phys.write(pa, data)

    def va_ndarray(self, buffer: MappedBuffer, dtype, shape) -> np.ndarray:
        """CPU view of a buffer. Identical storage to ``pa_ndarray``."""
        return self.driver.phys.ndarray(buffer.pa, dtype, shape)

    # -- accelerator (physical) view -----------------------------------------

    def pa_read(self, pa: int, n: int) -> bytes:
        return self.driver.phys.read(pa, n)

    def pa_write(self, pa: int, data: bytes) -> None:
        self.driver.phys.write(pa, data)

    def pa_ndarray(self, pa: int, dtype, shape) -> np.ndarray:
        """Accelerator view: raw physical addressing, no MMU involved."""
        return self.driver.phys.ndarray(pa, dtype, shape)

    def pa_region(self, pa: int, n: int) -> Tuple[int, np.ndarray]:
        """``(start, backing)`` of the physical region holding
        ``[pa, pa+n)``, for accelerators that slice many accesses out
        of one region (:meth:`PhysicalMemory.region`)."""
        return self.driver.phys.region(pa, n)

    # -- command space -------------------------------------------------------

    @property
    def command_va(self) -> int:
        return self.driver.command_va

    @property
    def command_pa(self) -> int:
        return self.driver.command_base

    @property
    def command_bytes(self) -> int:
        return self.driver.command_bytes

"""The MEALib device driver.

Mirrors the paper's kernel module: it owns the reserved physically
contiguous range of the Local Memory Stack (LMS), splits it into a
*command space* (where accelerator descriptors live and where the
hardware monitors the Control Region for START) and a *data space*, and
exposes ``ioctl``-shaped allocation plus a custom ``mmap`` that installs
contiguous physical pages into the caller's virtual space.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict

from repro.checks import check_int
from repro.memmgmt.allocator import ContiguousAllocator
from repro.memmgmt.pagetable import PAGE_SIZE, PageTable, TranslationError
from repro.memmgmt.physmem import PhysicalMemory

#: Default LMS capacity (one stack).
DEFAULT_STACK_BYTES = 4 << 30

#: Default command-space size — descriptors are small.
DEFAULT_COMMAND_BYTES = 1 << 20

#: Virtual addresses handed out by the driver's mmap start here, far away
#: from anything else in the simulated process.
MMAP_VA_BASE = 0x7F00_0000_0000


class IoctlRequest(Enum):
    """The driver's ioctl command set."""

    MEM_ALLOC = auto()
    MEM_FREE = auto()


class DriverError(Exception):
    """Raised on invalid driver requests."""


@dataclass(frozen=True)
class Mapping:
    """One live mmap: a VA span backed by contiguous physical pages."""

    va: int
    pa: int
    size: int


class MealibDriver:
    """Device driver for one local memory stack.

    Args:
        stack_bytes: physical capacity of the LMS.
        command_bytes: size of the reserved command space (descriptors).
    """

    def __init__(self, stack_bytes: int = DEFAULT_STACK_BYTES,
                 command_bytes: int = DEFAULT_COMMAND_BYTES):
        check_int("stack_bytes", stack_bytes, 1)
        check_int("command_bytes", command_bytes, 1)
        if command_bytes >= stack_bytes:
            raise ValueError("command space must be smaller than the stack")
        self.phys = PhysicalMemory(stack_bytes)
        self.command_base = 0
        self.command_bytes = command_bytes
        self.phys.add_region(self.command_base, command_bytes)
        self._data_alloc = ContiguousAllocator(
            base=command_bytes, size=stack_bytes - command_bytes)
        self.pagetable = PageTable()
        self._va_cursor = MMAP_VA_BASE
        self._mappings: Dict[int, Mapping] = {}   # by VA
        self._pa_to_va: Dict[int, int] = {}
        # The command space is mapped at driver install time so the runtime
        # can write descriptors through ordinary (virtual) stores.
        self.command_va = self.mmap(self.command_base, command_bytes)

    # -- ioctl ------------------------------------------------------------

    def ioctl(self, request: IoctlRequest, arg: int) -> int:
        """Dispatch an ioctl: MEM_ALLOC(size) -> pa, MEM_FREE(pa) -> size."""
        if request is IoctlRequest.MEM_ALLOC:
            return self._mem_alloc(arg)
        if request is IoctlRequest.MEM_FREE:
            return self._mem_free(arg)
        raise DriverError(f"unknown ioctl request: {request}")

    def _mem_alloc(self, size: int) -> int:
        if size <= 0:
            raise DriverError("allocation size must be positive")
        pa = self._data_alloc.alloc(size, align=PAGE_SIZE)
        # round the backing region to whole pages so mmap can expose it
        backed = (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        self.phys.add_region(pa, backed)
        return pa

    def _mem_free(self, pa: int) -> int:
        size = self._data_alloc.free(pa)
        va = self._pa_to_va.pop(pa, None)
        if va is not None:
            mapping = self._mappings.pop(va)
            self.pagetable.unmap_range(mapping.va, mapping.size)
        self.phys.remove_region(pa)
        return size

    # -- mmap -------------------------------------------------------------

    def mmap(self, pa: int, size: int) -> int:
        """Map ``[pa, pa+size)`` into virtual space; returns the VA."""
        if size <= 0:
            raise DriverError("mmap size must be positive")
        if pa % PAGE_SIZE:
            raise DriverError("mmap physical address must be page-aligned")
        span = (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        va = self._va_cursor
        self._va_cursor += span + PAGE_SIZE   # guard page between mappings
        self.pagetable.map_range(va, pa, span)
        mapping = Mapping(va=va, pa=pa, size=span)
        self._mappings[va] = mapping
        self._pa_to_va[pa] = va
        return va

    def munmap(self, va: int) -> None:
        mapping = self._mappings.pop(va, None)
        if mapping is None:
            raise DriverError(f"munmap of unmapped VA {va:#x}")
        self._pa_to_va.pop(mapping.pa, None)
        self.pagetable.unmap_range(mapping.va, mapping.size)

    # -- translation helpers ----------------------------------------------

    def virt_to_phys(self, va: int, size: int = 1) -> int:
        """The translation the runtime performs when filling descriptors."""
        try:
            return self.pagetable.translate_range(va, size)
        except TranslationError as exc:
            raise DriverError(str(exc)) from exc

    @property
    def live_mappings(self) -> int:
        return len(self._mappings)

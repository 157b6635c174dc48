"""Simulated physical memory.

The stack's physical address space can be gigabytes, so the backing store
is *sparse*: storage exists only for regions registered by the allocator,
each backed by a numpy byte array. Accelerators address this memory
physically; the CPU reaches the same bytes through the page table
(:mod:`repro.memmgmt.pagetable`), so both sides observe a single copy —
the paper's unified-address-space requirement.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Optional, Tuple

import numpy as np


class PhysMemError(Exception):
    """Raised on out-of-region or overlapping physical accesses."""


class PhysicalMemory:
    """Sparse byte-addressable physical memory.

    ``fault_hook`` is the DRAM-fault injection point: when set, every
    :meth:`read` passes its result through ``hook(addr, data)``, which
    may return modified bytes (bit flips) or raise (uncorrectable ECC).
    Zero-copy :meth:`view`/:meth:`ndarray` paths model direct TSV access
    by the accelerator datapath and bypass the hook — that path is
    instead adjudicated at operand-fetch time by
    :class:`~repro.faults.datapath.DatapathEcc`, which calls
    :meth:`apply_flips` to land silent (aliased) corruption in the
    backing store. ``None`` (the default) costs nothing.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.fault_hook: Optional[Callable[[int, bytes], bytes]] = None
        self._starts: List[int] = []
        self._regions: List[Tuple[int, np.ndarray]] = []  # (start, backing)

    def add_region(self, start: int, size: int) -> None:
        """Register backing storage for ``[start, start+size)``."""
        if start < 0 or start + size > self.capacity:
            raise PhysMemError(
                f"region [{start:#x}, {start + size:#x}) outside capacity")
        if size <= 0:
            raise PhysMemError("region size must be positive")
        idx = bisect.bisect_right(self._starts, start)
        if idx > 0:
            prev_start, prev = self._regions[idx - 1]
            if prev_start + len(prev) > start:
                raise PhysMemError("region overlaps an existing region")
        if idx < len(self._starts) and start + size > self._starts[idx]:
            raise PhysMemError("region overlaps an existing region")
        self._starts.insert(idx, start)
        self._regions.insert(idx, (start, np.zeros(size, dtype=np.uint8)))

    def remove_region(self, start: int) -> None:
        """Drop the region that begins exactly at ``start``."""
        idx = bisect.bisect_left(self._starts, start)
        if idx >= len(self._starts) or self._starts[idx] != start:
            raise PhysMemError(f"no region starts at {start:#x}")
        del self._starts[idx]
        del self._regions[idx]

    def _locate(self, addr: int, n: int) -> Tuple[np.ndarray, int]:
        if n < 0:
            raise PhysMemError(f"negative access size {n}")
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            raise PhysMemError(f"unbacked physical address {addr:#x}")
        start, backing = self._regions[idx]
        off = addr - start
        if off + n > len(backing):
            raise PhysMemError(
                f"access [{addr:#x}, {addr + n:#x}) crosses region end")
        return backing, off

    def read(self, addr: int, n: int) -> bytes:
        backing, off = self._locate(addr, n)
        data = backing[off:off + n].tobytes()
        if self.fault_hook is not None:
            data = self.fault_hook(addr, data)
        return data

    def write(self, addr: int, data: bytes) -> None:
        backing, off = self._locate(addr, len(data))
        backing[off:off + len(data)] = np.frombuffer(
            bytes(data), dtype=np.uint8)

    def view(self, addr: int, n: int) -> np.ndarray:
        """Zero-copy uint8 view of ``[addr, addr+n)``. The range must lie
        within a single backed region (true for allocator buffers)."""
        backing, off = self._locate(addr, n)
        return backing[off:off + n]

    def ndarray(self, addr: int, dtype, shape) -> np.ndarray:
        """Zero-copy typed view of physical memory.

        This is how both the simulated CPU (through a virtual mapping that
        resolves to the same region) and the accelerators (directly) touch
        buffer contents — there is a single copy of the data. The
        element count is an exact integer product (``math.prod``); a
        negative dimension raises :class:`PhysMemError`.
        """
        dtype = np.dtype(dtype)
        if shape and min(shape) < 0:
            raise PhysMemError(f"negative dimension in shape {shape}")
        count = math.prod(shape)
        raw = self.view(addr, count * dtype.itemsize)
        return raw.view(dtype).reshape(shape)

    def apply_flips(self, addr: int, mask: int) -> int:
        """XOR a codeword's flip ``mask`` into the backing store.

        ``addr`` is the (8-byte-aligned) word address; bit *i* of
        ``mask`` flips bit ``i % 8`` of byte ``addr + i // 8``. Bits
        that fall outside the backed region (a word straddling the end
        of the last region) are dropped. Returns the number of bits
        actually flipped. This is how silent (aliased) ECC corruption
        becomes observable through the zero-copy datapath views.
        """
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return 0
        start, backing = self._regions[idx]
        off = addr - start
        flipped = 0
        for i in range(8):
            byte_mask = (mask >> (i * 8)) & 0xFF
            if byte_mask and 0 <= off + i < len(backing):
                backing[off + i] ^= byte_mask
                flipped += bin(byte_mask).count("1")
        return flipped

    def regions(self) -> List[Tuple[int, int]]:
        """List of (start, size) backed regions, ascending."""
        return [(start, len(backing)) for start, backing in self._regions]

"""Physical-address decomposition for simulated DRAM devices.

A physical address is split, low bits first, into::

    [offset within burst] [unit (vault/channel)] [column block] [bank] [row]

Interleaving units (vaults for a 3D stack, channels for a DDR system) at a
small granularity spreads streaming accesses across all units, which is how
both HMC and multi-channel DDR obtain their aggregate bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _fold(x: int, modulus: int) -> int:
    """XOR-fold all bits of ``x`` down to ``log2(modulus)`` bits.

    Used to permute unit/bank indices with higher address bits, the way
    real memory controllers hash channel and bank selection so that
    power-of-two strides (ubiquitous in matrix code) don't alias every
    access onto one channel or one bank.
    """
    bits = modulus.bit_length() - 1
    if bits == 0:
        return 0
    out = 0
    while x:
        out ^= x & (modulus - 1)
        x >>= bits
    return out


def _fold_array(x: np.ndarray, modulus: int) -> np.ndarray:
    """Vectorized :func:`_fold` over a non-negative int64 array (exact:
    shifts and XORs only). The scalar loop stops once ``x`` runs out of
    bits, so folding every ``bits``-wide chunk below the array maximum's
    bit length touches the same chunks (higher ones are zero)."""
    bits = modulus.bit_length() - 1
    out = np.zeros_like(x)
    if bits == 0:
        return out
    for shift in range(0, int(x.max(initial=0)).bit_length(), bits):
        out ^= (x >> shift) & (modulus - 1)
    return out


@dataclass(frozen=True)
class AddressMapping:
    """Address ↦ (unit, bank, row, column-block) mapping.

    Attributes:
        interleave_bytes: granularity at which consecutive addresses rotate
            across units (vaults/channels).
        units: number of vaults or channels.
        banks: banks per unit.
        row_bytes: bytes per row per bank.
    """

    interleave_bytes: int
    units: int
    banks: int
    row_bytes: int

    def __post_init__(self) -> None:
        for name in ("interleave_bytes", "units", "banks", "row_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got "
                                f"{type(value).__name__}")
            if not _is_pow2(value):
                raise ValueError(f"{name} must be a power of two, got "
                                 f"{value}")

    @property
    def cols_per_row(self) -> int:
        """Interleave-sized blocks per row."""
        return self.row_bytes // self.interleave_bytes

    def decompose(self, addr: int) -> Tuple[int, int, int, int]:
        """Return ``(unit, bank, row, col)`` for a physical address."""
        if addr < 0:
            raise ValueError(f"negative physical address: {addr}")
        block = addr // self.interleave_bytes
        unit = (block % self.units) ^ _fold(block // self.units, self.units)
        block //= self.units
        col = block % self.cols_per_row
        block //= self.cols_per_row
        bank = block % self.banks
        row = block // self.banks
        # XOR-permute the bank index with folded row bits (and the unit
        # index with folded high bits, above): decorrelates concurrent
        # streams and power-of-two strides that would otherwise alias onto
        # one bank/unit and ping-pong its row buffer.
        bank = bank ^ _fold(row, self.banks)
        return unit, bank, row, col

    def decompose_batch(self, addrs: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
        """Vectorized :meth:`decompose` over an int64 address array.

        Returns ``(units, banks, rows, cols)`` arrays. All operations
        are integer divisions, masks and XOR-folds, so every element is
        exactly what the scalar path would produce
        (``tests/memsys/test_vectorized_diff.py`` pins this).
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size and int(addrs.min()) < 0:
            raise ValueError("negative physical address in batch")
        unit = self.units_of(addrs)
        # (a // i) // u == a // (i * u) for non-negative integers
        block = addrs // (self.interleave_bytes * self.units)
        col = block % self.cols_per_row
        block = block // self.cols_per_row
        bank = block % self.banks
        row = block // self.banks
        bank = bank ^ _fold_array(row, self.banks)
        return unit, bank, row, col

    def unit_of(self, addr: int) -> int:
        """Return only the unit (vault/channel) index — the hot path."""
        block = addr // self.interleave_bytes
        return (block % self.units) ^ _fold(block // self.units, self.units)

    def units_of(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`unit_of` over non-negative int64 addresses
        (exact: integer divisions and XOR-folds only)."""
        block = np.asarray(addrs, dtype=np.int64) // self.interleave_bytes
        return (block % self.units) ^ _fold_array(block // self.units,
                                                  self.units)

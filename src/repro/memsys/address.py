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


def _log2(x: int) -> int:
    """Exponent of a power of two."""
    return x.bit_length() - 1


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


def _xor_fold(y: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Vectorized :func:`_fold` of non-negative integers below
    ``2**width`` to ``bits`` bits (exact: shifts and XORs only).

    A log-depth tree: after ``y ^= y >> s`` for ``s = bits, 2·bits,
    4·bits, …`` the low ``bits`` bits hold the XOR of every
    ``bits``-wide chunk, which is what the scalar loop accumulates.
    Every shift stays below ``width``, so below the dtype's width.
    Returns a new array of ``y``'s dtype.
    """
    if bits == 0:
        return np.zeros_like(y)
    out = y.copy()
    shift = bits
    while shift < width:
        out ^= out >> shift
        shift <<= 1
    out &= (1 << bits) - 1
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
        if self.row_bytes < self.interleave_bytes:
            # a row must hold at least one interleave block
            raise ValueError(f"row_bytes ({self.row_bytes}) must be at "
                             f"least interleave_bytes "
                             f"({self.interleave_bytes})")

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
        """Vectorized :meth:`decompose` over non-negative addresses.

        Returns ``(units, banks, rows, cols)`` arrays, int32 when every
        address is below 2**31 and int64 otherwise. Every field width
        is a validated power of two, so the divisions and remainders
        are shifts and masks. The XOR permutations collapse into folds
        of one value: with ``block = addr >> log2(interleave_bytes)``,
        ``(block & (units - 1)) ^ fold(block >> log2(units))`` is the
        XOR of every ``log2(units)``-bit chunk of ``block``, i.e.
        ``unit = fold(block)``, and likewise ``bank = fold(block >>
        (log2(units) + log2(cols_per_row)))``, each a log-depth
        :func:`_xor_fold`. Every element is exactly what the scalar
        path produces (``tests/memsys/test_address.py`` pins this
        across geometries).
        """
        block, width = self._blocks(addrs)
        low = _log2(self.units)
        high = low + _log2(self.cols_per_row)
        unit = _xor_fold(block, low, width)
        col = (block >> low) & (self.cols_per_row - 1)
        upper = block >> high
        bits = _log2(self.banks)
        bank = _xor_fold(upper, bits, width - high)
        return unit, bank, upper >> bits, col

    def unit_of(self, addr: int) -> int:
        """Return only the unit (vault/channel) index — the hot path."""
        block = addr // self.interleave_bytes
        return (block % self.units) ^ _fold(block // self.units, self.units)

    def units_of(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`unit_of` over non-negative addresses: the
        fold of the interleave block (see :meth:`decompose_batch`)."""
        block, width = self._blocks(addrs)
        return _xor_fold(block, _log2(self.units), width)

    def _blocks(self, addrs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Interleave-block indices of ``addrs`` and their bit width;
        int32 when every address is below 2**31."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if not addrs.size:
            return addrs, 0
        if int(addrs.min()) < 0:
            raise ValueError("negative physical address in batch")
        top = int(addrs.max())
        if top < 1 << 31:
            addrs = addrs.astype(np.int32)
        shift = _log2(self.interleave_bytes)
        return addrs >> shift, (top >> shift).bit_length()

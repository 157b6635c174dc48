"""DRAM energy parameter sets.

Energies are in joules, powers in watts. The constants are in the
published CACTI-3DD / DDR3 datasheet ballpark:

* DDR3 DIMMs land around 15-25 pJ/bit end to end (array + I/O + termination);
* 3D-stacked DRAM accessed through TSVs lands around 3-5 pJ/bit internally
  (no off-chip I/O), which is what gives memory-side accelerators their
  energy advantage in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.checks import check_real


@dataclass(frozen=True)
class DramEnergy:
    """Energy/power parameters for one DRAM device class.

    Attributes:
        e_activate: energy per ACTIVATE+PRECHARGE pair (whole row).
        e_rw_per_bit: array read/write energy per bit.
        e_io_per_bit: bus/IO energy per bit (off-chip SSTL for DDR,
            TSV for 3D stacks).
        p_static_per_bank: leakage + refresh + peripheral power per bank.
    """

    e_activate: float
    e_rw_per_bit: float
    e_io_per_bit: float
    p_static_per_bank: float

    def __post_init__(self) -> None:
        for f in fields(self):
            check_real(f.name, getattr(self, f.name), least=0.0)

    def burst_energy(self, burst_bytes: int) -> float:
        """Dynamic energy of moving one burst through array + IO."""
        bits = burst_bytes * 8
        return bits * (self.e_rw_per_bit + self.e_io_per_bit)


_PJ = 1e-12
_NJ = 1e-9

#: Conventional DDR3: expensive off-chip I/O dominates.
DDR3_ENERGY = DramEnergy(
    e_activate=18.0 * _NJ,
    e_rw_per_bit=6.0 * _PJ,
    e_io_per_bit=14.0 * _PJ,
    p_static_per_bank=0.055,
)

#: 3D-stacked vault: same array class, but TSV I/O is ~20x cheaper than
#: off-chip SSTL and rows are smaller so activates are cheaper too.
HMC_ENERGY = DramEnergy(
    e_activate=4.5 * _NJ,
    e_rw_per_bit=4.0 * _PJ,
    e_io_per_bit=1.2 * _PJ,
    p_static_per_bank=0.018,
)

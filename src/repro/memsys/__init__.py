"""Memory-system substrate: cycle-level DRAM models and trace machinery.

Public surface:

* :class:`~repro.memsys.timing.DramTiming` and the ``DDR3_1600_CHANNEL`` /
  ``HMC_VAULT`` presets;
* :class:`~repro.memsys.energy.DramEnergy` and presets;
* :class:`~repro.memsys.dram3d.StackedDram` — the MEALib 3D stack;
* :class:`~repro.memsys.ddr.DdrMemory` and the ``haswell_memory`` /
  ``msas_memory`` factories;
* :class:`~repro.memsys.trace.StreamSpec` plus
  :func:`~repro.memsys.trace.simulate_streams`;
* :class:`~repro.memsys.vault.VaultController`, whose drain is a pure
  function of its (bank, row, is_write) columns, and the
  :class:`~repro.memsys.result.MemResult` / ``BankStats`` it reports;
* :class:`~repro.memsys.reshape.ReshapeUnit` on the logic layer.
"""

from repro.memsys.address import AddressMapping
from repro.memsys.ddr import DdrMemory, haswell_memory, msas_memory
from repro.memsys.device import MemoryDevice
from repro.memsys.dram3d import StackedDram
from repro.memsys.energy import DDR3_ENERGY, HMC_ENERGY, DramEnergy
from repro.memsys.reshape import ReshapeUnit
from repro.memsys.result import BankStats, MemResult
from repro.memsys.timing import DDR3_1600_CHANNEL, HMC_VAULT, DramTiming
from repro.memsys.trace import (StreamSpec, seq_read, seq_write,
                                simulate_streams)
from repro.memsys.vault import VaultController

__all__ = [
    "AddressMapping", "BankStats", "DdrMemory", "haswell_memory",
    "msas_memory", "MemoryDevice", "StackedDram", "DDR3_ENERGY",
    "HMC_ENERGY", "DramEnergy", "ReshapeUnit", "MemResult",
    "DDR3_1600_CHANNEL", "HMC_VAULT", "DramTiming", "StreamSpec",
    "seq_read", "seq_write", "simulate_streams",
    "VaultController",
]

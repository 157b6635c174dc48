"""DRAM timing parameter sets.

All times are in seconds. Each parameter set describes one *data bus*
(a DDR channel or an HMC-style vault) and the banks behind it. The values
are drawn from public DDR3-1600 datasheets and from the CACTI-3DD /
HMC-gen1 ballpark the paper cites; they are inputs to the cycle-level bank
model in :mod:`repro.memsys.vault`, not fitted constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Tuple

from repro.checks import check_real


@dataclass(frozen=True)
class DramTiming:
    """Timing constraints for one bus + its banks.

    Attributes:
        clock_hz: command/data clock of the bus (data is DDR, see
            ``bytes_per_cycle`` which already accounts for both edges).
        t_rcd: ACTIVATE to READ/WRITE delay.
        t_cas: READ to first data (CL).
        t_rp: PRECHARGE to ACTIVATE delay.
        t_ras: ACTIVATE to PRECHARGE minimum.
        t_wr: write recovery (last data to PRECHARGE).
        t_ccd: column-to-column delay (back-to-back bursts, same bank).
        bytes_per_cycle: bytes transferred per bus clock (DDR folded in).
        burst_bytes: bytes moved by one READ/WRITE command.
        row_bytes: size of one DRAM row (row-buffer reach).
        banks: number of banks behind this bus.
    """

    clock_hz: float
    t_rcd: float
    t_cas: float
    t_rp: float
    t_ras: float
    t_wr: float
    t_ccd: float
    bytes_per_cycle: int
    burst_bytes: int
    row_bytes: int
    banks: int

    def __post_init__(self) -> None:
        # the vault drain's elided and deferred maxes are exact only for
        # non-negative delays and a positive burst time
        for f in fields(self):
            delay = f.name.startswith("t_")
            check_real(f.name, getattr(self, f.name),
                       least=0.0 if delay else None, positive=not delay)

    @property
    def t_ck(self) -> float:
        """One bus clock period in seconds."""
        return 1.0 / self.clock_hz

    @property
    def t_burst(self) -> float:
        """Bus occupancy of a single burst transfer."""
        return self.burst_bytes / self.bytes_per_cycle * self.t_ck

    @property
    def peak_bandwidth(self) -> float:
        """Peak bus bandwidth in bytes/second."""
        return self.bytes_per_cycle * self.clock_hz

    @cached_property
    def drain_constants(self) -> Tuple[float, float, float, float,
                                       float, float, float]:
        """``(t_rcd, t_cas, t_rp, t_ras, t_wr, t_ccd, t_burst)``.

        Hoisted once per drain by the vault controller's fast path so
        the per-access recurrence touches only local floats (the
        instance is frozen, so the tuple can never go stale).
        """
        return (self.t_rcd, self.t_cas, self.t_rp, self.t_ras,
                self.t_wr, self.t_ccd, self.t_burst)

    def scaled_clock(self, clock_hz: float) -> "DramTiming":
        """Return a copy with a different bus clock, keeping absolute
        latencies (tRCD etc. are analog array delays, not cycle counts)."""
        return replace(self, clock_hz=clock_hz)

    def with_row_bytes(self, row_bytes: int) -> "DramTiming":
        """Return a copy with a different row-buffer size (design-space
        knob used by Fig 11)."""
        return replace(self, row_bytes=row_bytes)


_NS = 1e-9

#: One DDR3-1600 channel: 64-bit bus, 800 MHz clock DDR -> 12.8 GB/s peak.
DDR3_1600_CHANNEL = DramTiming(
    clock_hz=800e6,
    t_rcd=13.75 * _NS,
    t_cas=13.75 * _NS,
    t_rp=13.75 * _NS,
    t_ras=35.0 * _NS,
    t_wr=15.0 * _NS,
    t_ccd=5.0 * _NS,
    bytes_per_cycle=16,   # 8 bytes x 2 (DDR)
    burst_bytes=64,       # BL8 on a 64-bit bus
    row_bytes=8192,
    banks=8,
)

#: One HMC-style vault: 32-bit TSV data bus at 1.25 GHz DDR-class signalling
#: -> 32 GB/s peak per vault; 16 vaults give the paper's 510 GB/s class.
HMC_VAULT = DramTiming(
    clock_hz=1.25e9,
    t_rcd=13.75 * _NS,
    t_cas=13.75 * _NS,
    t_rp=13.75 * _NS,
    t_ras=27.5 * _NS,
    t_wr=15.0 * _NS,
    t_ccd=1.0 * _NS,
    bytes_per_cycle=26,   # ~32 GB/s per vault (510 GB/s aggregate / 16)
    burst_bytes=32,       # HMC-class 32 B access granularity
    row_bytes=2048,       # smaller rows in 3D-stacked arrays (CACTI-3DD)
    banks=8,
)

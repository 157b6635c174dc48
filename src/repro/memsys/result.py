"""Result record returned by every memory-device simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsys.bank import BankStats


@dataclass
class MemResult:
    """Outcome of servicing a request trace on a memory device.

    Attributes:
        time: wall-clock time to drain the trace, in seconds.
        energy: total energy (dynamic + static) in joules.
        bytes_moved: payload bytes transferred.
        stats: merged per-bank event counters.
    """

    time: float
    energy: float
    bytes_moved: int
    stats: BankStats = field(default_factory=BankStats)

    @property
    def bandwidth(self) -> float:
        """Achieved bandwidth in bytes/second."""
        return self.bytes_moved / self.time if self.time > 0 else 0.0

    @property
    def power(self) -> float:
        """Average power in watts."""
        return self.energy / self.time if self.time > 0 else 0.0

    def scaled(self, factor: float) -> "MemResult":
        """Linear extrapolation to a workload ``factor`` times larger.

        Used by the sampled-window methodology: both time and energy of a
        bandwidth-bound stream scale linearly in bytes moved (static power
        scales with time, dynamic energy with bytes — both linear).
        """
        out = MemResult(
            time=self.time * factor,
            energy=self.energy * factor,
            bytes_moved=int(round(self.bytes_moved * factor)),
        )
        scaled_stats = BankStats(
            activates=int(round(self.stats.activates * factor)),
            row_hits=int(round(self.stats.row_hits * factor)),
            row_misses=int(round(self.stats.row_misses * factor)),
            reads=int(round(self.stats.reads * factor)),
            writes=int(round(self.stats.writes * factor)),
        )
        out.stats = scaled_stats
        return out

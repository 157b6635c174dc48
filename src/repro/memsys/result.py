"""Result records returned by every memory-device simulation."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BankStats:
    """Event counters used by the energy model."""

    activates: int = 0
    row_hits: int = 0
    row_misses: int = 0
    reads: int = 0
    writes: int = 0

    def merge(self, other: "BankStats") -> None:
        self.activates += other.activates
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.reads += other.reads
        self.writes += other.writes

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


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

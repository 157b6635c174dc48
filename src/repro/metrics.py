"""Shared result records and metric helpers (GFLOPS, GFLOPS/W, EDP).

Every execution model in the package — host CPUs, accelerators, the
MEALib runtime — reports an :class:`ExecResult`. The evaluation harness
combines them with the metric helpers the paper uses: GFLOPS for
performance (GB/s for the flop-free RESHP), GFLOPS/W for energy
efficiency, and energy-delay product for the STAP comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass(frozen=True)
class ExecResult:
    """Time and energy of one execution.

    Attributes:
        time: wall-clock seconds.
        energy: joules.
    """

    time: float
    energy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < inf:
            raise ValueError(f"time must be finite and non-negative, "
                             f"got {self.time!r}")
        if not 0.0 <= self.energy < inf:
            raise ValueError(f"energy must be finite and non-negative, "
                             f"got {self.energy!r}")

    @property
    def power(self) -> float:
        """Average power in watts."""
        return self.energy / self.time if self.time > 0 else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s), the paper's efficiency metric for
        STAP (Gonzalez & Horowitz)."""
        return self.energy * self.time

    def plus(self, other: "ExecResult") -> "ExecResult":
        """Sequential composition: times and energies add."""
        return ExecResult(self.time + other.time,
                          self.energy + other.energy)

    def repeated(self, times: int) -> "ExecResult":
        """The same execution performed ``times`` times back to back."""
        if times < 0:
            raise ValueError("repeat count must be non-negative")
        return ExecResult(self.time * times, self.energy * times)


ZERO = ExecResult(0.0, 0.0)


def gflops(flops: float, result: ExecResult) -> float:
    """Performance in giga floating-point operations per second."""
    return flops / result.time / 1e9 if result.time > 0 else 0.0


def gbytes_per_s(n_bytes: float, result: ExecResult) -> float:
    """Throughput in GB/s (used for RESHP, which has no flops)."""
    return n_bytes / result.time / 1e9 if result.time > 0 else 0.0


def gflops_per_watt(flops: float, result: ExecResult) -> float:
    """Energy efficiency in GFLOPS per watt = flops / energy / 1e9."""
    return flops / result.energy / 1e9 if result.energy > 0 else 0.0


def speedup(baseline: ExecResult, contender: ExecResult) -> float:
    """How many times faster ``contender`` is than ``baseline``."""
    if contender.time <= 0:
        raise ValueError("contender time must be positive")
    return baseline.time / contender.time


def efficiency_gain(baseline: ExecResult, contender: ExecResult,
                    flops: float = 1.0) -> float:
    """GFLOPS/W ratio of contender over baseline (flops cancel)."""
    if contender.energy <= 0 or baseline.energy <= 0:
        raise ValueError("energies must be positive")
    return baseline.energy / contender.energy


def edp_gain(baseline: ExecResult, contender: ExecResult) -> float:
    """EDP ratio of baseline over contender (>1 means contender wins)."""
    if contender.edp <= 0:
        raise ValueError("contender EDP must be positive")
    return baseline.edp / contender.edp

"""Seeded open-loop traffic generation for the serving bench.

An *open-loop* generator emits arrival timestamps independently of the
server's progress — the offered load is a property of the trace, not of
how fast the stack drains it, which is what makes latency-vs-load
curves honest (a closed loop self-throttles and hides saturation).

Two arrival processes over a configurable op mix (the SAR/STAP/BLAS
operations of Table 2):

* ``poisson`` — exponential inter-arrival gaps at ``rate`` requests
  per second of model time (memoryless steady load);
* ``bursty`` — a batch-Poisson (Erlang-gapped burst) process: bursts
  of ``burst_size`` back-to-back requests whose burst gaps keep the
  *mean* rate at ``rate``. Same offered load, much uglier tail.

Everything is deterministic from ``(seed, stream)`` — one dedicated
:func:`numpy.random.default_rng` stream per tenant trace, so adding a
tenant or changing one trace's length never perturbs another's
arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.checks import check_int, check_real

#: Default op mix: the BLAS pair the batcher coalesces, plus the
#: SAR/STAP kernels (GEMV for STAP weight application, FFT/RESMP for
#: the SAR imaging chain).
DEFAULT_MIX: Dict[str, float] = {
    "AXPY": 0.3, "DOT": 0.3, "GEMV": 0.2, "FFT": 0.1, "RESMP": 0.1,
}


@dataclass(frozen=True)
class Arrival:
    """One open-loop request arrival."""

    time: float                  # model-time arrival timestamp, s
    tenant: str
    op: str
    scale: float                 # Table 2 data-set scale factor


@dataclass(frozen=True)
class TrafficConfig:
    """One tenant trace's shape.

    Attributes:
        rate: mean offered load, requests per model second.
        n_requests: trace length.
        mix: op -> weight (normalised internally).
        process: ``"poisson"`` or ``"bursty"``.
        burst_size: requests per burst (bursty only).
        scale: Table 2 scale of every generated call.
        start: trace start time offset.
    """

    rate: float
    n_requests: int
    mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX))
    process: str = "poisson"
    burst_size: int = 4
    scale: float = 0.004
    start: float = 0.0

    def __post_init__(self) -> None:
        check_real("rate", self.rate, positive=True)
        check_int("n_requests", self.n_requests, 1)
        if self.process not in ("poisson", "bursty"):
            raise ValueError(
                f"unknown arrival process {self.process!r}")
        check_int("burst_size", self.burst_size, 1)
        check_real("scale", self.scale, least=0.0)
        if not self.mix or any(w < 0 for w in self.mix.values()) \
                or sum(self.mix.values()) <= 0:
            raise ValueError("mix must hold non-negative weights with "
                             "a positive sum")


def _gaps(config: TrafficConfig, rng: np.random.Generator
          ) -> np.ndarray:
    """Inter-arrival gaps realising the configured process at the
    configured mean rate."""
    n = config.n_requests
    if config.process == "poisson":
        return rng.exponential(1.0 / config.rate, size=n)
    # bursty: zero gaps inside a burst, exponential burst gaps whose
    # mean keeps the overall rate at `rate`
    b = config.burst_size
    n_bursts = (n + b - 1) // b
    burst_gap = b / config.rate
    gaps = np.zeros(n)
    gaps[::b] = rng.exponential(burst_gap, size=n_bursts)
    return gaps


def generate_trace(tenant: str, config: TrafficConfig,
                   seed: int, stream: int = 0) -> List[Arrival]:
    """One tenant's deterministic arrival trace.

    ``(seed, stream)`` seeds a dedicated PRNG stream: traces for
    different ``stream`` indices are independent, and regenerating
    with the same pair is bit-identical.
    """
    rng = np.random.default_rng((seed, stream))
    times = config.start + np.cumsum(_gaps(config, rng))
    ops = sorted(config.mix)
    weights = np.array([config.mix[op] for op in ops], dtype=float)
    weights /= weights.sum()
    choices = rng.choice(len(ops), size=config.n_requests, p=weights)
    return [Arrival(time=float(t), tenant=tenant, op=ops[int(c)],
                    scale=config.scale)
            for t, c in zip(times, choices)]


def merge_traces(*traces: Sequence[Arrival]) -> List[Arrival]:
    """Interleave tenant traces into one arrival-ordered stream.

    Ties break by trace order then position — fully deterministic, so
    the admission order every consumer sees is reproducible.
    """
    tagged: List[Tuple[float, int, int, Arrival]] = []
    for ti, trace in enumerate(traces):
        for pi, a in enumerate(trace):
            tagged.append((a.time, ti, pi, a))
    tagged.sort(key=lambda item: item[:3])
    return [a for _, _, _, a in tagged]


def offered_load(trace: Sequence[Arrival]) -> float:
    """Mean arrival rate of a merged trace (requests per model s)."""
    if len(trace) < 2:
        return 0.0
    span = trace[-1].time - trace[0].time
    return (len(trace) - 1) / span if span > 0 else float("inf")

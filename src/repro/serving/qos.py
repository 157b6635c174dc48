"""QoS classes and per-tenant admission configuration.

Every client stream (tenant) the serving runtime multiplexes onto one
:class:`~repro.core.system.MealibSystem` carries a QoS class — its
scheduling priority — and an admission bound on how many lowered
descriptors it may keep queued in the command space at once. Requests
arriving at a full queue are *shed* at admission (counted per tenant,
never executed, never planned into the command space), which is what
keeps an open-loop overload from growing the queue — and the
command-space footprint — without bound.

Priorities are small integers, lower = more urgent. The scheduler ages
queued requests (see :class:`~repro.serving.runtime.ServingRuntime`):
each elapsed ``aging_quantum`` promotes a waiting request by one
priority level, so a bulk-class request behind a sustained interactive
flood is eventually dispatched — priority shapes latency, it never
starves anyone.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass


def check_positive_int(name: str, value: object) -> None:
    """Raise :class:`ValueError` unless ``value`` is an integer >= 1
    (bools, floats and NaN are rejected)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class QosClass(enum.IntEnum):
    """Scheduling priority of one tenant's stream (lower = sooner)."""

    INTERACTIVE = 0      # latency-sensitive small calls
    STANDARD = 1         # the default
    BULK = 2             # throughput work, happy to wait


@dataclass(frozen=True)
class TenantConfig:
    """One client stream's identity, QoS class and admission bound.

    Attributes:
        tenant: stable identifier (ledger labels, cache tags).
        qos: scheduling priority class.
        max_queue_depth: admission control — the most requests this
            tenant may hold queued (each queued request is a lowered
            descriptor resident in the command space). Arrivals beyond
            it are shed.
    """

    tenant: str
    qos: QosClass = QosClass.STANDARD
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("tenant id must be non-empty")
        check_positive_int("max_queue_depth", self.max_queue_depth)

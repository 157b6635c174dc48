"""Descriptor-keyed schedule cache for the configuration unit.

Accelerated workloads are dominated by *repeated* descriptors: the same
library call, with the same operand shapes and placements, executed
thousands of times (the paper's headline example batches 16M identical
invocations into looped descriptors). The timing/energy model of such a
descriptor is a pure function of

* the descriptor image itself (op, shape, stride, placement — the image
  bytes embed all of them, including the absolute operand addresses),
* the layer's degradation state (serving tiles + stripe reroutes + the
  link-health overlay the adaptive router consults),
* the governor's DVFS state (pass slowdown + throttled vault set), and
* nothing else — bank/bus state is per-drain (every pass model starts
  from cold controllers), so two calls with identical inputs produce
  bit-identical :class:`~repro.core.config_unit.DescriptorExecution`
  decompositions.

The cache exploits that: the configuration unit keys each execution by
``(descriptor address, image bytes, serving tiles, reroutes, slowdown,
throttled vaults, governor-attached, concurrency)`` and replays the
stored decode + model result on a hit, skipping descriptor decode,
tile switch programming and the whole memory-system simulation. (The
``concurrency`` component is the co-running stream count the serving
runtime dispatched the descriptor under — contention-stretched and
solo executions never share an entry.) Everything with a
*live* side effect — fault sampling, descriptor corruption + integrity
check, datapath SECDED adjudication, functional execution, throttle
bookkeeping — still runs on every call, so fault campaigns and
functional results are unaffected by caching.

Invalidation is epoch-based. The cache keeps one monotone epoch per
hazard domain:

========  ==========================================================
epoch     bumped by
========  ==========================================================
health    link fail/restore (:class:`~repro.accel.noc.LinkHealth`
          ``on_change``), tile fail/repair
          (:class:`~repro.accel.layer.AcceleratorLayer`
          ``on_health_change``)
thermal   any governor state transition
          (:class:`~repro.thermal.governor.PowerGovernor`
          ``on_state_change``)
scrub     a patrol pass that drained latent words
          (:class:`~repro.faults.scrub.PatrolScrubber` ``on_repair``)
fault     new latent flips landing
          (:class:`~repro.faults.injector.FaultInjector`
          ``on_latent_change``)
========  ==========================================================

Every entry snapshots the epoch vector at store time; a lookup whose
key matches but whose epochs do not is *caught* — counted as a stale
eviction, dropped, and re-simulated — never silently replayed. This
closes the classic stale-cache hole where a transient hazard (link
flap, thermal throttle-and-release) leaves the *key* identical while
the world the entry was computed in has changed: route hop counts
depend on the failed-link set even when the serving/reroute sets are
unchanged, so any health transition conservatively invalidates.

``MealibSystem(schedule_cache=True)`` turns the cache on and wires all
five hook sources; the default (``None``) keeps the configuration unit
byte-identical to a cache-free build. The serving runtime additionally
tags each dispatched call with its tenant (:meth:`ScheduleCache.
set_tenant`), so hit/stale/capacity-eviction rates are reported per
tenant (:attr:`ScheduleCache.tenant_stats`) alongside the global
counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config_unit import DescriptorExecution, PassPlan

#: Hazard domains, each with its own invalidation epoch.
EPOCH_DOMAINS = ("health", "thermal", "scrub", "fault")


@dataclass
class ScheduleCacheStats:
    """Hit/miss/invalidation accounting of one schedule cache."""

    hits: int = 0
    misses: int = 0
    stale_evictions: int = 0        # key matched, epochs did not
    capacity_evictions: int = 0     # LRU overflow
    invalidations: Dict[str, int] = field(
        default_factory=lambda: {d: 0 for d in EPOCH_DOMAINS})

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0
        self.capacity_evictions = 0
        self.invalidations = {d: 0 for d in EPOCH_DOMAINS}


@dataclass
class ScheduleEntry:
    """One cached descriptor schedule: decoded plans + the modelled
    execution decomposition, stamped with the epoch vector it was
    computed under."""

    plans: List[PassPlan]
    execution: DescriptorExecution
    epochs: Tuple[int, ...]

    def replay(self) -> DescriptorExecution:
        """A fresh :class:`DescriptorExecution` carrying the cached
        decomposition."""
        return _copy_execution(self.execution, cache_hit=True)


def _copy_execution(ex: DescriptorExecution,
                    cache_hit: bool) -> DescriptorExecution:
    """``ex`` with its containers copied, so a cached template and the
    executions stored from or replayed out of it never alias. (Built
    from ``vars`` rather than ``dataclasses.replace``, which costs
    about three times as much on the replay path.)"""
    return DescriptorExecution(**{
        **vars(ex), "by_accelerator": dict(ex.by_accelerator),
        "overheads": dict(ex.overheads),
        "vault_heat": (dict(ex.vault_heat)
                       if ex.vault_heat is not None else None),
        "cache_hit": cache_hit})


class ScheduleCache:
    """LRU map from descriptor keys to replayable schedule entries."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = ScheduleCacheStats()
        # tenant-tagged accounting: the serving runtime tags lookups
        # and stores with the requesting tenant (set_tenant) and the
        # cache keeps one ScheduleCacheStats per tag next to the
        # global one. No tag (the default) costs nothing.
        self.tenant_stats: Dict[str, ScheduleCacheStats] = {}
        self._tenant: Optional[str] = None
        self._epochs: Dict[str, int] = {d: 0 for d in EPOCH_DOMAINS}
        self._entries: "OrderedDict[Hashable, ScheduleEntry]" = \
            OrderedDict()

    # -- tenant tagging --------------------------------------------------------

    def set_tenant(self, tenant: Optional[str]) -> None:
        """Tag subsequent lookups/stores with ``tenant`` (``None``
        clears the tag). The serving runtime brackets each dispatched
        call with this so hit/stale/eviction rates attribute per
        tenant."""
        self._tenant = tenant

    def stats_for(self, tenant: str) -> ScheduleCacheStats:
        """The tagged stats of one tenant (created zeroed on first
        use)."""
        return self.tenant_stats.setdefault(tenant,
                                            ScheduleCacheStats())

    def _tagged(self) -> Optional[ScheduleCacheStats]:
        if self._tenant is None:
            return None
        return self.stats_for(self._tenant)

    # -- epochs / invalidation ------------------------------------------------

    def epoch_snapshot(self) -> Tuple[int, ...]:
        """The current epoch vector, in :data:`EPOCH_DOMAINS` order."""
        return tuple(self._epochs[d] for d in EPOCH_DOMAINS)

    def invalidate(self, domain: str) -> None:
        """Bump one hazard domain's epoch: every entry stored under an
        older vector is now stale and will be caught at lookup."""
        if domain not in self._epochs:
            raise KeyError(f"unknown epoch domain {domain!r}; "
                           f"expected one of {EPOCH_DOMAINS}")
        self._epochs[domain] += 1
        self.stats.invalidations[domain] += 1

    def invalidate_health(self) -> None:
        self.invalidate("health")

    def invalidate_thermal(self) -> None:
        self.invalidate("thermal")

    def invalidate_scrub(self) -> None:
        self.invalidate("scrub")

    def invalidate_fault(self) -> None:
        self.invalidate("fault")

    # -- lookup / store --------------------------------------------------------

    def lookup(self, key: Hashable) -> Optional[ScheduleEntry]:
        """The live entry for ``key``, or ``None``.

        A key match with a stale epoch vector is evicted (and counted
        in ``stats.stale_evictions``) — it is never replayed.
        """
        tagged = self._tagged()
        entry = self._entries.get(key)
        if entry is not None and entry.epochs != self.epoch_snapshot():
            del self._entries[key]
            self.stats.stale_evictions += 1
            if tagged is not None:
                tagged.stale_evictions += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            if tagged is not None:
                tagged.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if tagged is not None:
            tagged.hits += 1
        return entry

    def store(self, key: Hashable, plans: Sequence[PassPlan],
              execution: DescriptorExecution) -> None:
        """Cache one freshly simulated execution under ``key``.

        The execution is snapshotted (containers copied) so later
        caller-side mutation of the returned object cannot corrupt the
        cached template.
        """
        self._entries[key] = ScheduleEntry(
            plans=list(plans),
            execution=_copy_execution(execution, cache_hit=False),
            epochs=self.epoch_snapshot())
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.capacity_evictions += 1
            tagged = self._tagged()
            if tagged is not None:
                # charged to the storing tenant: its store displaced
                # the LRU victim
                tagged.capacity_evictions += 1

    def clear(self) -> None:
        """Drop every entry (epochs and stats are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

"""The assembled accelerator layer.

Bundles one instance of every Table 1 accelerator, the 4x4 mesh NoC, and
the per-vault tiles; provides the registry the configuration unit
dispatches on and the area/power accounting behind Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.accel.axpy import AxpyAccelerator
from repro.accel.base import AcceleratorCore, DEFAULT_FREQ_HZ, DEFAULT_TILES
from repro.accel.dot import DotAccelerator
from repro.accel.fft import FftAccelerator
from repro.accel.gemv import GemvAccelerator
from repro.accel.noc import MeshNoc, NocUnreachableError
from repro.accel.reshp import ReshpAccelerator
from repro.accel.resmp import ResmpAccelerator
from repro.accel.spmv import SpmvAccelerator
from repro.accel.synthesis import AREA_TSV_ARRAY
from repro.accel.tile import Tile, make_tiles

ACCELERATOR_TYPES = (
    AxpyAccelerator, DotAccelerator, GemvAccelerator, SpmvAccelerator,
    ResmpAccelerator, FftAccelerator, ReshpAccelerator,
)

#: One default core of each accelerator, by name, for what depends on
#: parameters alone: operation profiles and operand declarations.
CORES: Dict[str, AcceleratorCore] = {
    cls.name: cls() for cls in ACCELERATOR_TYPES}


@dataclass(frozen=True)
class ComponentBudget:
    """One row of Table 5."""

    component: str
    power_w: Optional[float]
    area_mm2: Optional[float]


class AcceleratorLayer:
    """All deployed accelerators plus tiles and NoC."""

    def __init__(self, tiles: int = DEFAULT_TILES,
                 freq_hz: float = DEFAULT_FREQ_HZ):
        self.freq_hz = freq_hz
        self.noc = MeshNoc()
        self.tiles: Dict[int, Tile] = make_tiles(tiles)
        self.accelerators: Dict[str, AcceleratorCore] = {}
        # Optional ThermalModel (repro.thermal.rc). When attached, the
        # reroute-target choice prefers the coolest serving tile among
        # the minimal-distance candidates; None (the default) keeps the
        # purely topological choice — the golden-baseline guarantee.
        self.thermal: Optional[object] = None
        for accel_type in ACCELERATOR_TYPES:
            core = accel_type(tiles=tiles, freq_hz=freq_hz)
            self.accelerators[core.name] = core

    # -- tile health ----------------------------------------------------------

    def mark_tile_failed(self, vault: int) -> None:
        """Hard-fail the tile bonded to ``vault``."""
        self.tiles[vault].mark_failed()

    def repair_tile(self, vault: int) -> None:
        """Return a failed tile to service (thermal recovery)."""
        self.tiles[vault].repair()

    def failed_tiles(self) -> List[int]:
        """Vault indices whose tiles are marked failed, ascending."""
        return sorted(v for v, t in self.tiles.items() if t.failed)

    @property
    def healthy(self) -> bool:
        """True when every tile can still be configured."""
        return not any(t.failed for t in self.tiles.values())

    @property
    def degraded(self) -> bool:
        """True when a tile is dead or a mesh link is failed — the
        layer still runs, but in the partial-degradation regime."""
        return not self.healthy or self.noc.degraded

    def serving_tiles(self) -> List[int]:
        """Tiles that can take part in an accelerated pass: healthy
        tiles inside the largest mesh-connected group of healthy tiles
        (routers of dead tiles still forward traffic, so only *link*
        failures can split the group). Ascending vault order."""
        # make_tiles keys the tiles in ascending vault order
        healthy = [v for v, t in self.tiles.items() if not t.failed]
        if not healthy or not self.noc.degraded:
            return healthy
        healthy_set = set(healthy)
        best: List[int] = []
        seen: set = set()
        for vault in healthy:
            if vault in seen:
                continue
            group = sorted(t for t in self.noc.reachable(vault)
                           if t in healthy_set)
            seen.update(group)
            if len(group) > len(best):
                best = group
        return best

    def reroute_map(self) -> Dict[int, Optional[int]]:
        """Serving tile for every vault whose own tile cannot serve it.

        Maps each degraded vault (dead tile, or healthy tile isolated
        from the serving group) to the nearest serving tile by adaptive
        route hops — the tile its data stripe is rerouted to over
        TSV + mesh. Among equally-near candidates the choice is
        thermal-aware when a thermal model is attached: the *coolest*
        candidate wins (ties broken by lowest tile index, so the pick
        is deterministic); without one, the lowest tile index wins —
        exactly the historical first-found order, preserving the golden
        baselines. ``None`` marks a vault no serving tile can reach;
        one such vault forces the whole descriptor to the host, since
        vault interleaving spreads every operand over every vault.
        """
        serving = self.serving_tiles()
        serving_set = set(serving)
        thermal = self.thermal
        out: Dict[int, Optional[int]] = {}
        for vault in sorted(self.tiles):
            if vault in serving_set:
                continue
            best: Optional[int] = None
            best_key: Optional[tuple] = None
            for tile in serving:
                try:
                    h = self.noc.route_hops(vault, tile)
                except NocUnreachableError:
                    continue
                key = ((h, tile) if thermal is None
                       else (h, thermal.temperature(tile), tile))
                if best_key is None or key < best_key:
                    best, best_key = tile, key
            out[vault] = best
        return out

    # -- vault-bandwidth contention -------------------------------------------

    def contention_slowdown(self, streams: int) -> float:
        """Pass-time stretch factor when ``streams`` descriptor
        streams share the stack concurrently.

        Every Table 1 accelerator saturates its vault's TSV bus on its
        own (the same convention behind :meth:`peak_layer_power`:
        accelerators never profitably run concurrently because each
        fills the stack's bandwidth), so ``k`` co-running passes
        time-share every vault bus and each drain takes ``k`` times
        its solo duration. The serving runtime prices the stretch into
        the ``contention`` ledger category; 1 stream means no sharing
        and exactly factor 1.0.
        """
        if streams < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        return float(streams)

    def accelerator(self, name: str) -> AcceleratorCore:
        try:
            return self.accelerators[name]
        except KeyError:
            raise KeyError(
                f"no accelerator named {name!r}; deployed: "
                f"{sorted(self.accelerators)}")

    def by_opcode(self, opcode: int) -> AcceleratorCore:
        for core in self.accelerators.values():
            if core.opcode == opcode:
                return core
        raise KeyError(f"no accelerator with opcode {opcode}")

    @property
    def names(self) -> List[str]:
        return sorted(self.accelerators)

    # -- Table 5 accounting ---------------------------------------------------

    def layer_area_mm2(self) -> float:
        """Total area of accelerator-layer components (RESHP excluded —
        it lives on the DRAM logic layer)."""
        area = sum(core.area_mm2() for core in self.accelerators.values()
                   if core.name != "RESHP")
        return area + self.noc.area_mm2 + AREA_TSV_ARRAY

    def peak_layer_power(self, dram_power_by_accel: Dict[str, float]
                         ) -> float:
        """The Table 5 'total' convention: accelerators never run
        concurrently (each saturates the stack), so layer power is the
        hungriest accelerator (logic + DRAM) plus the NoC."""
        worst = max(
            core.logic_power(self.freq_hz)
            + dram_power_by_accel.get(core.name, 0.0)
            for core in self.accelerators.values())
        return worst + self.noc.power

"""One accelerator tile: PEs + local memory + network controller.

Each tile sits under one vault controller (Figure 4). Its PEs are the
accelerators a pass activates; a chained pass hands intermediates from
one PE to the next through the tile's local memory. The model keeps
only what it prices: whether the tile's logic is alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


class TileFailedError(Exception):
    """No accelerator tile can serve the descriptor: every tile is
    dead, or link failures cut the survivors off from a vault whose
    stripe they would have to serve. A *single* dead tile no longer
    raises — its vault stripe is rerouted to the healthy tiles."""


@dataclass
class Tile:
    """A vault-attached accelerator tile.

    Attributes:
        vault: index of the vault this tile is bonded to.
        local_memory_kb: shared LM capacity of the tile.
        failed: the tile's logic is dead; it can no longer serve a
            pass. Its vault's DRAM (and mesh router) stay alive, so the
            vault's data stripe is served by the remaining healthy
            tiles over TSV + mesh instead of taking the whole
            accelerated path down.
    """

    vault: int
    local_memory_kb: int = 64
    failed: bool = False

    def mark_failed(self) -> None:
        """Hard-fail the tile (injected or detected by self-test)."""
        self.failed = True

    def repair(self) -> None:
        """Return a failed tile to service.

        Used by the thermal governor when a vault it took offline cools
        back below its release threshold; an injected hard failure is
        never repaired (the injector does not call this).
        """
        self.failed = False


def make_tiles(count: int = 16, local_memory_kb: int = 64
               ) -> Dict[int, Tile]:
    """The standard one-tile-per-vault arrangement."""
    return {v: Tile(vault=v, local_memory_kb=local_memory_kb)
            for v in range(count)}

"""The accelerator-layer mesh network (Figure 4's NC grid).

Sixteen tiles in a 4x4 mesh, XY-routed when fully healthy. The NoC
carries inter-tile traffic for chained passes, the DOT reduction tree,
and (since the partial-degradation model) rerouted vault stripes; its
power and area enter Table 5 (1.44 mm^2, 0.095 W in the paper).

Partial degradation: individual mesh links can fail (or flap) without
taking the whole layer down. A mutable :class:`LinkHealth` overlay
records dead links, and :meth:`MeshNoc.route` runs a minimal-adaptive
router over the healthy links — it prefers the XY dimension-order
moves (west-first flavour) and detours, minimally when possible, around
failures. Transfer time/energy then reflect the detoured hop paths, and
:meth:`MeshNoc.bisection_bandwidth` reports the degraded cross-mesh
bandwidth the rerouted stripes drain through.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.accel.synthesis import noc_area, noc_power

#: An undirected mesh link between two adjacent routers, as a
#: normalised ``(low, high)`` tile-index pair.
Link = Tuple[int, int]


class NocUnreachableError(Exception):
    """No healthy path exists between two routers of the mesh (link
    failures disconnected them)."""

    def __init__(self, src: int, dst: int, failed: FrozenSet[Link]):
        self.src = src
        self.dst = dst
        self.failed = failed
        super().__init__(
            f"no healthy route from tile {src} to tile {dst} "
            f"({len(failed)} failed links)")


def _link(a: int, b: int) -> Link:
    return (a, b) if a <= b else (b, a)


@dataclass
class LinkHealth:
    """Mutable health overlay of the mesh links.

    The :class:`MeshNoc` itself stays a frozen value object; all
    degradation state lives here so a fault campaign can fail and
    restore links on a shared mesh instance.
    """

    _failed: Set[Link] = field(default_factory=set)

    def fail(self, a: int, b: int) -> None:
        self._failed.add(_link(a, b))

    def restore(self, a: int, b: int) -> None:
        self._failed.discard(_link(a, b))

    def restore_all(self) -> None:
        self._failed.clear()

    def is_healthy(self, a: int, b: int) -> bool:
        return _link(a, b) not in self._failed

    @property
    def failed_links(self) -> FrozenSet[Link]:
        return frozenset(self._failed)

    @property
    def degraded(self) -> bool:
        return bool(self._failed)


@dataclass(frozen=True)
class MeshNoc:
    """A rows x cols mesh of routers with XY dimension-order routing.

    Attributes:
        rows / cols: mesh shape (4x4 for 16 vault tiles).
        link_bw: per-link bandwidth, bytes/s.
        hop_latency: per-hop router+link latency, seconds.
        energy_per_byte_hop: transport energy, joules per byte per hop.
        health: mutable link-health overlay (excluded from equality —
            two meshes of the same geometry are the same mesh).
    """

    rows: int = 4
    cols: int = 4
    link_bw: float = 32e9
    hop_latency: float = 2e-9
    energy_per_byte_hop: float = 1.0e-12
    health: LinkHealth = field(default_factory=LinkHealth,
                               compare=False, repr=False)

    @property
    def tiles(self) -> int:
        return self.rows * self.cols

    def coords(self, tile: int):
        if not 0 <= tile < self.tiles:
            raise ValueError(f"tile {tile} outside {self.tiles}-tile mesh")
        return divmod(tile, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """XY-routing hop count between two tiles (failure-blind)."""
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    # -- link topology and health ---------------------------------------------

    def links(self) -> List[Link]:
        """Every undirected link of the mesh, normalised and sorted."""
        out: List[Link] = []
        for tile in range(self.tiles):
            r, c = divmod(tile, self.cols)
            if c + 1 < self.cols:
                out.append((tile, tile + 1))
            if r + 1 < self.rows:
                out.append((tile, tile + self.cols))
        return out

    def healthy_links(self) -> List[Link]:
        return [l for l in self.links() if self.health.is_healthy(*l)]

    @property
    def failed_links(self) -> FrozenSet[Link]:
        return self.health.failed_links

    @property
    def degraded(self) -> bool:
        return self.health.degraded

    def fail_link(self, a: int, b: int) -> None:
        """Mark the link between adjacent tiles ``a`` and ``b`` failed."""
        self.coords(a), self.coords(b)
        if self.hops(a, b) != 1:
            raise ValueError(f"tiles {a} and {b} are not mesh-adjacent")
        self.health.fail(a, b)

    def restore_link(self, a: int, b: int) -> None:
        """Bring a failed link back (repair, or the end of a flap)."""
        self.health.restore(a, b)

    def _neighbors(self, tile: int, dst: int) -> List[int]:
        """Healthy neighbours of ``tile``, in minimal-adaptive
        preference order: the X move toward ``dst`` first (the
        west-first flavour of dimension order), then the Y move toward
        it, then the non-productive directions as escapes."""
        r, c = divmod(tile, self.cols)
        rd, cd = divmod(dst, self.cols)
        productive: List[int] = []
        escape: List[int] = []
        if cd < c:
            productive.append(tile - 1)
        elif cd > c:
            productive.append(tile + 1)
        if rd < r:
            productive.append(tile - self.cols)
        elif rd > r:
            productive.append(tile + self.cols)
        for cand in (tile - 1, tile + 1, tile - self.cols,
                     tile + self.cols):
            rr, cc = divmod(cand, self.cols)
            if (0 <= cand < self.tiles and abs(rr - r) + abs(cc - c) == 1
                    and cand not in productive):
                escape.append(cand)
        order = productive + escape
        return [n for n in order if self.health.is_healthy(tile, n)]

    def route(self, src: int, dst: int) -> List[int]:
        """Hop path from ``src`` to ``dst`` over healthy links only.

        Minimal-adaptive: a breadth-first search whose neighbour order
        prefers the XY dimension-order moves, so the fault-free route
        is the minimal XY path and detours grow only as far as the
        failures force them. The returned path is loop-free by
        construction. Raises :class:`NocUnreachableError` when the
        failures disconnect the pair.
        """
        self.coords(src), self.coords(dst)
        if src == dst:
            return [src]
        parent: Dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            tile = queue.popleft()
            for nxt in self._neighbors(tile, dst):
                if nxt in parent:
                    continue
                parent[nxt] = tile
                if nxt == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(nxt)
        raise NocUnreachableError(src, dst, self.failed_links)

    def route_hops(self, src: int, dst: int) -> int:
        """Hop count of the adaptive route (== :meth:`hops` when no
        link is failed)."""
        if not self.health.degraded:
            return self.hops(src, dst)
        return len(self.route(src, dst)) - 1

    def hops_batch(self, srcs: "np.ndarray", dst: int) -> "np.ndarray":
        """XY hop counts from every tile in ``srcs`` to ``dst`` in one
        vectorized Manhattan-distance evaluation (failure-blind)."""
        srcs = np.asarray(srcs, dtype=np.int64)
        if srcs.size and (int(srcs.min()) < 0
                          or int(srcs.max()) >= self.tiles):
            raise ValueError(f"tile outside {self.tiles}-tile mesh")
        rd, cd = self.coords(dst)
        rows, cols = np.divmod(srcs, self.cols)
        return np.abs(rows - rd) + np.abs(cols - cd)

    def route_hops_batch(self, srcs: "np.ndarray", dst: int
                         ) -> "np.ndarray":
        """:meth:`route_hops` over an array of sources: the vectorized
        Manhattan kernel when every link is healthy, falling back to
        per-pair adaptive routing only in the degraded regime."""
        if not self.health.degraded:
            return self.hops_batch(srcs, dst)
        return np.array([len(self.route(int(s), dst)) - 1 for s in srcs],
                        dtype=np.int64)

    def reachable(self, src: int) -> Set[int]:
        """All tiles reachable from ``src`` over healthy links."""
        self.coords(src)
        seen = {src}
        queue = deque([src])
        while queue:
            tile = queue.popleft()
            for nxt in self._neighbors(tile, tile):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    # -- transfers -------------------------------------------------------------

    def transfer_time(self, n_bytes: int, src: int, dst: int) -> float:
        """Latency + serialisation of one tile-to-tile transfer, along
        the adaptive route when links are failed."""
        h = self.route_hops(src, dst)
        if h == 0:
            return 0.0
        return h * self.hop_latency + n_bytes / self.link_bw

    def transfer_energy(self, n_bytes: int, src: int, dst: int) -> float:
        return n_bytes * self.route_hops(src, dst) * self.energy_per_byte_hop

    def bisection_bandwidth(self) -> float:
        """Aggregate bandwidth across the narrower mesh bisection,
        counting only healthy links — the ceiling rerouted vault
        stripes drain through."""
        col_cut = self.cols // 2
        row_cut = self.rows // 2
        vertical = sum(
            1 for r in range(self.rows)
            if self.health.is_healthy(r * self.cols + col_cut - 1,
                                      r * self.cols + col_cut)
        ) if col_cut else 0
        horizontal = sum(
            1 for c in range(self.cols)
            if self.health.is_healthy((row_cut - 1) * self.cols + c,
                                      row_cut * self.cols + c)
        ) if row_cut else 0
        cuts = [n for n, exists in ((vertical, col_cut),
                                    (horizontal, row_cut)) if exists]
        return min(cuts) * self.link_bw if cuts else 0.0

    @property
    def power(self) -> float:
        return noc_power(self.tiles)

    @property
    def area_mm2(self) -> float:
        return noc_area(self.tiles)

    def mean_hops(self) -> float:
        """Average hop distance over all tile pairs (for reductions)."""
        if self.tiles < 2:
            return 0.0
        rows, cols = np.divmod(np.arange(self.tiles), self.cols)
        total = (np.abs(rows[:, None] - rows[None, :]).sum()
                 + np.abs(cols[:, None] - cols[None, :]).sum())
        return int(total) / (self.tiles * (self.tiles - 1))

"""Differential tests for the vectorized NoC hop kernels.

``hops_batch``/``route_hops_batch``/``mean_hops`` must agree exactly
with the retained per-pair scalar paths (``hops``/``route_hops``),
healthy and degraded, and the health-change hook must fire only on
genuine link-state transitions.
"""

import numpy as np
import pytest

from repro.accel import MeshNoc, NocUnreachableError


def test_hops_batch_matches_scalar_all_pairs():
    noc = MeshNoc()
    srcs = np.arange(noc.tiles)
    for dst in range(noc.tiles):
        got = noc.hops_batch(srcs, dst)
        assert got.dtype == np.int64
        assert got.tolist() == [noc.hops(s, dst) for s in range(noc.tiles)]


def test_hops_batch_accepts_lists_and_empty():
    noc = MeshNoc()
    assert noc.hops_batch([5, 0, 5], 5).tolist() == [0, 2, 0]
    assert noc.hops_batch(np.array([], dtype=np.int64), 0).size == 0


def test_hops_batch_rejects_out_of_range():
    noc = MeshNoc()
    with pytest.raises(ValueError):
        noc.hops_batch([0, noc.tiles], 0)
    with pytest.raises(ValueError):
        noc.hops_batch([-1], 0)


def test_route_hops_batch_healthy_matches_scalar():
    noc = MeshNoc()
    srcs = np.arange(noc.tiles)
    for dst in range(noc.tiles):
        assert noc.route_hops_batch(srcs, dst).tolist() == [
            noc.route_hops(s, dst) for s in range(noc.tiles)]


@pytest.mark.parametrize("seed", range(6))
def test_route_hops_batch_degraded_matches_scalar(seed):
    noc = MeshNoc()
    rng = np.random.default_rng(seed)
    links = noc.links()
    for i in rng.choice(len(links), size=4, replace=False):
        noc.fail_link(*links[int(i)])
    for dst in range(noc.tiles):
        reachable = [s for s in range(noc.tiles)
                     if dst in noc.reachable(s)]
        got = noc.route_hops_batch(np.array(reachable), dst)
        assert got.tolist() == [noc.route_hops(s, dst) for s in reachable]


def test_route_hops_batch_degraded_unreachable_raises():
    noc = MeshNoc()
    noc.fail_link(0, 1)
    noc.fail_link(0, 4)               # tile 0 fully severed
    with pytest.raises(NocUnreachableError):
        noc.route_hops_batch(np.array([3, 0]), 15)


def test_mean_hops_matches_double_loop():
    for noc in (MeshNoc(), MeshNoc(rows=2, cols=3), MeshNoc(rows=1,
                                                            cols=1)):
        total = sum(noc.hops(a, b) for a in range(noc.tiles)
                    for b in range(noc.tiles) if a != b)
        pairs = noc.tiles * (noc.tiles - 1)
        want = total / pairs if pairs else 0.0
        assert noc.mean_hops() == want

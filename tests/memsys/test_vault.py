"""Unit tests for the vault controller (FR-FCFS-lite scheduling)."""

import numpy as np
import pytest

from repro.memsys.timing import HMC_VAULT
from repro.memsys.vault import VaultController
from tests.memsys.helpers import service


def seq_requests(n, banks=8, per_row=64):
    reqs = []
    for i in range(n):
        bank = (i // 8) % banks
        row = i // (8 * banks)
        reqs.append((bank, row, False))
    return reqs


def test_empty_trace():
    vc = VaultController(HMC_VAULT)
    res = service(vc, [])
    assert res.finish_time == 0.0
    assert res.stats.accesses == 0


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        VaultController(HMC_VAULT, window=0)


@pytest.mark.parametrize("window, error", [
    (-3, ValueError), (2.5, TypeError), (4.0, TypeError),
    (True, TypeError), (float("nan"), TypeError), ("3", TypeError),
    (None, TypeError)])
def test_bad_window_rejected_by_name(window, error):
    # a NaN window would make the reorder scan never run, silently
    # turning FR-FCFS into FIFO
    with pytest.raises(error, match="window"):
        VaultController(HMC_VAULT, window=window)


def test_numpy_int_window_drains_like_int():
    reqs = seq_requests(300)[::-1]
    want = service(VaultController(HMC_VAULT, window=4), reqs)
    got = service(VaultController(HMC_VAULT, window=np.int64(4)), reqs)
    assert got == want
    assert type(VaultController(HMC_VAULT, np.int32(4)).window) is int


def test_all_requests_serviced():
    vc = VaultController(HMC_VAULT)
    res = service(vc, seq_requests(100))
    assert res.stats.accesses == 100


def test_sequential_rate_near_bus_peak():
    vc = VaultController(HMC_VAULT)
    n = 2048
    res = service(vc, seq_requests(n))
    bw = n * HMC_VAULT.burst_bytes / res.finish_time
    assert bw > 0.8 * HMC_VAULT.peak_bandwidth


def test_reordering_recovers_row_hits():
    """Interleaved rows on one bank thrash without reordering; the FR-FCFS
    window should recover some hits relative to window=1."""
    pattern = []
    for i in range(256):
        pattern.append((0, i % 2, False))       # ping-pong rows on bank 0
        pattern.append((1, 0, False))           # plus a well-behaved bank
    fifo = service(VaultController(HMC_VAULT, window=1), list(pattern))
    frfcfs = service(VaultController(HMC_VAULT, window=8), list(pattern))
    assert frfcfs.finish_time <= fifo.finish_time
    assert frfcfs.stats.row_hit_rate >= fifo.stats.row_hit_rate


def test_single_request_latency_reasonable():
    vc = VaultController(HMC_VAULT)
    res = service(vc, [(0, 0, False)])
    t = HMC_VAULT
    expected = t.t_rcd + t.t_cas + t.t_burst
    assert res.finish_time == pytest.approx(expected)


def test_bank_parallelism_beats_single_bank():
    n = 512
    one_bank = [(0, i // 8, False) for i in range(n)]
    many_banks = seq_requests(n)
    r1 = service(VaultController(HMC_VAULT), one_bank)
    r2 = service(VaultController(HMC_VAULT), many_banks)
    assert r2.finish_time <= r1.finish_time

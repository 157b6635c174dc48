"""Unit tests for the reference per-bank row-buffer FSM and the event
counters."""

import pytest

from repro.memsys.result import BankStats
from repro.memsys.timing import HMC_VAULT
from tests.memsys.helpers import Bank


@pytest.fixture
def bank():
    return Bank(HMC_VAULT)


def test_first_access_is_row_miss(bank):
    bank.access(row=5, is_write=False, now=0.0, bus_free_at=0.0)
    assert bank.stats.row_misses == 1
    assert bank.stats.activates == 1
    assert bank.open_row == 5


def test_second_access_same_row_is_hit(bank):
    bank.access(5, False, 0.0, 0.0)
    bank.access(5, False, 0.0, 0.0)
    assert bank.stats.row_hits == 1
    assert bank.stats.row_misses == 1


def test_row_switch_is_miss_and_reactivates(bank):
    bank.access(5, False, 0.0, 0.0)
    bank.access(6, False, 0.0, 0.0)
    assert bank.stats.activates == 2
    assert bank.open_row == 6


def test_hit_is_faster_than_miss(bank):
    t_miss = bank.access(5, False, 0.0, 0.0)
    t_hit = bank.access(5, False, t_miss, t_miss) - t_miss
    other = Bank(HMC_VAULT)
    other.access(1, False, 0.0, 0.0)
    t2 = other.access(2, False, t_miss, t_miss) - t_miss
    assert t_hit < t2


def test_miss_pays_at_least_rcd_cas_burst(bank):
    finish = bank.access(0, False, 0.0, 0.0)
    t = HMC_VAULT
    assert finish >= t.t_rcd + t.t_cas + t.t_burst


def test_row_miss_on_open_row_pays_precharge(bank):
    f1 = bank.access(0, False, 0.0, 0.0)
    f2 = bank.access(1, False, f1, f1)
    t = HMC_VAULT
    assert f2 - f1 >= t.t_rp + t.t_rcd + t.t_cas + t.t_burst - 1e-15


def test_bus_contention_delays_data(bank):
    # the bus is busy far in the future; data cannot start before that
    finish = bank.access(0, False, 0.0, bus_free_at=1e-6)
    assert finish >= 1e-6 + HMC_VAULT.t_burst


def test_writes_counted(bank):
    bank.access(0, True, 0.0, 0.0)
    assert bank.stats.writes == 1
    assert bank.stats.reads == 0


def test_ccd_limits_back_to_back_hits(bank):
    f1 = bank.access(0, False, 0.0, 0.0)
    f2 = bank.access(0, False, 0.0, f1)
    # second column command cannot issue earlier than tCCD after the first
    assert f2 >= f1


def test_monotonic_finish_times(bank):
    last = 0.0
    for i in range(50):
        last_new = bank.access(i % 3, bool(i % 2), last, last)
        assert last_new >= last
        last = last_new


def test_stats_merge():
    a = BankStats(activates=1, row_hits=2, row_misses=3, reads=4, writes=5)
    b = BankStats(activates=10, row_hits=20, row_misses=30, reads=40,
                  writes=50)
    a.merge(b)
    assert (a.activates, a.row_hits, a.row_misses, a.reads, a.writes) == (
        11, 22, 33, 44, 55)
    assert a.accesses == 99


def test_hit_rate():
    s = BankStats(row_hits=3, row_misses=1)
    assert s.row_hit_rate == pytest.approx(0.75)
    assert BankStats().row_hit_rate == 0.0

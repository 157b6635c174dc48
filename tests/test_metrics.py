"""Shared metric helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (ExecResult, ZERO, edp_gain, efficiency_gain,
                           gbytes_per_s, gflops, gflops_per_watt,
                           speedup)


def test_power_and_edp():
    r = ExecResult(time=2.0, energy=10.0)
    assert r.power == 5.0
    assert r.edp == 20.0


def test_zero_result():
    assert ZERO.power == 0.0
    assert ZERO.edp == 0.0


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExecResult(time=-1.0, energy=0.0)
    with pytest.raises(ValueError):
        ExecResult(time=1.0, energy=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
def test_non_finite_rejected_naming_the_field(bad):
    with pytest.raises(ValueError, match="^time "):
        ExecResult(time=bad, energy=1.0)
    with pytest.raises(ValueError, match="^energy "):
        ExecResult(time=1.0, energy=bad)


def test_ints_and_zero_accepted():
    assert ExecResult(2, 3) == ExecResult(2.0, 3.0)
    assert ExecResult(0, 0.0) == ZERO


def test_plus_and_repeated():
    a = ExecResult(1.0, 2.0)
    b = ExecResult(3.0, 4.0)
    assert a.plus(b) == ExecResult(4.0, 6.0)
    assert a.repeated(3) == ExecResult(3.0, 6.0)
    with pytest.raises(ValueError):
        a.repeated(-1)


def test_metric_helpers():
    r = ExecResult(time=0.5, energy=5.0)
    assert gflops(1e9, r) == pytest.approx(2.0)
    assert gbytes_per_s(1e9, r) == pytest.approx(2.0)
    assert gflops_per_watt(1e9, r) == pytest.approx(0.2)


def test_speedup_and_gains():
    base = ExecResult(time=10.0, energy=100.0)
    fast = ExecResult(time=2.0, energy=10.0)
    assert speedup(base, fast) == 5.0
    assert efficiency_gain(base, fast) == 10.0
    assert edp_gain(base, fast) == pytest.approx(50.0)


def test_gain_guards():
    with pytest.raises(ValueError):
        speedup(ExecResult(1, 1), ZERO)
    with pytest.raises(ValueError):
        efficiency_gain(ExecResult(1, 1), ZERO)
    with pytest.raises(ValueError):
        edp_gain(ExecResult(1, 1), ZERO)


@given(st.floats(min_value=1e-9, max_value=1e3),
       st.floats(min_value=1e-9, max_value=1e3))
def test_plus_commutes(t, e):
    a = ExecResult(t, e)
    b = ExecResult(e, t)
    assert a.plus(b) == b.plus(a)

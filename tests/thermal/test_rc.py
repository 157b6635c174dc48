"""RC-integrator battery: physics properties the governor relies on.

The load-bearing properties: with zero power the network cools
*monotonically* to ambient (never below — the heatsink is an infinite
reservoir); under constant power every node settles to a bounded steady
state; halving the integration step does not change the trajectory
beyond tolerance (the integrator is converged, not dt-lucky); and the
Arrhenius factor is clamped to ``[1, cap]``.
"""

import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from repro.thermal import AMBIENT_K, ThermalConfig, ThermalModel


def make_model(**overrides):
    return ThermalModel(ThermalConfig(**overrides))


# -- config validation --------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(c_vault=0.0), dict(c_logic=-1.0), dict(g_sink=0.0),
    dict(g_lat=-0.1), dict(dt=0.0), dict(throttle_factor=0.0),
    dict(throttle_factor=1.5), dict(hysteresis=-1.0),
    dict(critical=340.0, envelope=350.0), dict(arrhenius_cap=0.5),
    dict(leak_doubling=0.0), dict(arrhenius_doubling=0.0),
    dict(dt=float("nan")), dict(ambient=float("nan")),
    dict(envelope=float("nan")), dict(c_vault=float("inf")),
    dict(ambient=-5.0), dict(ambient=0.0),
    dict(vault_envelopes={3: float("nan")}),
])
def test_config_rejects_invalid_knobs(bad):
    with pytest.raises(ValueError):
        ThermalConfig(**bad)


#: Non-numbers and the type error each must raise; non-finite and
#: negative numbers and the value error.
BAD_KNOB_VALUES = [(True, TypeError), (False, TypeError), ("1", TypeError),
                   (None, TypeError), (float("nan"), ValueError),
                   (float("inf"), ValueError), (-1.0, ValueError)]

SCALAR_KNOBS = [f.name for f in fields(ThermalConfig)
                if f.default_factory is MISSING]
OVERRIDE_KNOBS = [f.name for f in fields(ThermalConfig)
                  if f.default_factory is not MISSING]


@pytest.mark.parametrize("value, error", BAD_KNOB_VALUES)
@pytest.mark.parametrize("name", SCALAR_KNOBS)
def test_config_names_the_bad_knob(name, value, error):
    with pytest.raises(error, match=name):
        ThermalConfig(**{name: value})


@pytest.mark.parametrize("value, error", BAD_KNOB_VALUES)
@pytest.mark.parametrize("name", OVERRIDE_KNOBS)
def test_config_names_the_bad_override(name, value, error):
    with pytest.raises(error, match=re.escape(f"{name}[3]")):
        ThermalConfig(**{name: {3: value}})


@pytest.mark.parametrize("value", [None, "x", 348.0, [348.0]])
@pytest.mark.parametrize("name", OVERRIDE_KNOBS)
def test_config_overrides_must_be_mappings(name, value):
    with pytest.raises(TypeError, match=name):
        ThermalConfig(**{name: value})


def test_config_accepts_integer_knobs():
    assert ThermalConfig(envelope=350, critical=370).critical_of(0) == 370


def test_per_vault_overrides_win():
    cfg = ThermalConfig(envelope=348.0, critical=368.0,
                        vault_envelopes={3: 330.0},
                        vault_criticals={3: 335.0})
    assert cfg.envelope_of(3) == 330.0
    assert cfg.critical_of(3) == 335.0
    assert cfg.envelope_of(0) == 348.0
    assert cfg.critical_of(0) == 368.0


def test_model_rejects_bad_grid_and_bad_power():
    with pytest.raises(ValueError):
        ThermalModel(ThermalConfig(), vaults=15, cols=4)
    model = make_model()
    with pytest.raises(ValueError):
        model.advance(-1.0)
    with pytest.raises(ValueError):
        model.advance(1e-6, vault_power=[1.0] * 3)
    with pytest.raises(ValueError):
        model.advance(1e-6, vault_power=[-1.0] * 16)
    with pytest.raises(ValueError):
        model.advance(1e-6, logic_power=-1.0)
    # non-finite inputs are typed errors, never a stray OverflowError
    # or a silent NaN state the governor cannot throttle on
    for duration in (float("inf"), float("nan"), float("-inf")):
        with pytest.raises(ValueError):
            model.advance(duration)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            model.advance(1e-6, vault_power=[bad] + [0.0] * 15)
        with pytest.raises(ValueError):
            model.advance(1e-6, logic_power=bad)
    assert model.elapsed == 0.0
    assert np.all(model.temps == AMBIENT_K)


# -- monotone cool-down -------------------------------------------------------


def heat_up(model, watts=2.0, steps=50, dt=5e-6):
    power = [watts] * model.vaults
    for _ in range(steps):
        model.advance(dt, power, logic_power=watts)


def test_zero_power_cools_monotonically_to_ambient():
    model = make_model(p_leak_ref=0.0)
    heat_up(model)
    assert model.max_temp > AMBIENT_K + 1.0
    prev = model.temps.copy()
    prev_logic = model.t_logic
    for _ in range(200):
        model.advance(5e-6)
        assert np.all(model.temps <= prev + 1e-12)
        assert model.t_logic <= prev_logic + 1e-12
        assert np.all(model.temps >= AMBIENT_K)
        assert model.t_logic >= AMBIENT_K
        prev = model.temps.copy()
        prev_logic = model.t_logic
    # long enough and it is back at ambient to solver precision
    for _ in range(100):
        model.advance(50e-6)
    assert model.max_temp == pytest.approx(AMBIENT_K, abs=1e-6)


def test_leakage_feedback_still_relaxes_to_ambient():
    # with leakage on, the zero-*dynamic*-power fixed point sits just
    # above ambient (leakage self-heating), but cooling from a hot
    # start stays monotone down to it
    model = make_model()
    heat_up(model)
    prev = model.max_temp
    for _ in range(300):
        model.advance(10e-6)
        assert model.max_temp <= prev + 1e-12
        prev = model.max_temp
    assert AMBIENT_K <= model.max_temp < AMBIENT_K + 1.0


# -- bounded steady state -----------------------------------------------------


def test_constant_power_reaches_a_bounded_steady_state():
    model = make_model(p_leak_ref=0.0)
    power = [1.0] * model.vaults
    for _ in range(400):
        model.advance(10e-6, power, logic_power=1.0)
    before = model.temps.copy()
    model.advance(10e-6, power, logic_power=1.0)
    # converged: one more step moves nothing measurable
    assert np.allclose(model.temps, before, atol=1e-9)
    # and the steady state is the analytic bound: every watt must leave
    # through g_sink or g_logic_sink, so no node can sit further above
    # ambient than total power over the weakest serial path
    cfg = model.config
    bound = (model.vaults + 1) * 1.0 / min(cfg.g_sink, cfg.g_logic_sink)
    assert model.max_temp < AMBIENT_K + bound


def test_hotter_input_means_hotter_steady_state():
    cool = make_model()
    hot = make_model()
    for _ in range(300):
        cool.advance(10e-6, [0.5] * 16)
        hot.advance(10e-6, [1.0] * 16)
    assert hot.max_temp > cool.max_temp + 0.1


# -- dt invariance ------------------------------------------------------------


def test_halving_dt_changes_nothing_beyond_tolerance():
    coarse = make_model()
    fine = make_model(dt=ThermalConfig().dt / 2.0)
    power = [1.5] * 16
    for _ in range(60):
        coarse.advance(7e-6, power, logic_power=0.8)
        fine.advance(7e-6, power, logic_power=0.8)
    assert fine.max_temp > AMBIENT_K + 1.0     # the run actually heated
    assert np.allclose(coarse.temps, fine.temps, rtol=1e-3)
    assert coarse.t_logic == pytest.approx(fine.t_logic, rel=1e-3)


def test_split_advance_equals_one_advance():
    # advancing one long interval or the same interval in chunks lands
    # on the same trajectory when the internal substep grid divides
    # both durations exactly; binary-representable values make the
    # ceil() step count exact, so the grids coincide bit-for-bit
    dt = 2.0 ** -22                      # ~0.24us, below the clamp
    chunk = 4 * dt
    one = make_model(dt=dt)
    many = make_model(dt=dt)
    power = [2.0] * 16
    one.advance(8 * chunk, power)
    for _ in range(8):
        many.advance(chunk, power)
    assert np.allclose(one.temps, many.temps, rtol=1e-12)
    assert one.elapsed == pytest.approx(many.elapsed)


# -- lateral coupling and peaks ----------------------------------------------


def test_heat_spreads_to_grid_neighbours():
    model = make_model(p_leak_ref=0.0)
    power = [0.0] * 16
    power[5] = 4.0                       # interior vault of the 4x4 grid
    for _ in range(200):
        model.advance(10e-6, power)
    temps = model.temps
    assert temps[5] == model.max_temp
    # its mesh neighbours (1, 4, 6, 9) run warmer than the far corner
    for n in (1, 4, 6, 9):
        assert temps[n] > temps[15] + 1e-3
    assert temps[15] > AMBIENT_K         # but even the far corner warmed


def test_peak_tracking_survives_cooldown():
    model = make_model(p_leak_ref=0.0)
    heat_up(model, watts=3.0)
    peak = model.peak_vault_temp
    assert peak > AMBIENT_K + 1.0
    for _ in range(300):
        model.advance(20e-6)
    assert model.max_temp < peak         # cooled back down...
    assert model.peak_vault_temp == peak  # ...but the peak is remembered
    assert model.peak_temperatures()[0] >= AMBIENT_K


# -- Arrhenius factor ---------------------------------------------------------


def test_arrhenius_factor_is_clamped_and_monotone():
    model = make_model(arrhenius_doubling=10.0, arrhenius_cap=8.0)
    assert model.arrhenius_factor(0) == 1.0          # at ambient
    model.temps[0] = AMBIENT_K + 10.0
    assert model.arrhenius_factor(0) == pytest.approx(2.0)
    model.temps[0] = AMBIENT_K + 20.0
    assert model.arrhenius_factor(0) == pytest.approx(4.0)
    model.temps[0] = AMBIENT_K + 1000.0
    assert model.arrhenius_factor(0) == 8.0          # capped
    assert len(model.arrhenius_factors()) == model.vaults

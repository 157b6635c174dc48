"""Differential battery: :meth:`ThermalModel.advance` against the
reference loop in ``tests/thermal/helpers.py``, bit for bit.

The library loop reorders no float operation; it reuses buffers, flips
the sign of the conductance terms (exact under round-to-nearest) and
stops at a bitwise fixed point of the Euler step map. Seeded random
configurations, grids, powers (zeros included), durations from below
one substep to ~10 ms, and hot and cold starts are chained through
both, comparing every piece of state after every advance. Dedicated
cases pin that the fixed-point exit fires on a long constant-power
advance and does not fire on a short one, and that ``advance`` never
writes into an array a caller took from ``model.temps``.
"""

import math

import numpy as np
import pytest

from repro.thermal import ThermalConfig, ThermalModel
from tests.thermal.helpers import reference_advance

GRIDS = [(16, 4), (8, 4), (4, 2), (6, 3), (9, 3), (1, 1)]
BLOCKS = 10
TRIALS_PER_BLOCK = 30


def state(model):
    return (model.temps.tobytes(), float(model.t_logic).hex(),
            model.peak.tobytes(), float(model.peak_logic).hex(),
            float(model.elapsed).hex())


def random_config(rng):
    def maybe_zero(hi):
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, hi))
    return ThermalConfig(
        ambient=float(rng.uniform(290.0, 340.0)),
        c_vault=float(10 ** rng.uniform(-6.3, -5.0)),
        c_logic=float(10 ** rng.uniform(-5.8, -4.5)),
        g_sink=float(rng.uniform(0.2, 1.0)),
        g_lat=maybe_zero(0.3),
        g_logic=maybe_zero(0.4),
        g_logic_sink=float(rng.uniform(0.5, 3.0)),
        p_leak_ref=maybe_zero(0.15),
        leak_doubling=float(rng.uniform(15.0, 40.0)),
        dt=float(10 ** rng.uniform(-7.0, -5.5)))


def random_power(rng, vaults):
    kind = rng.integers(4)
    if kind == 0:
        return ()
    watts = rng.uniform(0.0, 3.0, vaults)
    watts[rng.random(vaults) < 0.3] = 0.0
    return watts.tolist() if kind == 1 else watts


def random_duration(rng, dt):
    # mostly short advances (a fraction of a substep to a few hundred
    # substeps), sometimes long ones up to ~10 ms of model time
    kind = rng.random()
    top = 200 * dt if kind >= 0.12 else min(
        1e-2, (4000 if kind >= 0.02 else 40000) * dt)
    return float(10 ** rng.uniform(math.log10(0.2 * dt), math.log10(top)))


def run_trial(seed):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng)
    vaults, cols = GRIDS[rng.integers(len(GRIDS))]
    new = ThermalModel(cfg, vaults, cols)
    ref = ThermalModel(cfg, vaults, cols)
    dt = min(cfg.dt, new._dt_stable)
    if rng.random() < 0.5:               # hot start
        hot = cfg.ambient + rng.uniform(0.0, 40.0, vaults)
        new.temps, ref.temps = hot.copy(), hot.copy()
        new.t_logic = ref.t_logic = float(cfg.ambient
                                          + rng.uniform(0.0, 30.0))
    constant = rng.random() < 0.5        # one power for the whole chain
    power = random_power(rng, vaults)
    logic_power = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
    for step in range(int(rng.integers(1, 6))):
        if not constant:
            power = random_power(rng, vaults)
            logic_power = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        duration = random_duration(rng, dt)
        held = new.temps
        snapshot = held.tobytes()
        new.advance(duration, power, logic_power)
        reference_advance(ref, duration, power, logic_power)
        assert state(new) == state(ref), (
            f"seed {seed}, advance {step}: {duration!r} s diverged")
        assert held.tobytes() == snapshot, (
            f"seed {seed}, advance {step}: wrote into the old temps")


@pytest.mark.parametrize("block", range(BLOCKS))
def test_advance_matches_reference_bit_for_bit(block):
    for trial in range(TRIALS_PER_BLOCK):
        run_trial(block * TRIALS_PER_BLOCK + trial)


def test_fixed_point_exit_fires_on_a_long_constant_advance():
    model = ThermalModel(ThermalConfig())
    ref = ThermalModel(ThermalConfig())
    power = [1.0] * 16
    duration = 2e-3                       # 10000 substeps of 0.2 us
    steps = math.ceil(duration / min(model.config.dt, model._dt_stable))
    model.advance(duration, power, logic_power=1.0)
    assert 0 < model.substeps < steps // 2
    reference_advance(ref, duration, power, logic_power=1.0)
    assert state(model) == state(ref)
    # a call that starts on the fixed point stops after one substep
    before = model.substeps
    model.advance(duration, power, logic_power=1.0)
    reference_advance(ref, duration, power, logic_power=1.0)
    assert model.substeps - before == 1
    assert state(model) == state(ref)


def test_fixed_point_exit_does_not_fire_on_a_short_advance():
    model = ThermalModel(ThermalConfig())
    ref = ThermalModel(ThermalConfig())
    dt = min(model.config.dt, model._dt_stable)
    model.advance(20 * dt, [1.0] * 16, logic_power=1.0)
    reference_advance(ref, 20 * dt, [1.0] * 16, logic_power=1.0)
    assert model.substeps == 20
    assert state(model) == state(ref)


def test_advance_never_writes_into_a_held_temps_array():
    model = ThermalModel(ThermalConfig())
    held = model.temps
    model.advance(5e-6, [2.0] * 16, logic_power=1.0)
    assert np.all(held == model.config.ambient)
    assert not np.shares_memory(held, model.temps)
    # writes into the new array are the model's state, as the governor
    # tests rely on, and the next advance leaves that array alone too
    model.temps[3] = model.config.ambient + 50.0
    held = model.temps
    snapshot = held.copy()
    model.advance(5e-6, [2.0] * 16, logic_power=1.0)
    assert np.array_equal(held, snapshot)
    assert not np.shares_memory(held, model.temps)
    assert model.temps[3] > model.temps[0]

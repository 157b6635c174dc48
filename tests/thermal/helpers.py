"""The straightforward explicit-Euler loop of the thermal RC network,
kept as the differential reference for :meth:`ThermalModel.advance`.

The library's loop works in preallocated buffers and stops at a bitwise
fixed point of the step map; this one allocates every temporary, adds
``g·(ambient − T)`` terms as written in the physics, and always runs
every substep. Both must produce the same floats bit for bit.
"""

from typing import Sequence

import numpy as np

from repro.thermal import ThermalConfig, ThermalModel


def leakage(cfg: ThermalConfig, temps: np.ndarray) -> np.ndarray:
    """Per-vault leakage power at the given temperatures, W."""
    if cfg.p_leak_ref <= 0.0:
        return np.zeros_like(temps)
    return cfg.p_leak_ref * np.exp2(
        (temps - cfg.ambient) / cfg.leak_doubling)


def reference_advance(model: ThermalModel, duration: float,
                      vault_power: Sequence[float] = (),
                      logic_power: float = 0.0) -> None:
    """Integrate ``model`` forward by ``duration`` seconds, substep by
    substep, updating its state exactly as ``model.advance`` does."""
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    if duration == 0.0:
        return
    cfg = model.config
    power = np.zeros(model.vaults, dtype=np.float64)
    if len(vault_power):
        if len(vault_power) != model.vaults:
            raise ValueError(
                f"expected {model.vaults} vault powers, got "
                f"{len(vault_power)}")
        power[:] = vault_power
    if np.any(power < 0.0) or logic_power < 0.0:
        raise ValueError("power inputs must be non-negative")
    dt = min(cfg.dt, model._dt_stable)
    steps = max(1, int(np.ceil(duration / dt)))
    dt = duration / steps
    amb = cfg.ambient
    temps = model.temps
    t_logic = model.t_logic
    for _ in range(steps):
        lat = cfg.g_lat * (model._adj @ temps - model._degree * temps)
        flux = (power + leakage(cfg, temps)
                + cfg.g_sink * (amb - temps)
                + cfg.g_logic * (t_logic - temps)
                + lat)
        logic_flux = (logic_power
                      + cfg.g_logic * float(np.sum(temps - t_logic))
                      + cfg.g_logic_sink * (amb - t_logic))
        temps = temps + flux * (dt / cfg.c_vault)
        t_logic = t_logic + logic_flux * (dt / cfg.c_logic)
        # the heatsink is an infinite reservoir at ambient: the
        # stack cannot cool below it
        np.maximum(temps, amb, out=temps)
        t_logic = max(t_logic, amb)
    model.temps = temps
    model.t_logic = t_logic
    model.elapsed += duration
    np.maximum(model.peak, temps, out=model.peak)
    model.peak_logic = max(model.peak_logic, t_logic)

"""Per-vault thermal RC network of the accelerated memory stack.

3D-stacked DRAM is thermally limited in practice: the vaults sit between
a heat-spreader on top and the accelerator logic layer below, and the
joules the energy ledger attributes to a step have to go *somewhere*.
This module closes that loop with a lumped RC network:

* one thermal node per vault (the vertical DRAM stack above a tile),
  with heat capacity ``c_vault``;
* one node for the shared logic layer (configuration unit, NoC, and the
  tiles' switch fabric), with capacity ``c_logic``;
* conductances: each vault vertically to the heatsink (``g_sink``),
  laterally to its grid neighbours (``g_lat``, the same 4x4 adjacency
  as the mesh NoC), and vertically to the logic layer (``g_logic``);
  the logic layer drains to the package/board through ``g_logic_sink``.

Heat input is the energy ledger's own per-step attribution: dynamic
joules from accelerator passes, NoC transfers and patrol-scrub walks
are deposited on the vaults (and the logic node) that did the work, and
a temperature-dependent leakage term (``p_leak_ref`` doubling every
``leak_doubling`` kelvin) feeds back — hot vaults leak more, which
makes them hotter.

The network is integrated forward with an explicit-Euler scheme whose
internal step is clamped to the stability bound of the stiffest node,
so callers can hand it arbitrary step durations. All state is plain
float64 numpy — deterministic, so thermal-on golden baselines pin
exactly.

The Euler loop works in buffers allocated once per call and stops at an
exact fixed point. A substep is a function of the state ``(temps,
t_logic)`` and of constants fixed for the call, so once one substep
maps the state to itself bit for bit, every remaining substep would
too. The loop computes the same floats as the plain loop kept in
``tests/thermal/helpers.py``: every sum adds its terms in the same
order; a conductance term ``g·(amb − T)`` is subtracted as
``g·(T − amb)``, which is the same float because round-to-nearest is
sign-symmetric; and the lateral product (``adj.dot``, the BLAS dgemv
``adj @ T`` calls), the leakage ``exp2`` and the logic node's pairwise
sum use the same numpy kernels. Every ufunc operand is a same-shape
float64 array (elementwise IEEE arithmetic gives the same float whether
an operand is broadcast or stored), and every ufunc is bound once per
call and given its output positionally, the cheapest dispatch.

The default capacities are scaled to the simulator's sampled-window
timescale (microsecond-class accelerated steps), giving vault time
constants of tens of microseconds: steady states are reached within a
campaign run instead of after seconds of simulated wall-clock the
sampled traces never cover. The *structure* (vertical stack-to-sink
path dominating, weak lateral spreading, leakage feedback) is what the
governor and the Arrhenius fault coupling consume; see DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.checks import check_real

#: Default ambient / case temperature, kelvin (45 C).
AMBIENT_K = 318.0


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal network, envelope-governor and fault-coupling knobs.

    The RC parameters (capacities in J/K, conductances in W/K) define
    the network; the envelope parameters drive the
    :class:`~repro.thermal.governor.PowerGovernor`; the Arrhenius
    parameters couple vault temperature into the latent-flip rate.

    Attributes:
        ambient: heatsink/board temperature, K; also the reference
            temperature of the leakage and Arrhenius terms.
        c_vault: heat capacity of one vault's DRAM stack, J/K.
        c_logic: heat capacity of the logic layer, J/K.
        g_sink: vault-to-heatsink vertical conductance, W/K.
        g_lat: vault-to-vault lateral conductance (grid neighbours), W/K.
        g_logic: vault-to-logic-layer vertical conductance, W/K.
        g_logic_sink: logic-layer-to-board conductance, W/K.
        p_leak_ref: per-vault leakage power at ambient, W.
        leak_doubling: kelvin of temperature rise that doubles leakage.
        dt: upper bound on the internal Euler step, seconds (clamped
            further by the stability bound of the stiffest node).
        envelope: vault thermal envelope, K — crossing it throttles.
        hysteresis: kelvin below the envelope a vault must cool before
            its throttle (or offline) state is released.
        critical: emergency threshold, K — crossing it takes the vault
            offline through the per-vault reroute path.
        throttle_factor: DVFS frequency factor of a throttled vault
            (0 < factor <= 1); the pass pipeline stretches by its
            reciprocal.
        vault_envelopes: per-vault envelope overrides (testing forced
            emergencies, heterogeneous corner vaults).
        vault_criticals: per-vault critical overrides.
        arrhenius_doubling: kelvin of vault temperature rise that
            doubles the latent cell-flip rate.
        arrhenius_cap: upper bound on the Arrhenius factor — also the
            thinning envelope that keeps seeded flip candidates
            identical across throttle policies (see
            :meth:`~repro.faults.injector.FaultInjector.deposit_latent_flips`).
    """

    ambient: float = AMBIENT_K
    c_vault: float = 2e-6
    c_logic: float = 8e-6
    g_sink: float = 0.5
    g_lat: float = 0.1
    g_logic: float = 0.2
    g_logic_sink: float = 2.0
    p_leak_ref: float = 0.05
    leak_doubling: float = 25.0
    dt: float = 2e-7
    envelope: float = 348.0
    hysteresis: float = 3.0
    critical: float = 368.0
    throttle_factor: float = 0.5
    vault_envelopes: Mapping[int, float] = field(default_factory=dict)
    vault_criticals: Mapping[int, float] = field(default_factory=dict)
    arrhenius_doubling: float = 10.0
    arrhenius_cap: float = 8.0

    def __post_init__(self) -> None:
        # every knob, and every per-vault override, is a finite
        # non-negative real (bool excluded); the checks below narrow it
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default_factory is dict:
                if not isinstance(value, Mapping):
                    raise TypeError(f"{f.name} must be a mapping, got "
                                    f"{type(value).__name__}")
                knobs = [(f"{f.name}[{k!r}]", v) for k, v in value.items()]
            else:
                knobs = [(f.name, value)]
            for name, v in knobs:
                check_real(name, v, least=0.0)
        for name in ("ambient", "c_vault", "c_logic", "g_sink",
                     "g_logic_sink", "leak_doubling", "dt",
                     "arrhenius_doubling"):
            check_real(name, getattr(self, name), positive=True)
        if not 0.0 < self.throttle_factor <= 1.0:
            raise ValueError("throttle_factor must be in (0, 1], got "
                             f"{self.throttle_factor}")
        if self.critical < self.envelope:
            raise ValueError("critical threshold must not sit below the "
                             "envelope")
        if self.arrhenius_cap < 1.0:
            raise ValueError("arrhenius_cap must be >= 1")

    def envelope_of(self, vault: int) -> float:
        return self.vault_envelopes.get(vault, self.envelope)

    def critical_of(self, vault: int) -> float:
        return self.vault_criticals.get(vault, self.critical)


class ThermalModel:
    """The integrated RC network: per-vault nodes + one logic node."""

    def __init__(self, config: ThermalConfig, vaults: int = 16,
                 cols: int = 4):
        if vaults <= 0 or cols <= 0 or vaults % cols:
            raise ValueError(f"{vaults} vaults do not tile a grid of "
                             f"{cols} columns")
        self.config = config
        self.vaults = vaults
        self.cols = cols
        amb = config.ambient
        self.temps = np.full(vaults, amb, dtype=np.float64)
        self.t_logic = float(amb)
        self.elapsed = 0.0
        #: Per-vault peak temperature seen so far (starts at ambient).
        self.peak: np.ndarray = self.temps.copy()
        self.peak_logic = float(amb)
        #: Euler substeps run by :meth:`advance` so far (the fixed-point
        #: exit skips the rest of a call's substeps).
        self.substeps = 0
        # lateral adjacency (grid) as a dense matrix: A @ T sums each
        # node's neighbour temperatures, degree[i] counts them
        adj = np.zeros((vaults, vaults), dtype=np.float64)
        for v in range(vaults):
            r, c = divmod(v, cols)
            rows = vaults // cols
            if c + 1 < cols:
                adj[v, v + 1] = adj[v + 1, v] = 1.0
            if r + 1 < rows:
                adj[v, v + cols] = adj[v + cols, v] = 1.0
        self._adj = adj
        self._degree = adj.sum(axis=1)
        # explicit-Euler stability: dt < C / (sum of conductances at the
        # stiffest node); the 0.4 margin also absorbs the (positive)
        # leakage-feedback slope up to the critical temperature
        g_vault = (config.g_sink + config.g_logic
                   + self._degree.max() * config.g_lat)
        g_log = config.g_logic_sink + vaults * config.g_logic
        self._dt_stable = 0.4 * min(config.c_vault / g_vault,
                                    config.c_logic / max(g_log, 1e-30))
        # the advance loop's per-vault constants, one length-n array
        # each: ambient, g_sink, g_lat, g_logic, p_leak_ref, doubling
        self._consts = tuple(
            np.full(vaults, x, dtype=np.float64)
            for x in (amb, config.g_sink, config.g_lat, config.g_logic,
                      config.p_leak_ref, config.leak_doubling))

    # -- temperature-dependent terms -----------------------------------------

    def arrhenius_factor(self, vault: int) -> float:
        """Latent-flip rate multiplier of one vault: doubles every
        ``arrhenius_doubling`` kelvin above ambient, floored at 1 (the
        model never cools below ambient) and capped at
        ``arrhenius_cap``."""
        cfg = self.config
        factor = 2.0 ** ((float(self.temps[vault]) - cfg.ambient)
                         / cfg.arrhenius_doubling)
        return float(min(max(factor, 1.0), cfg.arrhenius_cap))

    def arrhenius_factors(self) -> List[float]:
        return [self.arrhenius_factor(v) for v in range(self.vaults)]

    # -- integration ----------------------------------------------------------

    def advance(self, duration: float,
                vault_power: Sequence[float] = (),
                logic_power: float = 0.0) -> None:
        """Integrate the network forward by ``duration`` seconds.

        ``vault_power`` is the dynamic heat deposited on each vault
        node, in watts, over the whole interval (the step's attributed
        joules divided by its wall time); ``logic_power`` likewise for
        the logic-layer node. Leakage is added internally from the
        instantaneous temperatures. Durations and powers must be finite
        and non-negative.
        """
        if not 0.0 <= duration < math.inf:
            raise ValueError("duration must be finite and non-negative, "
                             f"got {duration}")
        if duration == 0.0:
            return
        cfg = self.config
        n = self.vaults
        power = np.zeros(n, dtype=np.float64)
        if len(vault_power):
            if len(vault_power) != n:
                raise ValueError(
                    f"expected {n} vault powers, got {len(vault_power)}")
            power[:] = vault_power
        if not (np.all(power >= 0.0) and np.all(power < math.inf)
                and 0.0 <= logic_power < math.inf):
            raise ValueError("power inputs must be finite and non-negative")
        dt = min(cfg.dt, self._dt_stable)
        steps = max(1, int(np.ceil(duration / dt)))
        dt = duration / steps
        amb = cfg.ambient
        g_logic, g_logic_sink = cfg.g_logic, cfg.g_logic_sink
        k_logic = dt / cfg.c_logic
        leaky = cfg.p_leak_ref > 0.0
        # every ufunc operand is a length-n array (the same products as
        # a broadcast scalar); only the vault step factor depends on
        # the call
        amb_v, g_sink_v, g_lat_v, g_logic_v, p_leak_v, doubling_v = (
            self._consts)
        k_v = np.full(n, dt / cfg.c_vault)
        dot, degree = self._adj.dot, self._degree
        subtract, multiply, add, divide, exp2, maximum, reduce = (
            np.subtract, np.multiply, np.add, np.divide, np.exp2,
            np.maximum, np.add.reduce)
        # a fresh state array: callers may hold (and write) self.temps
        temps = np.array(self.temps, dtype=np.float64)
        nxt, d, dl, lat, flux, tmp, tl = (np.empty(n, dtype=np.float64)
                                          for _ in range(7))
        t_logic = self.t_logic
        for ran in range(1, steps + 1):
            tl.fill(t_logic)
            subtract(temps, amb_v, d)
            subtract(temps, tl, dl)
            # ndarray.dot reaches the same BLAS dgemv as adj @ temps
            dot(temps, lat)
            multiply(degree, temps, tmp)
            subtract(lat, tmp, lat)
            multiply(lat, g_lat_v, lat)
            # flux = power + leakage - g_sink*d - g_logic*dl + lat: the
            # physics' sum order, each conductance term's sign flipped
            multiply(d, g_sink_v, tmp)
            if leaky:
                divide(d, doubling_v, flux)
                exp2(flux, flux)
                multiply(flux, p_leak_v, flux)
                add(power, flux, flux)
                subtract(flux, tmp, flux)
            else:
                subtract(power, tmp, flux)
            multiply(dl, g_logic_v, tmp)
            subtract(flux, tmp, flux)
            add(flux, lat, flux)
            # np.add.reduce is the pairwise reduction np.sum dispatches to
            logic_flux = (logic_power
                          + g_logic * float(reduce(dl))
                          - g_logic_sink * (t_logic - amb))
            multiply(flux, k_v, flux)
            add(temps, flux, nxt)
            # the heatsink is an infinite reservoir at ambient: the
            # stack cannot cool below it (numpy deprecates a positional
            # out for maximum alone)
            maximum(nxt, amb_v, out=nxt)
            t_next = max(t_logic + logic_flux * k_logic, amb)
            # the step map depends on the state alone, so a bitwise
            # fixed point repeats for every remaining substep
            if t_next == t_logic and (nxt == temps).all():
                break
            temps, nxt = nxt, temps
            t_logic = t_next
        self.substeps += ran
        self.temps = temps
        self.t_logic = t_logic
        self.elapsed += duration
        np.maximum(self.peak, temps, out=self.peak)
        self.peak_logic = max(self.peak_logic, t_logic)

    # -- views ----------------------------------------------------------------

    def temperature(self, vault: int) -> float:
        return float(self.temps[vault])

    def peak_temperatures(self) -> Dict[int, float]:
        """Per-vault peak temperature since construction, K."""
        return {v: float(self.peak[v]) for v in range(self.vaults)}

    @property
    def peak_vault_temp(self) -> float:
        """Hottest vault temperature ever reached, K."""
        return float(self.peak.max())

    @property
    def max_temp(self) -> float:
        """Hottest current vault temperature, K."""
        return float(self.temps.max())

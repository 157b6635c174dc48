"""The power-envelope governor: nominal -> throttled -> offline.

Sits between the :class:`~repro.thermal.rc.ThermalModel` and the
execution stack. After every accelerated step (and every patrol-scrub
pass) the runtime advances the RC network and polls the governor, which
walks each vault through a three-state machine:

* **nominal** — the vault runs at full frequency.
* **throttled** — the vault crossed its envelope: a DVFS-style
  frequency step-down (``throttle_factor``) is applied. The pass
  pipeline runs in vault lockstep, so one throttled serving vault
  stretches the whole pass by the reciprocal factor; the configuration
  unit prices the stretch (extra static energy over the longer drain)
  and the runtime books the excess in the ``throttle`` ledger category,
  leaving the ``accelerator`` share exactly the nominal cost.
* **offline** — the vault crossed its *critical* threshold: its tile is
  taken out of service through the *existing* per-vault degradation
  path (:meth:`~repro.accel.layer.AcceleratorLayer.mark_tile_failed`),
  so its data stripe reroutes to the surviving tiles exactly like a
  hard tile failure and availability stays 1.0. The governor remembers
  which tiles *it* offlined and repairs them (and only them) once the
  vault cools back through the release threshold.

Transitions are hysteretic: a throttled (or offlined) vault is released
only after cooling ``hysteresis`` kelvin below its envelope, so the
state can never oscillate while the temperature wanders within one
envelope band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.accel.layer import AcceleratorLayer
from repro.thermal.rc import ThermalConfig, ThermalModel

#: Vault governor states.
NOMINAL = "nominal"
THROTTLED = "throttled"
OFFLINE = "offline"


@dataclass
class GovernorStats:
    """What the governor did to keep the stack inside its envelope."""

    throttle_events: int = 0        # nominal -> throttled transitions
    offline_events: int = 0         # -> offline transitions
    recoveries: int = 0             # offline -> nominal repairs
    releases: int = 0               # throttled -> nominal releases
    time_throttled: float = 0.0     # stretched step-seconds under DVFS
    time_throttled_by_vault: Dict[int, float] = field(default_factory=dict)

    def note_throttled(self, duration: float,
                       vaults: Sequence[int]) -> None:
        self.time_throttled += duration
        for v in vaults:
            self.time_throttled_by_vault[v] = (
                self.time_throttled_by_vault.get(v, 0.0) + duration)


class PowerGovernor:
    """Per-vault envelope enforcement over a thermal model."""

    def __init__(self, model: ThermalModel, layer: AcceleratorLayer,
                 config: ThermalConfig):
        self.model = model
        self.layer = layer
        self.config = config
        self.state: Dict[int, str] = {v: NOMINAL
                                      for v in range(model.vaults)}
        self.stats = GovernorStats()
        # tiles *this governor* took offline — the only ones it may
        # repair (a genuinely dead tile stays dead however cool it is)
        self._offlined: set = set()

    # -- queries the execution path makes -------------------------------------

    def throttle_factor(self, vault: int) -> float:
        """DVFS frequency factor of one vault (1.0 when nominal)."""
        if self.state[vault] == THROTTLED:
            return self.config.throttle_factor
        return 1.0

    def throttled_vaults(self, serving: Sequence[int]) -> List[int]:
        """The serving vaults currently under DVFS, ascending."""
        return [v for v in serving if self.state[v] == THROTTLED]

    def pass_slowdown(self, serving: Sequence[int]) -> float:
        """Frequency factor gating a pass over ``serving`` vaults.

        The pass pipeline runs in vault lockstep, so the slowest
        (most throttled) serving vault sets the pace.
        """
        if not serving:
            return 1.0
        return min(self.throttle_factor(v) for v in serving)

    # -- state machine ---------------------------------------------------------

    def poll(self) -> None:
        """Re-evaluate every vault against the current temperatures.

        Called by the runtime after each thermal advance; also once at
        system assembly so forced (sub-ambient) envelopes engage before
        the first execute.
        """
        cfg = self.config
        for vault in range(self.model.vaults):
            temp = self.model.temperature(vault)
            state = self.state[vault]
            release = cfg.envelope_of(vault) - cfg.hysteresis
            if state == OFFLINE:
                if vault in self._offlined and temp < release:
                    self.layer.repair_tile(vault)
                    self._offlined.discard(vault)
                    self.state[vault] = NOMINAL
                    self.stats.recoveries += 1
                continue
            if temp >= cfg.critical_of(vault):
                self.state[vault] = OFFLINE
                self.stats.offline_events += 1
                tile = self.layer.tiles[vault]
                if not tile.failed:
                    # thermal emergencies reuse the degradation path:
                    # the vault stripe reroutes like a hard tile failure
                    self.layer.mark_tile_failed(vault)
                    self._offlined.add(vault)
                continue
            if state == NOMINAL and temp > cfg.envelope_of(vault):
                self.state[vault] = THROTTLED
                self.stats.throttle_events += 1
            elif state == THROTTLED and temp < release:
                self.state[vault] = NOMINAL
                self.stats.releases += 1

    @property
    def any_throttled(self) -> bool:
        return any(s == THROTTLED for s in self.state.values())

    @property
    def offline(self) -> List[int]:
        """Vaults currently offline (thermal emergencies), ascending."""
        return sorted(v for v, s in self.state.items() if s == OFFLINE)

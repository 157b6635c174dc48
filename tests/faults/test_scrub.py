"""Patrol-scrubber battery: idempotence, cadence, cost and purity.

The load-bearing properties: a patrol pass *drains* the latent map
(a second immediate pass finds zero flips — idempotence), fires on the
configured cadence and only then, prices every pass against the backed
footprint, and with ``interval=0`` leaves the whole run bit-identical
to one without a scrubber.
"""

import numpy as np
import pytest

from repro.core import MealibSystem
from repro.faults import (FaultInjector, PatrolScrubber, ScrubConfig,
                          ScrubStats)
from repro.metrics import ZERO


def make_system(faults=None, **kwargs):
    return MealibSystem(stack_bytes=64 << 20, faults=faults, **kwargs)


def seeded_scrubber(interval=1, rate=0.0, seed=3, ecc_enabled=True):
    system = make_system(
        FaultInjector(seed=seed, latent_flip_rate=rate,
                      ecc_enabled=ecc_enabled),
        scrub=ScrubConfig(interval=interval))
    return system


# -- config validation --------------------------------------------------------


def test_config_rejects_negative_interval():
    with pytest.raises(ValueError):
        ScrubConfig(interval=-1)


def test_config_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        ScrubConfig(interval=1, bandwidth=0.0)


@pytest.mark.parametrize("field,value,error", [
    ("interval", 2.5, TypeError),
    ("interval", True, TypeError),
    ("interval", None, TypeError),
    ("bandwidth", float("nan"), ValueError),
    ("bandwidth", float("inf"), ValueError),
    ("e_patrol_per_byte", -1, ValueError),
    ("e_patrol_per_byte", "1e-12", TypeError),
])
def test_config_typed_errors_name_the_field(field, value, error):
    with pytest.raises(error, match=field):
        ScrubConfig(**{field: value})


# -- idempotence: the second immediate patrol finds nothing -------------------


def test_scrub_is_idempotent():
    system = seeded_scrubber()
    inj, scrubber = system.faults, system.scrubber
    inj.plant_latent_flips(4096, [1])
    inj.plant_latent_flips(8192, [2, 9])
    inj.plant_latent_flips(12288, [0, 31, 63])
    assert inj.latent_word_count == 3

    first = scrubber.scrub()
    assert inj.latent_word_count == 0
    assert scrubber.stats.words_corrected == 1
    assert scrubber.stats.words_repaired == 1
    assert scrubber.stats.words_silent == 1

    before = ScrubStats(**{f: getattr(scrubber.stats, f)
                           for f in ("passes", "bytes_scanned",
                                     "words_corrected", "words_repaired",
                                     "words_silent")})
    second = scrubber.scrub()
    # the second pass still walks (and prices) the footprint, but it
    # finds, fixes and pins nothing
    assert inj.latent_word_count == 0
    assert scrubber.stats.words_corrected == before.words_corrected
    assert scrubber.stats.words_repaired == before.words_repaired
    assert scrubber.stats.words_silent == before.words_silent
    assert scrubber.stats.passes == before.passes + 1
    assert second.time < first.time       # no correction writebacks left
    assert second.energy < first.energy


def test_at_rest_double_never_surfaces_on_demand_path():
    system = seeded_scrubber()
    system.faults.plant_latent_flips(4096, [5, 40])
    system.scrubber.scrub()
    # repaired off the demand path: no uncorrectable, no retry pressure
    assert system.scrubber.stats.words_repaired == 1
    assert system.faults.stats.words_uncorrectable == 0
    assert system.runtime.counters.retries == 0


# -- cadence ------------------------------------------------------------------


def test_tick_fires_exactly_on_the_interval():
    system = seeded_scrubber(interval=3)
    scrubber = system.scrubber
    fired = [scrubber.tick() is not None for _ in range(9)]
    assert fired == [False, False, True] * 3
    assert scrubber.stats.passes == 3


def test_interval_zero_never_fires():
    system = seeded_scrubber(interval=0)
    system.faults.plant_latent_flips(4096, [1])
    for _ in range(10):
        assert system.scrubber.tick() is None
    # the flip sits latent forever: nothing drained it
    assert system.faults.latent_word_count == 1
    assert system.scrubber.stats.passes == 0


# -- runtime integration: ledger and counters ---------------------------------


def _run_axpy(system, executes):
    from repro.accel import AxpyParams
    from repro.core import ParamStore

    n = 1024
    xb, x = system.space.alloc_array((n,), np.float32)
    yb, y = system.space.alloc_array((n,), np.float32)
    x[:] = 1.0
    y[:] = 1.0
    params = AxpyParams(n=n, alpha=2.0, x_pa=xb.pa, y_pa=yb.pa)
    store = ParamStore()
    store.add("w.para", params.pack())
    core = system.layer.accelerator("AXPY")
    streams = core.streams(params)
    plan = system.runtime.acc_plan(
        "PASS { COMP AXPY w.para }", store,
        in_size=sum(s.total_bytes for s in streams if not s.is_write),
        out_size=sum(s.total_bytes for s in streams if s.is_write))
    results = [system.runtime.acc_execute(plan, functional=False)
               for _ in range(executes)]
    return results


def test_scrub_cost_is_ledgered_but_never_charged_to_the_step():
    scrubbed = seeded_scrubber(interval=2)
    plain = seeded_scrubber(interval=0)
    res_s = _run_axpy(scrubbed, 4)
    res_p = _run_axpy(plain, 4)
    # patrol ran on schedule and charged the scrub ledger...
    assert scrubbed.runtime.counters.scrub_passes == 2
    scrub = scrubbed.ledger.total("scrub")
    assert scrub.time > 0 and scrub.energy > 0
    assert "patrol" in scrubbed.ledger.by_label("scrub")
    # ...but the executes themselves cost exactly what the unscrubbed
    # system's executes cost: maintenance overlaps the host
    assert [(r.time, r.energy) for r in res_s] == [
        (r.time, r.energy) for r in res_p]
    # and the disabled system ledgered nothing
    assert plain.ledger.total("scrub") == ZERO
    assert plain.runtime.counters.scrub_passes == 0


def test_scrub_pass_prices_the_backed_footprint():
    system = seeded_scrubber(interval=1)
    scrubber = system.scrubber
    cost = scrubber.scrub()
    scanned = sum(size for _, size in system.space.driver.phys.regions())
    assert scanned > 0
    assert cost.time == scanned / scrubber.config.bandwidth
    assert cost.energy == scanned * scrubber.config.e_patrol_per_byte
    assert scrubber.stats.bytes_scanned == scanned


def test_ecc_off_patrol_pins_corruption_into_cells():
    system = seeded_scrubber(ecc_enabled=False)
    phys = system.space.driver.phys
    word = system.faults.plant_latent_flips(4096, [5])
    before = bytes(phys.ndarray(word, np.uint8, (8,)))
    system.scrubber.scrub()
    after = bytes(phys.ndarray(word, np.uint8, (8,)))
    # with ECC off even a single is written back corrupted
    assert system.scrubber.stats.words_silent == 1
    assert system.scrubber.stats.words_corrected == 0
    assert after != before
    assert system.faults.latent_word_count == 0


def test_scrub_without_faults_is_a_configuration_error():
    # a scrub config *parameterises the injector's drain*: passing it
    # with no injector used to be silently ignored — now it raises
    with pytest.raises(ValueError):
        make_system(scrub=ScrubConfig(interval=2))


# -- per-vault attribution (thermal heat feed) --------------------------------


def _attributed_scrubber(rate=0.0, seed=3):
    system = seeded_scrubber(interval=1, rate=rate, seed=seed)
    system.scrubber.mapping = system.device.mapping
    return system


def test_vault_attribution_decomposes_the_pass_energy_exactly():
    system = _attributed_scrubber()
    inj, scrubber = system.faults, system.scrubber
    inj.plant_latent_flips(4096, [1])
    inj.plant_latent_flips(64 << 10, [2, 9])
    cost = scrubber.scrub()
    per_vault = scrubber.last_vault_energy
    assert set(per_vault) == set(range(system.device.units))
    # the per-vault energies are a decomposition of the pass cost, not
    # an estimate: they sum back to the ledgered energy
    assert sum(per_vault.values()) == pytest.approx(cost.energy, rel=1e-12)


def test_patrol_energy_lands_on_the_vault_walked_not_smeared():
    system = _attributed_scrubber()
    scrubber = system.scrubber
    mapping = system.device.mapping
    word = system.faults.plant_latent_flips(4096, [5])   # one single
    cost = scrubber.scrub()
    assert scrubber.stats.words_corrected == 1
    per_corr = scrubber.ecc.correction_cost(1).energy
    regions = system.space.driver.phys.regions()
    stream_bytes = scrubber._vault_bytes(regions)
    e_byte = scrubber.config.e_patrol_per_byte
    per_vault = scrubber.last_vault_energy
    # the correction's writeback energy is attributed to the vault that
    # holds the corrected word — every other vault paid its own
    # streaming share only, nothing smeared
    hot = mapping.unit_of(word)
    for v, e in per_vault.items():
        expected = stream_bytes[v] * e_byte
        if v == hot:
            expected += per_corr
        assert e == pytest.approx(expected, rel=1e-12), f"vault {v}"
    scanned = sum(size for _, size in regions)
    assert cost.energy == pytest.approx(scanned * e_byte + per_corr,
                                        rel=1e-12)


def test_vault_byte_split_matches_per_block_decomposition():
    system = _attributed_scrubber()
    scrubber = system.scrubber
    mapping = system.device.mapping
    regions = system.space.driver.phys.regions()
    fast = scrubber._vault_bytes(regions)
    # brute-force reference: walk every interleave block individually
    slow = {v: 0 for v in range(mapping.units)}
    step = mapping.interleave_bytes
    for start, size in regions:
        addr = start
        end = start + size
        while addr < end:
            block_end = min(end, (addr // step + 1) * step)
            slow[mapping.unit_of(addr)] += block_end - addr
            addr = block_end
    assert fast == slow
    assert sum(fast.values()) == sum(size for _, size in regions)


def test_standalone_scrubber_accepts_explicit_ecc():
    inj = FaultInjector(seed=1)
    system = make_system()
    phys = system.space.driver.phys
    scrubber = PatrolScrubber(inj, phys, ScrubConfig(interval=1))
    assert scrubber.ecc is inj.ecc
    inj.plant_latent_flips(4096, [7])
    cost = scrubber.tick()
    assert cost is not None and cost.time > 0
    assert scrubber.stats.words_corrected == 1
    assert inj.latent_word_count == 0

"""Validation of the DRAM energy parameter sets."""

from dataclasses import fields

import pytest

from repro.memsys.energy import DDR3_ENERGY, HMC_ENERGY, DramEnergy

NAMES = [f.name for f in fields(DramEnergy)]

#: Bad values of an energy field and the error each must raise.
BAD_VALUES = [(True, TypeError), (False, TypeError), ("x", TypeError),
              (None, TypeError), (float("nan"), ValueError),
              (float("inf"), ValueError), (-1.0, ValueError)]


@pytest.mark.parametrize("value, error", BAD_VALUES)
@pytest.mark.parametrize("name", NAMES)
def test_rejects_bad_field(name, value, error):
    values = {f: getattr(HMC_ENERGY, f) for f in NAMES}
    with pytest.raises(error, match=name):
        DramEnergy(**{**values, name: value})


def test_presets_and_zero_and_integer_values_are_accepted():
    assert DDR3_ENERGY.burst_energy(64) > HMC_ENERGY.burst_energy(64)
    assert DramEnergy(0, 0.0, 1, 0.0).burst_energy(32) == 256.0

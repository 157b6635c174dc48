"""Differential battery: :meth:`FaultInjector.deposit_latent_flips`
against the per-candidate loop in ``tests/faults/helpers.py``, bit for
bit.

The library keeps the draws (``binomial``, ``choice``, ``random``) and
maps, thins and ORs the candidates as arrays. Seeded trials chain a few
deposits through two injectors built alike and compare, after every
call, the return value, the latent map and the per-vault counts (both
in insertion order), the stats and the latent PRNG state. They cover
1–4 regions with zero-size ones and unsorted starts at addresses with
high bits set, ``factors`` absent or given on both sides of ``cap``,
a candidate whose ``u * cap`` equals its factor, ``vault_of`` absent or
given, rates up to every bit of a small region, and latent words
planted beforehand, so deposits collide with them.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.faults import FaultInjector
from repro.memsys.address import AddressMapping
from tests.faults.helpers import reference_deposit

BLOCKS = 4
TRIALS_PER_BLOCK = 50


def snapshot(inj):
    return (list(inj._latent.items()),
            list(inj.latent_deposits_by_vault.items()),
            dataclasses.asdict(inj.stats),
            inj._latent_rng.bit_generator.state)


def random_regions(rng):
    regions = []
    for _ in range(int(rng.integers(1, 5))):
        size = 0 if rng.random() < 0.25 else int(rng.integers(1, 2048))
        start = int(rng.integers(0, 1 << 40)) & ~7
        regions.append((start, size))
    return regions


def run_trial(seed):
    rng = np.random.default_rng(seed)
    mapping = AddressMapping(
        interleave_bytes=int(rng.choice([64, 256])),
        units=int(rng.choice([1, 4, 16])), banks=8, row_bytes=2048)
    regions = random_regions(rng)
    total_bits = sum(size for _, size in regions) * 8
    # mostly tens to hundreds of candidates, sometimes every bit
    rate = (1.0 if rng.random() < 0.1
            else float(rng.uniform(1.0, 400.0)) / max(total_bits, 1))
    rate = min(rate, 1.0)
    new = FaultInjector(seed=int(rng.integers(1 << 31)),
                        latent_flip_rate=rate)
    ref = FaultInjector(seed=new.config.seed, latent_flip_rate=rate)
    for _ in range(int(rng.integers(0, 6))):
        start, size = regions[int(rng.integers(len(regions)))]
        if size:
            addr = start + int(rng.integers(size))
            bits = rng.choice(64, size=int(rng.integers(1, 3)),
                              replace=False).tolist()
            new.plant_latent_flips(addr, bits)
            ref.plant_latent_flips(addr, bits)
    coupled = rng.random() < 0.7
    mapped = rng.random() < 0.7
    cap = float(rng.choice([1.0, 2.0, 8.0, rng.uniform(1.0, 8.0)]))
    seen = set()
    for step in range(int(rng.integers(1, 4))):
        factors = None
        if coupled:
            # Arrhenius-like factors below, at and above the cap
            factors = rng.uniform(0.5, 1.5 * cap, mapping.units).tolist()
            factors[0] = cap
            # replay the call's draws on a copy of the stream
            probe = copy.deepcopy(ref._latent_rng)
            drawn = min(int(probe.binomial(total_bits,
                                           min(rate * cap, 1.0))),
                        total_bits)
            if drawn and mapped and rng.random() < 0.3:
                # one candidate sits exactly on the thinning boundary
                probe.choice(total_bits, size=drawn, replace=False)
                tie = float(probe.random(drawn)[rng.integers(drawn)] * cap)
                factors = [tie] * mapping.units
                seen.add("tie")
        before = dict(ref._latent)
        got = new.deposit_latent_flips(
            regions, factors=factors, cap=cap,
            vault_of=mapping.units_of if mapped else None)
        want = reference_deposit(
            ref, regions, factors=factors, cap=cap,
            vault_of=mapping.unit_of if mapped else None)
        assert got == want, f"seed {seed}, step {step}"
        assert snapshot(new) == snapshot(ref), f"seed {seed}, step {step}"
        if any(ref._latent[w] != m for w, m in before.items()):
            seen.add("collision")
        if coupled and want < drawn:
            seen.add("thinned")
    return seen


@pytest.mark.parametrize("block", range(BLOCKS))
def test_deposit_matches_reference_bit_for_bit(block):
    seen = set()
    for trial in range(TRIALS_PER_BLOCK):
        seen |= run_trial(block * TRIALS_PER_BLOCK + trial)
    # each block reaches the cases the battery claims to cover
    assert seen == {"collision", "thinned", "tie"}

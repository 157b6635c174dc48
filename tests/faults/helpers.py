"""The per-candidate latent-flip deposit loop, kept as the differential
reference for :meth:`FaultInjector.deposit_latent_flips`.

The library draws the same candidates and then maps, thins and ORs them
as arrays; this one walks the regions and asks a scalar ``vault_of``
for every candidate in ascending position order. Both must leave the
same latent map, per-vault counts (insertion order included), stats and
PRNG state.
"""

from typing import Callable, Optional, Sequence, Tuple

from repro.faults.ecc import ECC_WORD_BITS
from repro.faults.injector import FaultInjector


def reference_deposit(inj: FaultInjector,
                      regions: Sequence[Tuple[int, int]],
                      factors: Optional[Sequence[float]] = None,
                      cap: float = 1.0,
                      vault_of: Optional[Callable[[int], int]] = None
                      ) -> int:
    """Deposit one step's latent flips into ``inj`` candidate by
    candidate; ``vault_of`` maps one byte address to its vault."""
    rate = inj.config.latent_flip_rate
    if rate <= 0.0 or not regions:
        return 0
    total_bits = sum(size for _, size in regions) * 8
    if total_bits <= 0:
        return 0
    rng = inj._latent_rng
    if factors is None:
        k = int(rng.binomial(total_bits, rate))
        if k == 0:
            return 0
        k = min(k, total_bits)
        positions = rng.choice(total_bits, size=k, replace=False)
        uniforms = None
    else:
        k = int(rng.binomial(total_bits, min(rate * cap, 1.0)))
        if k == 0:
            return 0
        k = min(k, total_bits)
        positions = rng.choice(total_bits, size=k, replace=False)
        uniforms = rng.random(k)
    word_mask = ECC_WORD_BITS // 8 - 1
    deposited = 0
    for i, pos in enumerate(sorted(int(p) for p in positions)):
        rest = pos
        for start, size in regions:
            if rest >= size * 8:
                rest -= size * 8
                continue
            byte = start + rest // 8
            vault = vault_of(byte) if vault_of is not None else None
            if uniforms is not None:
                factor = (factors[vault] if vault is not None
                          else 1.0)
                if uniforms[i] * cap >= factor:
                    break                       # thinned away
            word = byte & ~word_mask
            bit = (byte - word) * 8 + rest % 8
            inj._latent[word] = inj._latent.get(word, 0) | (1 << bit)
            deposited += 1
            if vault is not None:
                inj.latent_deposits_by_vault[vault] = (
                    inj.latent_deposits_by_vault.get(vault, 0) + 1)
            break
    inj.stats.latent_flips_deposited += deposited
    return deposited

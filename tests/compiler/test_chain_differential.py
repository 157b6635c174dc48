"""The verified rewrite engine subsumes the old syntactic chainer.

The compiler once chained accelerated calls by adjacency alone
(:func:`tests.compiler.helpers.chain_pass`, kept verbatim as the
reference). The rewrite engine is now the only chainer, so every chain
the reference forms over the unfused translation
(``translate(src, rewrite=False)``) must appear in the default
translation as a non-looped :class:`FusedStep` with identical members:
the legacy corpus, every STAP preset, SAR from 64 to 8192 pixels a
side and the generated chain, saxpy and corner-turn programs.
"""

from pathlib import Path

import pytest

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PAPER_PRESETS, PRESETS, stap_source
from repro.compiler import (DescriptorStep, FusedStep, Schedule,
                            translate)
from tests.compiler.helpers import (ChainStep, chain_pass, chain_source,
                                    corner_turn_source, saxpy_nest_source)

CORPUS_DIR = Path(__file__).resolve().parents[2] / "examples" / "legacy"

#: oob_stride.c is rejected by design and never lowers.
CORPUS = {p.name: p.read_text() for p in sorted(CORPUS_DIR.glob("*.c"))
          if p.name != "oob_stride.c"}

#: the paper's chains: the SAR interpolation + FFT and the STAP
#: corner turn + Doppler FFT
PAPER_APPS = {
    **{f"stap_{k}": stap_source(cfg) for k, cfg in PRESETS.items()},
    **{f"stap_paper_{k}": stap_source(cfg)
       for k, cfg in PAPER_PRESETS.items()},
    **{f"sar_{side}": sar_source(SarConfig(side))
       for side in (64, 128, 256, 512, 1024, 2048, 4096, 8192)},
}

GENERATED = {
    **{f"chain_{k}": chain_source(chunks, 0.75, match, mid)
       for k, (chunks, match, mid) in enumerate(
           ((4, True, True), (8, True, False), (16, False, True),
            (4, False, False)))},
    **{f"saxpy_{r}x{n}": saxpy_nest_source(r, n, 1.5)
       for r, n in ((1, 16), (6, 64))},
    **{f"corner_{r}x{c}": corner_turn_source(r, c)
       for r, c in ((4, 4), (8, 32))},
}

PROGRAMS = {**CORPUS, **PAPER_APPS, **GENERATED}


def flattened(items):
    """A translation's items with every descriptor opened up."""
    out = []
    for item in items:
        out.extend(item.items if isinstance(item, DescriptorStep)
                   else (item,))
    return out


def syntactic_chains(source):
    """What the reference chainer forms over the unfused translation."""
    off = translate(source, rewrite=False)
    steps = flattened(off.items)
    assert not any(isinstance(s, FusedStep) for s in steps)
    return [c for c in chain_pass(Schedule(env=off.env, steps=steps))
            if isinstance(c, ChainStep)]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_engine_fuses_every_syntactic_chain(name):
    source = PROGRAMS[name]
    chains = syntactic_chains(source)
    fused = [s.steps for s in flattened(translate(source).items)
             if isinstance(s, FusedStep) and not s.looped]
    for chain in chains:
        assert chain.steps in fused, (
            f"{name}: chain "
            f"{'+'.join(s.accel for s in chain.steps)} not fused")
        fused.remove(chain.steps)
    if name in PAPER_APPS:
        assert chains, f"{name}: the paper's chain was not formed"

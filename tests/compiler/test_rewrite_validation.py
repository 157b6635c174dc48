"""Translation validation for the schedule rewrite layer.

The rewrite engine's contract is checked the strong way: for every
corpus program and for a randomized battery of generated chains, the
original and rewritten programs are *executed* and must agree
bit-for-bit, both system ledgers must pass the ledger checker (each
execute's ledgered costs fold to the cost it returned), every applied
rewrite must carry prover-named certificate
facts, and rewrites-off must be the identity translation.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.compiler import FusedStep, run_translated, translate
from repro.compiler.interp import _DTYPES
from repro.compiler.passes import DescriptorStep
from repro.core.ledger import verify_ledger
from repro.core.system import MealibSystem
from tests.compiler.helpers import chain_source
from tests.core.helpers import record_executes

CORPUS_DIR = Path(__file__).resolve().parents[2] / "examples" / "legacy"

#: Every analysis-clean corpus program (oob_stride is rejected by
#: design; racy_saxpy demotes and keeps no certified accel step).
CORPUS = ("dot_reduction.c", "fusable_chain.c", "illegal_fusion.c",
          "sar_64.c", "sar_fns.c", "saxpy_nest.c", "stap_small.c")


def make_inputs(tp, seed=11):
    """Deterministic inputs satisfying each corpus program's domain
    (knots strictly increasing, sites inside the knot span)."""
    rng = np.random.default_rng(seed)
    knots_count = next((info.count
                        for name, info in tp.env.buffers.items()
                        if "knot" in name), None)
    inputs = {}
    for name, info in tp.env.buffers.items():
        if info.elem_type not in _DTYPES:
            continue
        dt = _DTYPES[info.elem_type]
        n = info.count
        if "knot" in name:
            arr = np.arange(n, dtype=dt)
        elif "site" in name and knots_count:
            arr = np.clip((np.arange(n) % knots_count) + 0.3,
                          0, knots_count - 1.5).astype(dt)
        elif np.issubdtype(dt, np.complexfloating):
            arr = (rng.standard_normal(n)
                   + 1j * rng.standard_normal(n)).astype(dt)
        elif np.issubdtype(dt, np.integer):
            arr = np.zeros(n, dtype=dt)
        else:
            arr = rng.standard_normal(n).astype(dt)
        if info.shape is not None:
            arr = arr.reshape(info.shape)
        inputs[name] = arr
    return inputs


def assert_certificates_complete(tp):
    """Every fused step carries a certificate; every applied decision
    and every rewrite fact names its prover."""
    for item in tp.items:
        if not isinstance(item, DescriptorStep):
            continue
        for step in item.items:
            if isinstance(step, FusedStep):
                assert step.certificate is not None
                assert all(f.prover for f in step.certificate.facts)
    for decision in tp.rewrites:
        if decision.applied:
            assert decision.prover, decision


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_rewrite_is_translation_validated(name, monkeypatch):
    source = (CORPUS_DIR / name).read_text()
    off_tp = translate(source, rewrite=False)
    on_tp = translate(source, rewrite=True)
    assert off_tp.rewrites == ()
    assert_certificates_complete(on_tp)

    inputs = make_inputs(off_tp)
    sys_off = MealibSystem()
    sys_on = MealibSystem()
    executes_off = record_executes(monkeypatch, sys_off)
    executes_on = record_executes(monkeypatch, sys_on)
    off = run_translated(off_tp, system=sys_off, inputs=dict(inputs))
    on = run_translated(on_tp, system=sys_on, inputs=dict(inputs))
    assert set(off.buffers) == set(on.buffers)
    for buf in sorted(off.buffers):
        np.testing.assert_array_equal(off.buffers[buf],
                                      on.buffers[buf], err_msg=buf)
    verify_ledger(sys_off.ledger, executes_off)
    verify_ledger(sys_on.ledger, executes_on)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_rewrites_off_matches_default_translation(name):
    source = (CORPUS_DIR / name).read_text()
    base = translate(source)
    on = translate(source, rewrite=True)
    off = translate(source, rewrite=False)
    # the default translation is the verified engine's
    assert base.items == on.items
    assert base.rewrites == on.rewrites
    assert [d.code for d in base.diagnostics] \
        == [d.code for d in on.diagnostics]
    # rewrites off is unfused and logs no decision
    assert off.rewrites == ()
    assert not any(isinstance(s, FusedStep) for item in off.items
                   if isinstance(item, DescriptorStep)
                   for s in item.items)
    assert base.demoted_steps == off.demoted_steps


# -- randomized chain battery -------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_randomized_chains_validate(seed):
    rng = np.random.default_rng(100 + seed)
    chunks = int(rng.choice([4, 8, 16]))
    alpha = float(rng.uniform(0.25, 2.0))
    match = bool(seed % 2 == 0)
    with_mid = bool((seed // 2) % 2 == 0)
    source = chain_source(chunks, alpha, match, with_mid)

    tp = translate(source, rewrite=True)
    fused = [s for item in tp.items if isinstance(item, DescriptorStep)
             for s in item.items if isinstance(s, FusedStep)]
    if match:
        assert len(fused) == 1 and fused[0].iterations == chunks
        assert any(r.primitive == "fuse" and r.applied
                   for r in tp.rewrites)
        if with_mid:
            assert any(r.primitive == "reorder" and r.applied
                       for r in tp.rewrites)
    else:
        assert fused == []
        rejected = [r for r in tp.rewrites
                    if r.primitive == "fuse" and not r.applied]
        assert rejected and rejected[0].code == "MEA019"
        assert "dependence" in rejected[0].reason
    assert_certificates_complete(tp)

    names = ("gain", "acc", "img", "u", "v")
    inputs = {n: rng.standard_normal((chunks, 256)).astype(np.float32)
              for n in names}
    off = run_translated(translate(source, rewrite=False),
                         inputs=dict(inputs))
    on = run_translated(tp, inputs=dict(inputs))
    for n in names:
        np.testing.assert_array_equal(off.buffers[n], on.buffers[n],
                                      err_msg=n)

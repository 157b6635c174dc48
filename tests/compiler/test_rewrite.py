"""The verified schedule rewrite layer: fuse / reorder / split.

Every rewrite must be gated by the legality checker, logged as an
MEA018/MEA019 decision, and carried on a machine-checked certificate
whose facts name the prover that discharged each obligation.  The
translation-validation half (original-vs-rewritten functional
equality over the whole corpus) lives in
``test_rewrite_validation.py``; this file pins the primitives, the
decision log, and the CLI plumbing.
"""

import json
from pathlib import Path

import numpy as np

from repro.compiler import FusedStep, run_translated, translate
from repro.compiler.analyze import main as analyze_main
from repro.compiler.diagnostics import CODE_TITLES
from repro.compiler.passes import DescriptorStep

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "legacy"
FUSABLE = (CORPUS / "fusable_chain.c").read_text()
ILLEGAL = (CORPUS / "illegal_fusion.c").read_text()

HOIST_CHAIN = """
#define R 16
#define C 16
#define N 256
float x[N];
float y[N];
float img[N];
float a[N];
float b[N];
cblas_saxpy(N, 2.0, &x[0], 1, &y[0], 1);
cblas_saxpy(N, 3.0, &a[0], 1, &b[0], 1);
mkl_somatcopy(R, C, 1.0, &y[0], &img[0]);
"""

LARGE_AXPY = """
#define N 262144
float *x;
float *y;
x = malloc(sizeof(float) * N);
y = malloc(sizeof(float) * N);
cblas_saxpy(N, 3.0, x, 1, y, 1);
"""


def scheduled_steps(tp):
    return [s for item in tp.items if isinstance(item, DescriptorStep)
            for s in item.items]


def fused_steps(tp):
    return [s for s in scheduled_steps(tp) if isinstance(s, FusedStep)]


def chain_inputs(shape=(8, 256), seed=7):
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(shape).astype(np.float32)
            for name in ("gain", "acc", "img")}


# -- the fuse primitive -------------------------------------------------------

def test_fusion_applied_with_certificate():
    tp = translate(FUSABLE, rewrite=True)
    fused = fused_steps(tp)
    assert len(fused) == 1
    step = fused[0]
    assert step.looped and step.iterations == 8
    assert step.intermediates == ("acc",)
    assert [s.accel for s in step.steps] == ["AXPY", "RESHP"]

    cert = step.certificate
    assert cert is not None
    kinds = {f.kind for f in cert.facts}
    assert {"fuse-linkage-exact", "fuse-cross-iteration-disjoint",
            "fuse-intermediate-dead"} <= kinds
    # every rewrite obligation names the prover that discharged it
    assert all(f.prover for f in cert.facts
               if f.kind.startswith("fuse-"))
    # the merged certificate keeps the members' own analysis facts
    assert any(not f.kind.startswith("fuse-") for f in cert.facts)

    applied = [r for r in tp.rewrites if r.applied]
    assert [r.primitive for r in applied] == ["fuse"]
    assert applied[0].code == "MEA018"
    assert applied[0].prover
    assert "acc" in applied[0].buffers
    # fusion halves the descriptor count of the two-loop program
    assert tp.descriptor_count() < translate(
        FUSABLE, rewrite=False).descriptor_count()


def test_fusion_preserves_numerics_and_saves_energy():
    ins = chain_inputs()
    off = run_translated(translate(FUSABLE, rewrite=False),
                         inputs=dict(ins))
    on = run_translated(translate(FUSABLE, rewrite=True),
                        inputs=dict(ins))
    for name in ("acc", "img"):
        np.testing.assert_array_equal(off.buffers[name],
                                      on.buffers[name])
    # the elided DRAM round-trip of 'acc' is real energy
    assert on.result.energy < off.result.energy
    assert on.result.time < off.result.time


def test_fused_step_prices_skipped_dram_traffic():
    tp = translate(FUSABLE, rewrite=True)
    step = fused_steps(tp)[0]
    # 8 iterations x 256 floats written + re-read = 2 * 8 KiB
    assert step.dram_bytes_skipped(tp.env) == 2 * 8 * 256 * 4


def test_illegal_fusion_rejected_with_named_dependence():
    tp = translate(ILLEGAL, rewrite=True)
    assert fused_steps(tp) == []
    assert not any(r.applied for r in tp.rewrites)
    rejected = [r for r in tp.rewrites if r.primitive == "fuse"]
    assert rejected and rejected[0].code == "MEA019"
    assert "blocking dependence" in rejected[0].reason
    assert rejected[0].buffers == ("acc",)
    codes = [d.code for d in tp.diagnostics]
    assert "MEA019" in codes and "MEA018" not in codes

    ins = chain_inputs(seed=11)
    off = run_translated(translate(ILLEGAL, rewrite=False),
                         inputs=dict(ins))
    on = run_translated(tp, inputs=dict(ins))
    for name in ("acc", "img"):
        np.testing.assert_array_equal(off.buffers[name],
                                      on.buffers[name])


# -- the reorder primitive ----------------------------------------------------

def test_hoist_reorders_past_independent_step_then_fuses():
    tp = translate(HOIST_CHAIN, rewrite=True)
    prims = [(r.primitive, r.applied) for r in tp.rewrites]
    assert ("reorder", True) in prims and ("fuse", True) in prims
    reorder = next(r for r in tp.rewrites if r.primitive == "reorder")
    assert "hoisted past 1 independent step" in reorder.detail
    assert reorder.prover == "alias-partition"
    fused = fused_steps(tp)
    assert len(fused) == 1 and not fused[0].looped
    assert fused[0].intermediates == ("y",)

    rng = np.random.default_rng(2)
    ins = {n: rng.standard_normal(256).astype(np.float32)
           for n in ("x", "y", "a", "b")}
    off = run_translated(translate(HOIST_CHAIN, rewrite=False),
                         inputs=dict(ins))
    on = run_translated(tp, inputs=dict(ins))
    for name in ("y", "b", "img"):
        np.testing.assert_array_equal(off.buffers[name],
                                      on.buffers[name])


# -- the split primitive ------------------------------------------------------

def test_split_tiles_large_axpy_exactly():
    tp = translate(LARGE_AXPY, rewrite=True)
    split = [r for r in tp.rewrites if r.primitive == "split"]
    assert split and split[0].applied and split[0].code == "MEA018"
    (step,) = scheduled_steps(tp)
    assert step.trips == (8,) and step.looped
    kinds = {f.kind for f in step.certificate.facts}
    assert {"split-exact-partition", "carried-dependence-free"} <= kinds

    rng = np.random.default_rng(3)
    x = rng.standard_normal(262144).astype(np.float32)
    y = rng.standard_normal(262144).astype(np.float32)
    on = run_translated(tp, inputs={"x": x, "y": y})
    off = run_translated(translate(LARGE_AXPY, rewrite=False),
                         inputs={"x": x, "y": y})
    np.testing.assert_array_equal(on.buffers["y"], off.buffers["y"])
    np.testing.assert_allclose(on.buffers["y"], 3.0 * x + y,
                               rtol=1e-5)


def test_split_respects_size_threshold():
    small = LARGE_AXPY.replace("262144", "1024")
    tp = translate(small, rewrite=True)
    assert not any(r.primitive == "split" for r in tp.rewrites)
    (step,) = scheduled_steps(tp)
    assert not step.looped


# -- rewrites on and off ------------------------------------------------------

def test_rewrites_off_is_the_identity():
    base = translate(FUSABLE)
    on = translate(FUSABLE, rewrite=True)
    off = translate(FUSABLE, rewrite=False)
    # the default translation is the verified engine's
    assert base.items == on.items
    assert base.rewrites == on.rewrites != ()
    assert [d.code for d in base.diagnostics] \
        == [d.code for d in on.diagnostics]
    # rewrites off: one PASS per call site, no decision logged
    assert off.rewrites == ()
    assert fused_steps(off) == []
    assert "MEA018" not in [d.code for d in off.diagnostics]


def test_rewrite_codes_registered():
    assert CODE_TITLES["MEA018"] == "schedule rewrite applied"
    assert CODE_TITLES["MEA019"] == "schedule rewrite rejected"


# -- CLI plumbing -------------------------------------------------------------

def test_cli_json_rewrites_gated_by_flag(tmp_path, capsys):
    path = tmp_path / "fusable.c"
    path.write_text(FUSABLE)
    assert analyze_main([str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rewrites" not in payload[0]          # backward compatible

    assert analyze_main([str(path), "--json", "--rewrite"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rewrites = payload[0]["rewrites"]
    applied = [r for r in rewrites if r["applied"]]
    assert applied and applied[0]["code"] == "MEA018"
    assert applied[0]["primitive"] == "fuse" and applied[0]["prover"]
    codes = {d["code"] for d in payload[0]["diagnostics"]}
    assert "MEA018" in codes


def test_cli_no_rewrite_flag(tmp_path, capsys):
    path = tmp_path / "fusable.c"
    path.write_text(FUSABLE)
    assert analyze_main([str(path), "--no-rewrite", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rewrites" not in payload[0]


def test_cli_sarif_rewrite_properties(tmp_path, capsys):
    ok = tmp_path / "fusable.c"
    bad = tmp_path / "illegal.c"
    ok.write_text(FUSABLE)
    bad.write_text(ILLEGAL)
    assert analyze_main([str(ok), str(bad), "--sarif",
                         "--rewrite"]) == 0
    log = json.loads(capsys.readouterr().out)
    props = log["runs"][0]["properties"]
    assert {str(ok), str(bad)} <= set(props["rewrites"])
    assert any(r["code"] == "MEA019" for r in props["rewrites"][str(bad)])
    rules = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {"MEA018", "MEA019"} <= rules

    assert analyze_main([str(ok), "--sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert "rewrites" not in log["runs"][0]["properties"]

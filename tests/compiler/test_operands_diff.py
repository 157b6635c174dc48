"""The compiler reads each accelerator's operands from its core.

Which bytes an accelerated call reads and writes, and whether a shared
write is an in-place transform or a reduction, is declared once per
accelerator core (``AcceleratorCore.operands``, ``inplace_exact`` and
``accumulates``). The alias analysis, the race classifier and the
recognizer's buffer lists all read that declaration. These tests hold
them against the hand-kept tables the compiler used before
(``field_extents`` and friends in :mod:`tests.compiler.helpers`) on
every accelerated step of the legacy corpus, the compiler tests' C
sources, the STAP and SAR presets and the generated programs.
"""

import dataclasses

import pytest

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PAPER_PRESETS, stap_source
from repro.compiler import AccelCallStep
from repro.compiler.analysis.alias import inplace_ok, step_accesses
from repro.compiler.analysis.deptest import DepVerdict
from repro.compiler.analysis.races import is_recognized_reduction
from tests.compiler.helpers import (BUFFER_FIELDS, cdotc_nest_source,
                                    chain_source, corner_turn_source,
                                    reference_buffer_lists,
                                    reference_inplace_ok,
                                    reference_is_recognized_reduction,
                                    reference_step_accesses,
                                    saxpy_nest_source)
from tests.compiler.test_step_proof_diff import PROGRAMS as PROOF_PROGRAMS
from tests.compiler.test_step_proof_diff import _recognized

#: SPMV, a strided DOT, both GEMV reduction branches and an in-place
#: transpose
SPMV_GEMV_INPLACE = """
#define R 64
float vals[960];
long rowptr[65];
long colidx[960];
float v[R];
float w[R];
mkl_scsrgemv(R, &vals[0], &rowptr[0], &colidx[0], &v[0], &w[0]);
float d[1];
cblas_sdot_sub(8, &v[1], 3, &w[0], -2, &d[0]);
#define M 8
#define N 16
float a[M][N];
float x[N];
float y[M];
float z[M];
float t[N][N];
cblas_sgemv(101, 111, M, N, 1.0, &a[0][0], N, &x[0], 1, 1.0, &y[0], 1);
cblas_sgemv(101, 111, M, N, 2.0, &a[0][0], N, &x[0], 1, 0.5, &z[0], 1);
mkl_simatcopy(N, N, 1.0, &t[0][0]);
"""

PROGRAMS = {
    **PROOF_PROGRAMS,
    "spmv_gemv_inplace": SPMV_GEMV_INPLACE,
    **{f"stap_paper_{name}": stap_source(cfg)
       for name, cfg in PAPER_PRESETS.items()},
    **{f"sar_{side}": sar_source(SarConfig(side))
       for side in (64, 128, 256, 512, 1024, 2048, 4096, 8192)},
    **{f"saxpy_{r}x{n}": saxpy_nest_source(r, n, 0.25)
       for r, n in ((3, 8), (16, 256))},
    **{f"cdotc_{a}x{b}x{t}": cdotc_nest_source(a, b, t)
       for a, b, t in ((2, 2, 8), (8, 4, 32))},
    **{f"corner_{r}x{c}": corner_turn_source(r, c)
       for r, c in ((2, 64), (16, 16), (32, 8))},
    **{f"chain_{chunks}_{match}_{mid}": chain_source(chunks, 1.25, match,
                                                     mid)
       for chunks in (2, 32) for match in (True, False)
       for mid in (True, False)},
}


def _steps():
    out = []
    for name, source in PROGRAMS.items():
        recognized = _recognized(source)
        if recognized is None:
            continue
        _, schedule = recognized
        out.extend((f"{name}[{idx}]", step, schedule.env)
                   for idx, step in enumerate(schedule.steps)
                   if isinstance(step, AccelCallStep))
    return out


STEPS = _steps()
IDS = [name for name, _, _ in STEPS]


def test_corpus_covers_every_accelerator():
    accels = {step.accel for _, step, _ in STEPS}
    assert accels == set(BUFFER_FIELDS)
    betas = {step.proto.scalars["beta"] for _, step, _ in STEPS
             if step.accel == "GEMV"}
    assert 1.0 in betas and betas - {1.0}
    assert any(step.proto.addrs["src_pa"] == step.proto.addrs["dst_pa"]
               for _, step, _ in STEPS if step.accel == "RESHP")


@pytest.mark.parametrize("name,step,env", STEPS, ids=IDS)
def test_step_accesses_match_the_tables(name, step, env):
    # field, buffer, offset, extent, reads and writes, in field order
    assert step_accesses(step, env) == reference_step_accesses(step, env)


@pytest.mark.parametrize("name,step,env", STEPS, ids=IDS)
def test_buffer_lists_match_the_builders(name, step, env):
    assert (step.in_bufs, step.out_bufs) == reference_buffer_lists(step)


@pytest.mark.parametrize("name,step,env", STEPS, ids=IDS)
def test_reduction_rule_matches(name, step, env):
    assert is_recognized_reduction(step) \
        == reference_is_recognized_reduction(step)


@pytest.mark.parametrize("beta", [1.0, 1, 0.5, 0.0, -1.0, 2.0])
def test_gemv_reduction_follows_beta(beta):
    step = next(step for _, step, _ in STEPS if step.accel == "GEMV")
    proto = dataclasses.replace(
        step.proto, scalars={**step.proto.scalars, "beta": beta})
    step = dataclasses.replace(step, proto=proto)
    assert is_recognized_reduction(step) \
        == reference_is_recognized_reduction(step) == (beta == 1.0)


@pytest.mark.parametrize("accel", sorted(BUFFER_FIELDS))
@pytest.mark.parametrize("relation",
                         ["disjoint", "exact", "overlap", "unknown"])
def test_inplace_rule_matches(accel, relation):
    verdict = DepVerdict(relation, "constant-distance")
    assert inplace_ok(accel, verdict) \
        == reference_inplace_ok(accel, verdict)


def test_extents_follow_the_core_not_the_c_type():
    """The core maps ``n`` float32 elements for a saxpy whatever the C
    type of its buffers, so the extent is ``4 n`` bytes on double
    arrays too (the old tables gave ``8 n``)."""
    _, schedule = _recognized("""
double x[64];
double y[64];
cblas_saxpy(32, 2.0, &x[0], 1, &y[0], 1);
""")
    (step,) = schedule.accel_steps()
    assert [a.extent for a in step_accesses(step, schedule.env)] \
        == [128, 128]
    assert [a.extent for a in reference_step_accesses(step, schedule.env)] \
        == [256, 256]

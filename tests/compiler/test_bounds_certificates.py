"""MEA015/MEA016 static bounds rules and rewrite-safety certificates."""

import json
from pathlib import Path

import pytest

from repro.compiler import (AnalysisRejected, HostCallStep, translate)
from repro.compiler.analysis import analyze_source
from repro.compiler.analyze import main as analyze_main
from repro.compiler.recognizer import AccelCallStep

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "legacy"


def codes_of(source):
    return sorted({d.code for d in analyze_source(source).report})


# -- MEA015: provable out-of-bounds -------------------------------------------

# iteration 7 reads src[112..127] and writes out[112..127] of
# 100-element buffers: every offset variable is an exact loop variable,
# so the violation is provable and the program must be rejected
OOB_STRIDE = """
#define N 16
#define CHUNKS 8
float src[100];
float out[100];
int i;
for (i = 0; i < CHUNKS; i++) {
  cblas_saxpy(N, 1.0, &src[i * 16], 1, &out[i * 16], 1);
}
"""

# identical shape over 128-element buffers: max byte touched is 511
# of [0, 512) — provably inside, no finding at all
IN_BOUNDS_STRIDE = """
#define N 16
#define CHUNKS 8
float src[128];
float out[128];
int i;
for (i = 0; i < CHUNKS; i++) {
  cblas_saxpy(N, 1.0, &src[i * 16], 1, &out[i * 16], 1);
}
"""

# one-past-the-end by a single element on the write side only
OOB_BY_ONE = """
#define N 8
float src[8];
float out[7];
cblas_saxpy(N, 1.0, &src[0], 1, &out[0], 1);
"""


def test_mea015_strided_overrun_detected():
    report = analyze_source(OOB_STRIDE).report
    diags = report.by_code("MEA015")
    assert diags and all(str(d.severity) == "error" for d in diags)
    assert any("src" in d.buffers for d in diags)
    assert all(d.prover == "interval-bounds" for d in diags)


def test_mea015_rejects_translation():
    with pytest.raises(AnalysisRejected) as excinfo:
        translate(OOB_STRIDE)
    assert excinfo.value.code == "MEA015"


def test_mea015_clean_when_footprint_fits():
    assert codes_of(IN_BOUNDS_STRIDE) == []


def test_mea015_off_by_one_element():
    report = analyze_source(OOB_BY_ONE).report
    diags = report.by_code("MEA015")
    assert diags
    assert all("out" in d.buffers for d in diags)
    assert "[0, 31]" in diags[0].message         # bytes touched
    assert "[0, 28)" in diags[0].message         # allocation


# -- MEA016: possibly out-of-bounds -------------------------------------------

# the base offset is a runtime scalar the range analysis cannot bound:
# the footprint may or may not fit, so the call demotes with a warning
UNBOUNDED_OFFSET = """
#define N 16
float src[100];
float out[100];
int k;
cblas_saxpy(N, 1.0, &src[k], 1, &out[0], 1);
"""

# the same scalar bound by a constant initialiser: provably inside
BOUNDED_OFFSET = """
#define N 16
float src[100];
float out[100];
int k = 4;
cblas_saxpy(N, 1.0, &src[k], 1, &out[0], 1);
"""


def test_mea016_unbounded_offset_warns_and_demotes():
    report = analyze_source(UNBOUNDED_OFFSET).report
    diags = report.by_code("MEA016")
    assert diags and all(str(d.severity) == "warning" for d in diags)
    assert "k" in diags[0].message
    t = translate(UNBOUNDED_OFFSET)
    assert t.demoted_steps
    assert any(isinstance(i, HostCallStep) and i.demoted
               for i in t.items)
    assert t.certificates == ()


def test_mea016_clean_when_scalar_is_constant():
    assert codes_of(BOUNDED_OFFSET) == []


# -- MEA017: prover fallback --------------------------------------------------

# mismatched strides: the write walks 12-byte steps, the read 20-byte
# steps of the same buffer. They do collide (20*3 == 12*5), but no
# symbolic prover can see it: the gcd lattice admits the collision,
# and Banerjee's ">" direction stays feasible. Only the bounded
# enumeration fallback decides — which must be surfaced as MEA017
# alongside the race findings it produced.
INTERLEAVED_RACE = """
#define M 8
float a[256];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(1, 1.0, &a[i * 5], 1, &a[i * 3], 1);
}
"""


def test_mea017_rides_along_with_fallback_verdicts():
    report = analyze_source(INTERLEAVED_RACE).report
    infos = report.by_code("MEA017")
    assert infos and all(str(d.severity) == "info" for d in infos)
    assert all(d.prover == "enumeration" for d in infos)
    assert "enumeration decided" in infos[0].message


def test_mea017_never_fires_on_clean_corpus():
    for name in ("saxpy_nest.c", "sar_fns.c", "stap_small.c"):
        source = (EXAMPLES / name).read_text()
        assert "MEA017" not in codes_of(source), name


# -- certificates -------------------------------------------------------------

CLEAN_NEST = """
#define L 8
#define B 4
#define MF 32
float det_in[L][B][MF];
float det_out[L][B][MF];
#pragma omp parallel for
for (l = 0; l < L; l++) {
  for (b = 0; b < B; b++) {
    cblas_saxpy(MF, 1.0, &det_in[l][b][0], 1, &det_out[l][b][0], 1);
  }
}
"""


def test_every_offloaded_step_carries_a_certificate():
    result = analyze_source(CLEAN_NEST)
    accel_steps = [i for i, s in enumerate(result.schedule.steps)
                   if isinstance(s, AccelCallStep)]
    certified = sorted(c.step_index for c in result.certificates)
    assert certified == accel_steps
    cert = result.certificates[0]
    assert cert.accel == "AXPY"
    kinds = cert.kinds()
    assert "iteration-disjoint" in kinds
    assert "bounds-respected" in kinds
    facts = {f.kind: f.prover for f in cert.facts}
    assert facts["iteration-disjoint"] in (
        "mixed-radix", "gcd", "banerjee", "constant-distance")
    assert facts["bounds-respected"] == "interval-bounds"


def test_translate_attaches_certificates():
    t = translate(CLEAN_NEST)
    assert t.demoted_steps == ()
    assert len(t.certificates) == 1
    lowered = [s for s in t.schedule.steps
               if isinstance(s, AccelCallStep)]
    assert lowered


def test_clean_corpus_certificates_cover_all_offloads():
    for path in sorted(EXAMPLES.glob("*.c")):
        if path.name in ("racy_saxpy.c", "oob_stride.c"):
            continue
        result = analyze_source(path.read_text())
        offloaded = {i for i, s in enumerate(result.schedule.steps)
                     if isinstance(s, AccelCallStep)}
        demoted = {d.step_index for d in result.report
                   if d.step_index is not None
                   and str(d.severity) == "error"}
        certified = {c.step_index for c in result.certificates}
        assert offloaded - demoted <= certified, path.name


def test_json_output_carries_certificates(tmp_path, capsys):
    f = tmp_path / "clean.c"
    f.write_text(CLEAN_NEST)
    assert analyze_main([str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    certs = payload[0]["certificates"]
    assert certs and certs[0]["accel"] == "AXPY"
    kinds = {fact["kind"] for fact in certs[0]["facts"]}
    assert "iteration-disjoint" in kinds
    assert all("prover" in fact for fact in certs[0]["facts"])


def test_sarif_output_carries_certificates(tmp_path, capsys):
    f = tmp_path / "clean.c"
    f.write_text(CLEAN_NEST)
    assert analyze_main([str(f), "--sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    certs = log["runs"][0]["properties"]["certificates"]
    assert str(f) in certs
    assert certs[str(f)][0]["facts"]


def test_dot_reduction_example_certified():
    source = (EXAMPLES / "dot_reduction.c").read_text()
    result = analyze_source(source)
    assert not result.report.has_errors
    assert result.certificates
    kinds = result.certificates[0].kinds()
    assert "recognized-reduction" in kinds
    facts = {f.kind: f.prover for f in result.certificates[0].facts}
    assert facts["recognized-reduction"] == "loop-serialisation"


def test_oob_example_rejected():
    source = (EXAMPLES / "oob_stride.c").read_text()
    result = analyze_source(source)
    assert result.certificates == ()
    assert "MEA015" in {d.code for d in result.report}
    assert analyze_main([str(EXAMPLES / "oob_stride.c")]) == 1

"""Tests for the offload-safety analysis framework.

Every stable diagnostic code gets one triggering program and one clean
near-miss; plus the demotion/rejection wiring in ``translate`` and the
no-op property: analysis never changes the schedule of a program it
finds clean.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps.sar import SarConfig, sar_source
from repro.apps.stap import PRESETS, stap_source
from repro.compiler import (AccelCallStep, AnalysisRejected,
                            CompilerError, HostCallStep, PlanDestroyStep,
                            optimize, parse_source, recognize,
                            run_original, run_translated, translate)
from repro.compiler.analysis import (analyze_source, build_cfg,
                                     check_program)
from repro.compiler.analyze import main as analyze_main


def codes_of(source):
    return sorted({d.code for d in analyze_source(source).report})


# -- MEA001 use-before-init ---------------------------------------------------

USE_BEFORE_INIT = """
#define N 64
float* x;
float y[N];
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
x = malloc(N * sizeof(float));
free(x);
"""

INIT_THEN_USE = """
#define N 64
float* x;
float y[N];
x = malloc(N * sizeof(float));
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
free(x);
"""


def test_mea001_use_before_init():
    assert "MEA001" in codes_of(USE_BEFORE_INIT)


def test_mea001_clean_when_alloc_first():
    assert "MEA001" not in codes_of(INIT_THEN_USE)


# -- MEA002 in-place alias ----------------------------------------------------

ALIASED_SAXPY = """
#define N 256
float x[N];
cblas_saxpy(N, 2.0, &x[0], 1, &x[0], 1);
"""

DISJOINT_SAXPY = """
#define N 256
float x[N];
float y[N];
cblas_saxpy(N, 2.0, &x[0], 1, &y[0], 1);
"""

# src == dst exactly: an in-place transpose RESHP supports
INPLACE_TRANSPOSE = """
#define R 16
float a[R][R];
mkl_simatcopy(R, R, 1.0, &a[0][0]);
"""

# partial overlap between src and dst windows of the same buffer
OVERLAPPING_TRANSPOSE = """
#define R 8
float a[128];
mkl_somatcopy(R, R, 1.0, &a[0], &a[32]);
"""


def test_mea002_aliased_saxpy():
    report = analyze_source(ALIASED_SAXPY).report
    diags = report.by_code("MEA002")
    assert diags and diags[0].step_index is not None
    assert "x" in diags[0].buffers


def test_mea002_clean_on_disjoint_buffers():
    assert "MEA002" not in codes_of(DISJOINT_SAXPY)


def test_mea002_allows_exact_inplace_reshp():
    assert codes_of(INPLACE_TRANSPOSE) == []


def test_mea002_partial_overlap_is_error():
    assert "MEA002" in codes_of(OVERLAPPING_TRANSPOSE)


# -- MEA003 use-after-free ----------------------------------------------------

USE_AFTER_FREE = """
#define N 64
float* x;
float y[N];
x = malloc(N * sizeof(float));
free(x);
cblas_saxpy(N, 2.0, x, 1, &y[0], 1);
"""


def test_mea003_use_after_free():
    assert "MEA003" in codes_of(USE_AFTER_FREE)


def test_mea003_clean_when_freed_last():
    assert "MEA003" not in codes_of(INIT_THEN_USE)


# -- MEA004 double-free -------------------------------------------------------

DOUBLE_FREE = """
#define N 64
float* x;
float y[N];
x = malloc(N * sizeof(float));
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
free(x);
free(x);
"""


def test_mea004_double_free():
    assert "MEA004" in codes_of(DOUBLE_FREE)


def test_mea004_single_free_clean():
    assert "MEA004" not in codes_of(INIT_THEN_USE)


# -- MEA005 loop-carried dependence (serial nests) ----------------------------

# an omp nest accumulating into a shared output: since the race
# detector grew reduction recognition this is MEA010-info, not MEA005
SHARED_OUTPUT_NEST = """
#define N 16
#define M 8
float a[M][N];
float b[N];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(N, 1.0, &a[i][0], 1, &b[0], 1);
}
"""

# the same shape with NO pragma: compaction of the serial loop still
# requires iteration independence, so MEA005 keeps firing here
SERIAL_SHARED_NEST = """
#define N 16
#define M 8
float a[M][N];
float b[N];
for (i = 0; i < M; i++) {
  cblas_saxpy(N, 1.0, &a[i][0], 1, &b[0], 1);
}
"""

TILED_NEST = """
#define N 16
#define M 8
float a[M][N];
float b[M][N];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(N, 1.0, &a[i][0], 1, &b[i][0], 1);
}
"""


def test_mea005_shared_output_across_serial_iterations():
    report = analyze_source(SERIAL_SHARED_NEST).report
    diags = report.by_code("MEA005")
    assert diags and diags[0].step_index is not None


def test_mea005_defers_to_race_detector_under_omp():
    assert "MEA005" not in codes_of(SHARED_OUTPUT_NEST)


def test_mea005_clean_on_exact_tiling():
    assert "MEA005" not in codes_of(TILED_NEST)


# -- MEA006 plan executed after destroy ---------------------------------------

PLAN_PREFIX = """
#define N 8
complex src[N];
complex dst[N];
fftw_iodim dims = {N, 1, 1};
fftwf_plan p;
p = fftwf_plan_guru_dft(1, dims, 0, NULL, src, dst, FFTW_FORWARD, FFTW_ESTIMATE);
"""

EXECUTE_AFTER_DESTROY = PLAN_PREFIX + """
fftwf_destroy_plan(p);
fftwf_execute(p);
"""

DESTROY_AFTER_EXECUTE = PLAN_PREFIX + """
fftwf_execute(p);
fftwf_destroy_plan(p);
"""


def test_mea006_execute_after_destroy():
    assert "MEA006" in codes_of(EXECUTE_AFTER_DESTROY)


def test_mea006_destroy_after_execute_clean():
    assert codes_of(DESTROY_AFTER_EXECUTE) == []


# -- MEA007 dead buffer -------------------------------------------------------

DEAD_BUFFER = """
#define N 64
float* x;
float y[N];
float z[N];
x = malloc(N * sizeof(float));
cblas_saxpy(N, 2.0, &y[0], 1, &z[0], 1);
free(x);
"""


def test_mea007_dead_buffer_warns():
    report = analyze_source(DEAD_BUFFER).report
    diags = report.by_code("MEA007")
    assert diags and all(str(d.severity) == "warning" for d in diags)
    assert not report.has_errors


def test_mea007_consumed_buffer_clean():
    assert "MEA007" not in codes_of(INIT_THEN_USE)


# -- demotion and rejection wiring --------------------------------------------

def test_aliased_call_is_demoted_to_host():
    t = translate(ALIASED_SAXPY)
    assert t.demoted_steps
    hosts = [i for i in t.items if isinstance(i, HostCallStep)]
    assert hosts and hosts[0].demoted and hosts[0].accel == "AXPY"
    assert not any(isinstance(i, AccelCallStep) for i in t.items)


def test_demoted_call_still_computes():
    rng = np.random.default_rng(7)
    inputs = {"x": rng.standard_normal(256).astype(np.float32)}
    out = run_translated(ALIASED_SAXPY, inputs=inputs)
    np.testing.assert_allclose(out.buffers["x"], inputs["x"] * 3.0,
                               rtol=1e-6)
    assert out.result.time > 0 and out.result.energy > 0


def test_demoted_matches_original_interpreter():
    rng = np.random.default_rng(8)
    inputs = {"x": rng.standard_normal(256).astype(np.float32)}
    orig = run_original(ALIASED_SAXPY, inputs=inputs)
    trans = run_translated(ALIASED_SAXPY, inputs=inputs)
    np.testing.assert_allclose(orig.buffers["x"], trans.buffers["x"],
                               rtol=1e-6)


def test_lifecycle_error_rejects_program():
    with pytest.raises(AnalysisRejected) as excinfo:
        translate(USE_AFTER_FREE)
    assert excinfo.value.code == "MEA003"


def test_looped_fft_demotes_and_destroy_step_is_inert():
    src = PLAN_PREFIX + """
#pragma omp parallel for
for (i = 0; i < 4; i++) {
  fftwf_execute(p);
}
fftwf_destroy_plan(p);
"""
    t = translate(src)
    assert t.demoted_steps
    assert any(isinstance(i, PlanDestroyStep) for i in t.items)
    rng = np.random.default_rng(9)
    vec = (rng.standard_normal(8)
           + 1j * rng.standard_normal(8)).astype(np.complex64)
    out = run_translated(src, inputs={"src": vec})
    np.testing.assert_allclose(out.buffers["dst"],
                               np.fft.fft(vec).astype(np.complex64),
                               rtol=1e-4, atol=1e-4)


# -- the clean-program property -----------------------------------------------

CLEAN_SOURCES = {
    "init-then-use": INIT_THEN_USE,
    "disjoint-saxpy": DISJOINT_SAXPY,
    "inplace-transpose": INPLACE_TRANSPOSE,
    "tiled-nest": TILED_NEST,
    "plan-lifecycle": DESTROY_AFTER_EXECUTE,
    "stap-small": stap_source(PRESETS["small"]),
    "stap-medium": stap_source(PRESETS["medium"]),
    "sar-64": sar_source(SarConfig(64)),
}


@pytest.mark.parametrize("name", sorted(CLEAN_SOURCES))
def test_examples_are_diagnostic_free(name):
    source = CLEAN_SOURCES[name]
    assert codes_of(source) == []


@pytest.mark.parametrize("name", sorted(CLEAN_SOURCES))
def test_analysis_never_changes_a_clean_schedule(name):
    source = CLEAN_SOURCES[name]
    checked = translate(source, rewrite=False)
    unchecked = recognize(parse_source(source))
    assert checked.demoted_steps == ()
    assert checked.items == optimize(unchecked)
    assert checked.schedule.steps == unchecked.steps


# -- report plumbing and CFG shape --------------------------------------------

def test_report_json_roundtrip():
    report = analyze_source(ALIASED_SAXPY).report
    payload = json.loads(report.to_json())
    assert payload["schema"] == "mea-analysis/v1"
    assert payload["error_count"] >= 1
    diag = payload["diagnostics"][0]
    assert diag["code"] == "MEA002" and diag["line"] == 4


def test_cfg_loop_structure():
    program = parse_source(TILED_NEST)
    cfg = build_cfg(program)
    headers = [b for b in cfg.blocks if b.kind == "header"]
    assert len(headers) == 1
    header = headers[0]
    # back edge: some block inside the loop returns to the header
    assert any(header.bid in cfg.block(p).succs
               for p in header.preds if p != cfg.entry)
    body = [b for b in cfg.blocks if b.loop_vars == ("i",)]
    assert body, "loop body blocks carry the loop variable"


def test_check_program_direct_entry():
    program = parse_source(DOUBLE_FREE)
    schedule = recognize(program)
    report = check_program(program, schedule)
    assert report.by_code("MEA004")


# -- CLI ---------------------------------------------------------------------

def test_cli_clean_and_dirty(tmp_path, capsys):
    clean = tmp_path / "clean.c"
    clean.write_text(DISJOINT_SAXPY)
    dirty = tmp_path / "dirty.c"
    dirty.write_text(ALIASED_SAXPY)
    assert analyze_main([str(clean)]) == 0
    assert analyze_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "clean (0 diagnostics)" in out
    assert "MEA002" in out


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.c"
    dirty.write_text(ALIASED_SAXPY)
    assert analyze_main([str(dirty), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["file"] == str(dirty)
    assert payload[0]["diagnostics"][0]["code"] == "MEA002"


def test_cli_unparseable_source(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("float x[;\n")
    assert analyze_main([str(bad)]) == 1


@pytest.mark.parametrize("source, message", [
    ("float a[4] @;\n", "line 1: unexpected character '@'"),  # lexer
    ("float a[;\n", "line 1: unexpected token ';'"),          # parser
], ids=["lexer", "parser"])
def test_parse_errors_are_compiler_errors(source, message):
    with pytest.raises(CompilerError) as excinfo:
        analyze_source(source)
    assert excinfo.value.code == "MEA013"
    assert excinfo.value.message == message


def test_cli_missing_file(tmp_path):
    assert analyze_main([str(tmp_path / "nope.c")]) == 1


# -- CLI: multi-file, SARIF, deterministic ordering ---------------------------

# lifecycle checks run before aliasing, so the MEA003 on the later
# line is *generated* before the MEA002 on the earlier one — only the
# final position sort makes the report order deterministic
UNSORTED_FINDINGS = """
#define N 64
float a[N];
float* x;
float y[N];
cblas_saxpy(N, 2.0, &a[0], 1, &a[0], 1);
x = malloc(N * sizeof(float));
free(x);
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
"""


def test_diagnostics_sorted_by_position():
    diags = list(analyze_source(UNSORTED_FINDINGS).report)
    assert [d.code for d in diags[:2]] == ["MEA002", "MEA003"]
    keys = [(d.loc.line, d.loc.col or 0, d.code)
            for d in diags if d.loc is not None]
    assert keys == sorted(keys)


def test_cli_multi_file_exit_and_listing(tmp_path, capsys):
    clean = tmp_path / "clean.c"
    clean.write_text(DISJOINT_SAXPY)
    dirty = tmp_path / "dirty.c"
    dirty.write_text(ALIASED_SAXPY)
    assert analyze_main([str(clean), str(dirty)]) == 1
    out = capsys.readouterr().out
    assert f"{clean}: clean (0 diagnostics)" in out
    assert str(dirty) in out and "MEA002" in out


def test_cli_sarif_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.c"
    dirty.write_text(ALIASED_SAXPY)
    clean = tmp_path / "clean.c"
    clean.write_text(DISJOINT_SAXPY)
    assert analyze_main([str(dirty), str(clean), "--sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == "mea-analyze"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"MEA001", "MEA008", "MEA012"} <= rule_ids
    results = log["runs"][0]["results"]
    assert results and results[0]["ruleId"] == "MEA002"
    assert results[0]["level"] == "error"
    where = results[0]["locations"][0]["physicalLocation"]
    assert where["artifactLocation"]["uri"] == str(dirty)
    assert where["region"]["startLine"] == 4


def test_cli_sarif_clean_exit_zero(tmp_path, capsys):
    clean = tmp_path / "clean.c"
    clean.write_text(DISJOINT_SAXPY)
    assert analyze_main([str(clean), "--sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_cli_json_and_sarif_conflict(tmp_path):
    clean = tmp_path / "c.c"
    clean.write_text(DISJOINT_SAXPY)
    with pytest.raises(SystemExit):
        analyze_main([str(clean), "--json", "--sarif"])


# -- the checked-in example corpus --------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "legacy"
CLEAN_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.c")
                        if p.name not in ("racy_saxpy.c",
                                          "oob_stride.c"))


@pytest.mark.parametrize("name", CLEAN_EXAMPLES)
def test_clean_example_file_passes_cli(name):
    assert analyze_main([str(EXAMPLES / name)]) == 0


def test_racy_example_fails_cli(capsys):
    assert analyze_main([str(EXAMPLES / "racy_saxpy.c")]) == 1
    out = capsys.readouterr().out
    assert "MEA008" in out and "via main -> accumulate" in out

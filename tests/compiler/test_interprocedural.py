"""Interprocedural analysis and the OpenMP race detector.

Covers the whole-program side of the offload-safety checker: the C
subset's user-defined ``void`` functions, the call graph, per-function
effect summaries, and the race classification of accelerated calls
collapsed out of ``#pragma omp parallel for`` nests. Every new code
MEA008–MEA012 gets at least one triggering program and one clean
near-miss.
"""

import numpy as np
import pytest

from repro.compiler import (AccelCallStep, AnalysisRejected,
                            HostCallStep, RecognizerError, parse_source,
                            recognize, run_original, run_translated,
                            translate)
from repro.compiler.analysis import (analyze_source, build_call_graph,
                                     compute_summaries)
from repro.core import MealibSystem


def codes_of(source):
    return sorted({d.code for d in analyze_source(source).report})


def report_of(source):
    return analyze_source(source).report


# -- fixtures -----------------------------------------------------------------

# clean multi-function program: an omp nest calling a helper whose
# saxpy lands on a disjoint row per iteration
CLEAN_FN = """
#define N 64
#define M 8
float a[M][N];
float b[M][N];
void scale_row(float* x, float* y, int n) {
  cblas_saxpy(n, 2.0, x, 1, y, 1);
}
#pragma omp parallel for
for (i = 0; i < M; i++) {
  scale_row(&a[i][0], &b[i][0], N);
}
"""

# MEA008: every iteration accumulates into a window overlapping its
# neighbour's (windows of 8 floats advancing by 4)
WW_RACE = """
#define M 8
float a[128];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(8, 1.0, &a[64], 1, &a[i*4], 1);
}
"""

# MEA009: the write window of iteration i exactly covers the x-read
# window of iteration i+1; writes themselves stay disjoint
RW_RACE = """
#define M 8
float a[256];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(4, 1.0, &a[i*4], 1, &a[i*4+4], 1);
}
"""

# same shape with the write windows pushed far past every read window
RW_DISJOINT = """
#define M 8
float a[256];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(4, 1.0, &a[i*4], 1, &a[i*4+128], 1);
}
"""

# recognized reduction: AXPY accumulating into one shared vector
REDUCTION = """
#define N 16
#define M 8
float a[M][N];
float b[N];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(N, 1.0, &a[i][0], 1, &b[0], 1);
}
"""

# DOT-family reduction: every iteration deposits its partial result
# into the one shared *_sub scalar; the LOOP descriptor serialises the
# deposits, so the offload reproduces the serial final value
DOT_SUB_REDUCTION = """
#define N 16
#define M 8
float a[M][N];
float b[N];
float out[4];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_sdot_sub(N, &a[i][0], 1, &b[0], 1, &out[0]);
}
"""

# unrecognized: GEMV with beta == 0 *overwrites* the shared y from
# every iteration — not an accumulation, so the final value races
UNRECOGNIZED_REDUCTION = """
#define N 16
#define M 8
float a[N][N];
float x[N];
float y[N];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_sgemv(CblasRowMajor, CblasNoTrans, N, N, 1.0, &a[0][0], N,
              &x[0], 1, 0.0, &y[0], 1);
}
"""

DISJOINT_NEST = """
#define N 16
#define M 8
float a[M][N];
float b[M][N];
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_saxpy(N, 1.0, &a[i][0], 1, &b[i][0], 1);
}
"""

# mutual recursion: no summary can exist, and a branchless recursive
# chain cannot terminate — rejected outright with MEA011
RECURSIVE = """
#define N 8
float x[N];
float y[N];
void f(float* a, float* b) {
  g(a, b);
}
void g(float* a, float* b) {
  f(a, b);
}
f(&x[0], &y[0]);
"""

NONRECURSIVE_CHAIN = """
#define N 8
float x[N];
float y[N];
void inner(float* a, float* b) {
  cblas_saxpy(N, 2.0, a, 1, b, 1);
}
void outer(float* a, float* b) {
  inner(a, b);
}
outer(&x[0], &y[0]);
"""

# MEA011: `src`/`dst` escape into FFTW plan state inside the callee,
# then an omp nest touches them — conservative demotion
ESCAPE_UNDER_OMP = """
#define N 8
#define M 4
complex src[N];
complex dst[N];
complex w[M][N];
fftw_iodim dims = {N, 1, 1};
fftwf_plan p;
void mk_plan(complex* a, complex* b) {
  p = fftwf_plan_guru_dft(1, dims, 0, NULL, a, b, FFTW_FORWARD, FFTW_ESTIMATE);
}
mk_plan(&src[0], &dst[0]);
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_cdotc_sub(N, &w[i][0], 1, &src[0], 1, &dst[i]);
}
fftwf_execute(p);
fftwf_destroy_plan(p);
"""

# negative: the plan is made in the main body, so the escape is
# visible to the intra-procedural alias machinery and classification
# proceeds normally (the nest itself is iteration-disjoint reads)
ESCAPE_IN_MAIN = """
#define N 8
#define M 4
complex src[N];
complex dst[N];
complex w[M][N];
fftw_iodim dims = {N, 1, 1};
fftwf_plan p;
p = fftwf_plan_guru_dft(1, dims, 0, NULL, &src[0], &dst[0], FFTW_FORWARD, FFTW_ESTIMATE);
#pragma omp parallel for
for (i = 0; i < M; i++) {
  cblas_cdotc_sub(N, &w[i][0], 1, &src[0], 1, &dst[i]);
}
fftwf_execute(p);
fftwf_destroy_plan(p);
"""

# MEA012: the callee's saxpy reads a buffer main already freed
USE_AFTER_FREE_VIA_CALLEE = """
#define N 64
float* x;
float y[N];
void consume(float* p, float* q) {
  cblas_saxpy(N, 2.0, p, 1, q, 1);
}
x = malloc(N * sizeof(float));
free(x);
consume(&x[0], &y[0]);
"""

USE_THEN_FREE_VIA_CALLEE = """
#define N 64
float* x;
float y[N];
void consume(float* p, float* q) {
  cblas_saxpy(N, 2.0, p, 1, q, 1);
}
x = malloc(N * sizeof(float));
consume(&x[0], &y[0]);
free(x);
"""

# double free where the second free happens through a helper
DOUBLE_FREE_VIA_CALLEE = """
#define N 64
float* x;
float y[N];
void release(float* p) {
  free(p);
}
x = malloc(N * sizeof(float));
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
release(&x[0]);
free(x);
"""

SINGLE_FREE_VIA_CALLEE = """
#define N 64
float* x;
float y[N];
void release(float* p) {
  free(p);
}
x = malloc(N * sizeof(float));
cblas_saxpy(N, 2.0, &y[0], 1, x, 1);
release(&x[0]);
"""


# -- frontend: functions, call graph, summaries -------------------------------

def test_parse_functions_and_function_map():
    program = parse_source(CLEAN_FN)
    fmap = program.function_map()
    assert set(fmap) == {"scale_row"}
    params = fmap["scale_row"].params
    assert [(p.name, p.pointer) for p in params] == [
        ("x", True), ("y", True), ("n", False)]


def test_call_graph_topo_and_recursion():
    graph = build_call_graph(parse_source(NONRECURSIVE_CHAIN))
    order = graph.topo_order()
    assert order.index("inner") < order.index("outer")
    assert not graph.recursive()

    cyclic = build_call_graph(parse_source(RECURSIVE))
    assert cyclic.recursive() == {"f", "g"}


def test_summaries_bind_param_targets():
    program = parse_source(CLEAN_FN)
    schedule_env = recognize(parse_source(CLEAN_FN)).env
    summaries = compute_summaries(program, schedule_env)
    summary = summaries["scale_row"]
    assert [(e.kind, e.target, e.chain) for e in summary.events] == [
        ("read", ("param", "x"), ()), ("read", ("param", "y"), ()),
        ("write", ("param", "y"), ())]


def test_recursive_summary_unavailable():
    program = parse_source(RECURSIVE)
    graph = build_call_graph(program)
    assert graph.unavailable() >= {"f", "g"}


# -- clean multi-function programs --------------------------------------------

def test_clean_multifunction_program_analyzes_clean():
    assert codes_of(CLEAN_FN) == []


def test_collapsed_call_carries_chain_and_omp():
    t = translate(CLEAN_FN)
    accels = [s for s in t.schedule.steps
              if isinstance(s, AccelCallStep)]
    assert accels and accels[0].chain == ("scale_row",)
    assert accels[0].omp and accels[0].looped
    assert t.demoted_steps == ()


def test_multifunction_execution_matches_original():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 64)).astype(np.float32)
    b = rng.standard_normal((8, 64)).astype(np.float32)
    inputs = {"a": a.copy(), "b": b.copy()}
    orig = run_original(CLEAN_FN, inputs=inputs)
    trans = run_translated(CLEAN_FN, inputs=inputs)
    np.testing.assert_array_equal(orig.buffers["b"], trans.buffers["b"])
    np.testing.assert_array_equal(
        trans.buffers["b"].reshape(8, 64), b + 2.0 * a)


def test_nested_chain_execution_matches_original():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(8).astype(np.float32)
    y = rng.standard_normal(8).astype(np.float32)
    orig = run_original(NONRECURSIVE_CHAIN, inputs={"x": x, "y": y})
    trans = run_translated(NONRECURSIVE_CHAIN, inputs={"x": x, "y": y})
    np.testing.assert_array_equal(orig.buffers["y"], trans.buffers["y"])


# -- MEA008 write-write race --------------------------------------------------

def test_mea008_overlapping_writes():
    diags = report_of(WW_RACE).by_code("MEA008")
    assert diags and str(diags[0].severity) == "error"
    assert "a" in diags[0].buffers


def test_mea008_clean_on_disjoint_rows():
    assert "MEA008" not in codes_of(DISJOINT_NEST)


# -- MEA009 read-write race ---------------------------------------------------

def test_mea009_write_covers_neighbour_read():
    assert "MEA009" in codes_of(RW_RACE)


def test_mea009_clean_when_windows_disjoint():
    assert "MEA009" not in codes_of(RW_DISJOINT)


# -- MEA010 reductions --------------------------------------------------------

def test_mea010_recognized_reduction_is_info():
    diags = report_of(REDUCTION).by_code("MEA010")
    assert diags and all(str(d.severity) == "info" for d in diags)
    assert not report_of(REDUCTION).has_errors


def test_mea010_recognized_reduction_stays_offloaded():
    t = translate(REDUCTION)
    assert t.demoted_steps == ()
    assert not any(isinstance(i, HostCallStep) for i in t.items)
    assert t.items


def test_mea010_dot_sub_reduction_is_info_and_offloaded():
    diags = report_of(DOT_SUB_REDUCTION).by_code("MEA010")
    assert diags and all(str(d.severity) == "info" for d in diags)
    t = translate(DOT_SUB_REDUCTION)
    assert t.demoted_steps == ()
    assert not any(isinstance(i, HostCallStep) for i in t.items)


def test_mea010_unrecognized_shared_update_is_error():
    diags = report_of(UNRECOGNIZED_REDUCTION).by_code("MEA010")
    assert diags and any(str(d.severity) == "error" for d in diags)


def test_mea010_absent_on_disjoint_nest():
    assert "MEA010" not in codes_of(DISJOINT_NEST)


# -- MEA011 summary unavailable / conservative demotion -----------------------

def test_mea011_recursion_is_rejected():
    with pytest.raises(RecognizerError) as excinfo:
        analyze_source(RECURSIVE)
    assert excinfo.value.code == "MEA011"
    assert "f -> g -> f" in str(excinfo.value)


def test_mea011_nonrecursive_chain_is_fine():
    assert codes_of(NONRECURSIVE_CHAIN) == []


def test_mea011_escape_inside_callee_demotes():
    report = report_of(ESCAPE_UNDER_OMP)
    diags = report.by_code("MEA011")
    assert diags and diags[0].chain == ("mk_plan",)
    t = translate(ESCAPE_UNDER_OMP)
    assert t.demoted_steps
    assert any(isinstance(i, HostCallStep) and i.demoted
               for i in t.items)


def test_mea011_escape_in_main_not_flagged():
    assert "MEA011" not in codes_of(ESCAPE_IN_MAIN)


# -- MEA012 interprocedural lifecycle -----------------------------------------

def test_mea012_use_after_free_via_callee():
    diags = report_of(USE_AFTER_FREE_VIA_CALLEE).by_code("MEA012")
    assert diags and diags[0].chain == ("consume",)
    assert "inside consume()" in diags[0].message


def test_mea012_rejects_translation():
    with pytest.raises(AnalysisRejected) as excinfo:
        translate(USE_AFTER_FREE_VIA_CALLEE)
    assert excinfo.value.code == "MEA012"


def test_mea012_clean_when_use_precedes_free():
    assert codes_of(USE_THEN_FREE_VIA_CALLEE) == []


def test_double_free_via_callee_still_caught():
    assert "MEA004" in codes_of(DOUBLE_FREE_VIA_CALLEE)


def test_single_free_via_callee_clean():
    assert codes_of(SINGLE_FREE_VIA_CALLEE) == []


# -- demotion keeps the ledger decomposition ----------------------------------

def test_demoted_racy_call_runs_on_host_ledger():
    t = translate(WW_RACE)
    assert t.demoted_steps
    system = MealibSystem()
    rng = np.random.default_rng(13)
    a = rng.standard_normal(128).astype(np.float32)
    out = run_translated(t, system=system, inputs={"a": a.copy()})
    assert system.ledger.total("accelerator").time == 0
    assert system.ledger.total("host").time > 0
    # semantics preserved: the host library runs iterations in order
    orig = run_original(WW_RACE, inputs={"a": a.copy()})
    np.testing.assert_array_equal(orig.buffers["a"], out.buffers["a"])


def test_clean_nest_charges_the_accelerator():
    system = MealibSystem()
    rng = np.random.default_rng(14)
    a = rng.standard_normal((8, 64)).astype(np.float32)
    b = rng.standard_normal((8, 64)).astype(np.float32)
    run_translated(CLEAN_FN, system=system,
                   inputs={"a": a, "b": b})
    assert system.ledger.total("accelerator").time > 0

"""Recognizer, chaining, loop compaction, descriptor grouping."""

import pytest

from repro.compiler import (AccelCallStep, AllocStep, DescriptorStep,
                            FreeStep, FusedStep, HostCallStep,
                            RecognizerError, recognize, parse_source,
                            translate)

SAXPY_LOOP = """
#define ROWS 8
#define N 128
float x[ROWS][N];
float y[ROWS][N];
int i;
#pragma omp parallel for
for (i = 0; i < ROWS; i++)
  cblas_saxpy(N, 2.0, &x[i][0], 1, &y[i][0], 1);
"""


def test_loop_compaction_strides():
    schedule = recognize(parse_source(SAXPY_LOOP))
    (step,) = schedule.accel_steps()
    assert step.accel == "AXPY"
    assert step.trips == (8,)
    assert step.loop_vars == ("i",)
    table = step.proto.stride_table(step.loop_vars, step.trips)
    assert table.deltas["x_pa"] == (128 * 4,)
    assert table.deltas["y_pa"] == (128 * 4,)


def test_multi_level_nest():
    src = """
#define A 4
#define B 8
#define N 32
complex w[A][B][N];
complex s[A][B][N];
complex out[A][B];
int i;
int j;
#pragma omp parallel for
for (i = 0; i < A; i++)
  for (j = 0; j < B; j++)
    cblas_cdotc_sub(N, &w[i][j][0], 1, &s[i][j][0], 1, &out[i][j]);
"""
    schedule = recognize(parse_source(src))
    (step,) = schedule.accel_steps()
    assert step.trips == (4, 8)
    assert step.calls == 32
    table = step.proto.stride_table(step.loop_vars, step.trips)
    assert table.deltas["x_pa"] == (8 * 32 * 8, 32 * 8)
    assert table.deltas["out_pa"] == (8 * 8, 8)


def test_total_library_calls():
    schedule = recognize(parse_source(SAXPY_LOOP))
    assert schedule.total_library_calls() == 8


def test_host_functions_not_accelerated():
    src = """
#define N 16
complex a[N][N];
complex c[N][N];
cblas_cherk(N, N, 1.0, &a[0][0], 0.0, &c[0][0]);
"""
    schedule = recognize(parse_source(src))
    assert isinstance(schedule.steps[0], HostCallStep)
    assert not schedule.accel_steps()


def test_alloc_free_steps():
    src = """
float *x;
x = malloc(sizeof(float) * 64);
free(x);
"""
    schedule = recognize(parse_source(src))
    assert isinstance(schedule.steps[0], AllocStep)
    assert isinstance(schedule.steps[1], FreeStep)
    assert schedule.env.buffers["x"].count == 64


def test_unknown_function_rejected():
    with pytest.raises(RecognizerError):
        recognize(parse_source("mystery_call(3);"))


def test_non_unit_stride_saxpy_rejected():
    src = """
float x[64];
float y[64];
cblas_saxpy(16, 1.0, &x[0], 2, &y[0], 1);
"""
    with pytest.raises(RecognizerError):
        recognize(parse_source(src))


def test_nonzero_loop_start_rejected():
    src = """
#define N 16
float x[8][N];
float y[8][N];
int i;
for (i = 1; i < 8; i++)
  cblas_saxpy(N, 1.0, &x[i][0], 1, &y[i][0], 1);
"""
    with pytest.raises(RecognizerError):
        recognize(parse_source(src))


CHAIN_SRC = """
#define R 8
#define C 16
complex *a;
complex *b;
complex *c;
fftwf_plan p1;
fftwf_plan p2;
fftw_iodim hm[2] = {{R, C, 1}, {C, 1, R}};
fftw_iodim dims[1] = {{R, 1, 1}};
fftw_iodim hmf[1] = {{C, R, R}};
a = malloc(sizeof(complex) * R * C);
b = malloc(sizeof(complex) * R * C);
c = malloc(sizeof(complex) * R * C);
p1 = fftwf_plan_guru_dft(0, NULL, 2, hm, a, b, FFTW_FORWARD,
                         FFTW_WISDOM_ONLY);
p2 = fftwf_plan_guru_dft(1, dims, 1, hmf, b, c, FFTW_FORWARD,
                         FFTW_WISDOM_ONLY);
fftwf_execute(p1);
fftwf_execute(p2);
"""


def test_plan_chaining():
    translated = translate(CHAIN_SRC)
    descriptors = [i for i in translated.items
                   if isinstance(i, DescriptorStep)]
    assert len(descriptors) == 1
    (chain,) = descriptors[0].items
    assert isinstance(chain, FusedStep)
    assert not chain.looped
    assert [s.accel for s in chain.steps] == ["RESHP", "FFT"]
    assert chain.certificate is not None
    assert chain.certificate.facts


def test_rank0_plan_is_transpose():
    translated = translate(CHAIN_SRC)
    descriptors = [i for i in translated.items
                   if isinstance(i, DescriptorStep)]
    reshp = descriptors[0].items[0].steps[0]
    assert reshp.proto.scalars["rows"] == 8
    assert reshp.proto.scalars["cols"] == 16


def test_no_chain_when_no_dataflow():
    src = """
#define N 128
float x[N];
float y[N];
float u[N];
float v[N];
cblas_saxpy(N, 1.0, &x[0], 1, &y[0], 1);
cblas_saxpy(N, 1.0, &u[0], 1, &v[0], 1);
"""
    translated = translate(src)
    descriptors = [i for i in translated.items
                   if isinstance(i, DescriptorStep)]
    # same descriptor (adjacent accel steps), but two separate passes
    assert len(descriptors) == 1
    assert len(descriptors[0].items) == 2
    assert all(isinstance(s, AccelCallStep)
               for s in descriptors[0].items)


def test_looped_step_gets_own_descriptor():
    src = SAXPY_LOOP + """
float u[128];
float v[128];
cblas_saxpy(128, 1.0, &u[0], 1, &v[0], 1);
"""
    translated = translate(src)
    descriptors = [i for i in translated.items
                   if isinstance(i, DescriptorStep)]
    assert len(descriptors) == 2


def test_spmv_recognised():
    src = """
#define M 64
float vals[960];
long rowptr[65];
long colidx[960];
float x[M];
float y[M];
mkl_scsrgemv(M, &vals[0], &rowptr[0], &colidx[0], &x[0], &y[0]);
"""
    schedule = recognize(parse_source(src))
    (step,) = schedule.accel_steps()
    assert step.accel == "SPMV"
    assert step.proto.scalars["nnz"] == 960


@pytest.mark.parametrize("call, func", [
    ("cblas_saxpy(N, 2.0, x, 1, y);", "cblas_saxpy"),
    ("cblas_sdot_sub(N, x, 1, y, 1, &out[0], 7);", "cblas_sdot_sub"),
    ("dfsInterpolate1D(1, N, x, y, N, x);", "dfsInterpolate1D"),
    ("mkl_somatcopy(4, 4, 1.0, x);", "mkl_somatcopy"),
])
def test_wrong_argument_count_is_a_recognizer_error(call, func):
    src = f"#define N 16\nfloat x[N];\nfloat y[N];\nfloat out[1];\n{call}\n"
    with pytest.raises(RecognizerError, match=rf"^line 5.*{func} takes"):
        recognize(parse_source(src))


def test_malloc_of_undeclared_pointer_is_a_recognizer_error():
    src = "float *x;\nz = malloc(sizeof(float) * 4);\n"
    with pytest.raises(RecognizerError,
                       match=r"^line 2.*malloc .*'z'"):
        recognize(parse_source(src))


@pytest.mark.parametrize("src, message", [
    ("float *x;\nx = malloc();\n", "malloc takes a byte count"),
    ("float *x;\nx = malloc(16);\nfree();\n", "free takes the buffer"),
    ("fftwf_execute();\n", "fftwf_execute takes a prepared plan"),
])
def test_missing_argument_is_a_recognizer_error(src, message):
    with pytest.raises(RecognizerError, match=message):
        recognize(parse_source(src))

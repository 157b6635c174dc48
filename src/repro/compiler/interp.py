"""Program interpreters: original (host library) and translated (MEALib).

Two execution paths for the same legacy source:

* :func:`run_original` walks the AST directly, executing every library
  call (including each of the millions inside an OpenMP nest) with the
  software library on plain numpy buffers, and times the run with the
  host CPU model — the paper's optimised MKL+OpenMP baseline;
* :func:`run_translated` runs the compiler, allocates buffers through
  ``mealib_mem_alloc``, executes host (compute-bounded) calls on the
  host model, and lowers each descriptor group to TDL + parameter files
  executed through the runtime and configuration unit.

The two paths share nothing at execution time except the parsed AST, so
matching outputs validate the paper's claim that translated legacy code
computes the same results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

import numpy as np

from repro.accel.base import pack_strides
from repro.compiler.cast import (Assign, Call, Expr, ExprStmt, For,
                                 Ident, Program, Stmt, VarDecl)
from repro.compiler.inline import inline_body
from repro.compiler.recognizer import (AccelCallStep, AllocStep, FreeStep,
                                       HostCallStep, PlanDestroyStep,
                                       RecognizerError)
from repro.compiler.passes import ChainStep, DescriptorStep
from repro.compiler.rewrite.ir import FusedStep
from repro.compiler.semantics import CompileEnv, SemanticError
from repro.compiler.translate import (HOST_CALL_OVERHEAD_S,
                                      TranslatedProgram, host_step_profile,
                                      step_profile, translate)
from repro.core.system import MealibSystem
from repro.core.tdl import ParamStore
from repro.host.cpu import CpuModel
from repro.host.platforms import haswell
from repro.metrics import ExecResult, ZERO
from repro.mkl import blas, fftw
from repro.mkl.resample import interpolate_rows
from repro.mkl.sparse import CsrMatrix, scsrgemv
from repro.mkl.transpose import simatcopy, somatcopy

_DTYPES = {"float": np.float32, "double": np.float64,
           "complex": np.complex64, "int": np.int32, "long": np.int64,
           "size_t": np.int64, "char": np.uint8}


class InterpError(Exception):
    """Raised on runtime problems in either interpreter."""


@dataclass(frozen=True)
class ArrayRef:
    """A pointer value: a flat numpy array plus an element offset."""

    array: np.ndarray
    offset: int

    def tail(self) -> np.ndarray:
        return self.array[self.offset:]

    def take(self, n: int, stride: int = 1) -> np.ndarray:
        if stride == 1:
            return self.array[self.offset: self.offset + n]
        end = self.offset + 1 + (n - 1) * stride
        return self.array[self.offset: end: stride]


@dataclass
class RunOutcome:
    """Result of executing a program end to end."""

    result: ExecResult
    buffers: Dict[str, np.ndarray]
    library_calls: int = 0
    descriptors: int = 0


# -- shared functional dispatch -------------------------------------------------

def _as_csr(m: int, data: ArrayRef, ia: ArrayRef, ja: ArrayRef
            ) -> CsrMatrix:
    indptr = ia.take(m + 1).astype(np.int64)
    nnz = int(indptr[-1])
    return CsrMatrix(indptr=indptr, indices=ja.take(nnz).astype(np.int64),
                     data=data.take(nnz), shape=(m, m))


def _rows(ref: ArrayRef, rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` matrix stored contiguously at ``ref``."""
    if rows < 0 or cols < 0:
        raise InterpError(f"negative extent {rows}x{cols}")
    flat = ref.take(rows * cols)
    if len(flat) != rows * cols:
        raise InterpError(f"buffer too short for {rows}x{cols} elements")
    return flat.reshape(rows, cols)


def _call_function(env: CompileEnv, name: str, args: List) -> None:
    """Execute one library call functionally. ``args`` are evaluated:
    scalars as numbers, pointers as ArrayRefs, plans as PlanSpec."""
    if name == "cblas_saxpy":
        n, alpha, x, incx, y, incy = args
        blas.saxpy(n, alpha, x.tail(), incx, y.tail(), incy)
    elif name == "cblas_sdot_sub":
        n, x, incx, y, incy, out = args
        out.array[out.offset] = blas.sdot(n, x.tail(), incx, y.tail(),
                                          incy)
    elif name == "cblas_cdotc_sub":
        n, x, incx, y, incy, out = args
        out.array[out.offset] = blas.cdotc(n, x.tail(), incx, y.tail(),
                                           incy)
    elif name == "cblas_sgemv":
        _, _, m, n, alpha, a, lda, x, incx, beta, y, incy = args
        blas.sgemv(False, m, n, alpha, a.tail(), lda, x.tail(), incx,
                   beta, y.tail(), incy)
    elif name == "mkl_scsrgemv":
        m, a, ia, ja, x, y = args
        scsrgemv(_as_csr(m, a, ia, ja), x.tail(), y.tail())
    elif name == "dfsInterpolate1D":
        blocks, n_in, knots, series, n_out, sites, out = args
        src = _rows(series, blocks, n_in)
        dst = _rows(out, blocks, n_out)
        dst[:] = interpolate_rows(knots.take(n_in), src,
                                  _rows(sites, blocks, n_out))
    elif name == "mkl_simatcopy":
        rows, cols, alpha, ab = args
        simatcopy(rows, cols, alpha, ab.tail())
    elif name == "mkl_somatcopy":
        rows, cols, alpha, a, b = args
        somatcopy(rows, cols, alpha, a.tail(), b.tail())
    elif name == "fftwf_execute":
        (plan_spec, src_ref, dst_ref) = args
        dims = [fftw.IoDim(d.n, d.istride, d.ostride)
                for d in plan_spec.dims]
        howmany = [fftw.IoDim(d.n, d.istride, d.ostride)
                   for d in plan_spec.howmany]
        plan = fftw.plan_guru_dft(plan_spec.rank, dims or None,
                                  len(howmany), howmany, src_ref.tail(),
                                  dst_ref.tail(), plan_spec.sign)
        fftw.execute(plan)
    elif name == "cblas_cherk":
        n, k, alpha, a, beta, c = args
        blas.cherk(False, n, k, alpha, a.take(n * k), beta,
                   c.take(n * n))
    elif name == "cblas_ctrsm_lower":
        n, m, a, b = args
        blas.ctrsm_left_lower(n, m, 1.0, a.take(n * n), b.take(n * m))
    elif name == "cblas_ctrsm_upper":
        n, m, a, b = args
        blas.ctrsm_left_upper(n, m, 1.0, a.take(n * n), b.take(n * m))
    elif name == "cpotrf_lower":
        n, a = args
        blas.cpotrf_lower(n, a.take(n * n))
    else:
        raise InterpError(f"no functional implementation for {name!r}")


#: Argument kinds per function: 'p' pointer, 's' scalar, 'plan' plan.
_SIGNATURES = {
    "cblas_saxpy": "sspsps",
    "cblas_sdot_sub": "spspsp",
    "cblas_cdotc_sub": "spspsp",
    # order trans m n alpha a lda x incx beta y incy
    "cblas_sgemv": "ssssspspssps",
    "mkl_scsrgemv": "sppppp",
    # blocks n_in knots series n_out sites out
    "dfsInterpolate1D": "ssppspp",
    "mkl_simatcopy": "sssp",
    "mkl_somatcopy": "ssspp",
    "fftwf_execute": "l",
    "cblas_cherk": "ssspsp",
    "cblas_ctrsm_lower": "sspp",
    "cblas_ctrsm_upper": "sspp",
    "cpotrf_lower": "sp",
}


# -- the original-program interpreter ---------------------------------------------

class OriginalInterpreter:
    """Direct AST execution with the software library."""

    def __init__(self, program: Program, env: CompileEnv,
                 inputs: Optional[Dict[str, np.ndarray]] = None):
        self.program = program
        self.env = env
        self.inputs = inputs or {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.bindings: Dict[str, int] = {}
        self.functions = program.function_map()
        self._call_stack: List[str] = []
        self._inline_count = 0

    # -- buffers -------------------------------------------------------------

    def _materialize(self, name: str) -> None:
        info = self.env.buffers[name]
        dtype = _DTYPES[info.elem_type]
        arr = np.zeros(info.count, dtype=dtype)
        given = self.inputs.get(name)
        if given is not None:
            flat = np.asarray(given, dtype=dtype).reshape(-1)
            arr[: len(flat)] = flat
        self.arrays[name] = arr

    # -- evaluation ------------------------------------------------------------

    def _eval_scalar(self, expr: Expr) -> Union[int, float]:
        try:
            return self.env.eval_const(expr)
        except SemanticError:
            pass
        affine = self.env.affine_expr(expr)
        return affine.evaluate(self.bindings)

    def _eval_pointer(self, expr: Expr) -> ArrayRef:
        buf, offset = self.env.buffer_address(expr)
        info = self.env.buffers[buf]
        byte_off = offset.evaluate(self.bindings)
        if buf not in self.arrays:
            self._materialize(buf)
        return ArrayRef(array=self.arrays[buf],
                        offset=byte_off // info.elem_size)

    def _eval_args(self, name: str, raw_args: Sequence[Expr]) -> List:
        sig = _SIGNATURES[name]
        if len(sig) != len(raw_args):
            raise InterpError(
                f"{name} expects {len(sig)} arguments, got "
                f"{len(raw_args)}")
        out: List = []
        for kind, expr in zip(sig, raw_args):
            if kind == "s":
                out.append(self._eval_scalar(expr))
            elif kind == "p":
                out.append(self._eval_pointer(expr))
            elif kind == "l":
                if not isinstance(expr, Ident) or \
                        expr.name not in self.env.plans:
                    raise InterpError("fftwf_execute needs a plan")
                plan = self.env.plans[expr.name]
                out.append(plan)
                src_info = self.env.buffers[plan.src]
                dst_info = self.env.buffers[plan.dst]
                if plan.src not in self.arrays:
                    self._materialize(plan.src)
                if plan.dst not in self.arrays:
                    self._materialize(plan.dst)
                out.append(ArrayRef(
                    self.arrays[plan.src],
                    plan.src_offset // src_info.elem_size))
                out.append(ArrayRef(
                    self.arrays[plan.dst],
                    plan.dst_offset // dst_info.elem_size))
        return out

    # -- statements ------------------------------------------------------------

    def execute(self) -> Dict[str, np.ndarray]:
        self._exec_block(self.program.stmts)
        # materialise any declared-but-untouched buffers for inspection
        for name in self.env.buffers:
            if name not in self.arrays:
                self._materialize(name)
        return self.arrays

    def _exec_block(self, stmts: Sequence[Stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, VarDecl):
            if stmt.name in self.env.buffers and not stmt.pointer:
                self._materialize(stmt.name)
            return
        if isinstance(stmt, Assign):
            if isinstance(stmt.value, Call):
                if stmt.value.func == "malloc" \
                        and isinstance(stmt.target, Ident):
                    self._materialize(stmt.target.name)
                    return
                if stmt.value.func == "fftwf_plan_guru_dft":
                    return                     # recorded by the compiler
            raise InterpError(f"unsupported assignment {stmt!r}")
        if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call):
            call = stmt.expr
            if call.func in self.functions:
                self._exec_user_call(call)
                return
            if call.func in ("free", "fftwf_destroy_plan"):
                return                          # buffers kept for output
            self._eval_call(call)
            return
        if isinstance(stmt, For):
            bound = int(self._eval_scalar(stmt.bound))
            start = int(self._eval_scalar(stmt.start))
            saved = self.bindings.get(stmt.var)
            for value in range(start, bound, stmt.step):
                self.bindings[stmt.var] = value
                self._exec_block(stmt.body)
            if saved is None:
                self.bindings.pop(stmt.var, None)
            else:
                self.bindings[stmt.var] = saved
            return
        raise InterpError(f"unsupported statement {stmt!r}")

    def _exec_user_call(self, call: Call) -> None:
        """Execute a user-defined function by splicing its body in.

        Mirrors the recognizer's inlining (same α-renaming scheme), so
        the original interpreter computes exactly what the translated
        schedule was built from.
        """
        if call.func in self._call_stack:
            path = " -> ".join(self._call_stack + [call.func])
            raise InterpError(f"recursive call chain {path}")
        self._inline_count += 1
        body = inline_body(self.functions[call.func], call.args,
                           suffix=f"r{self._inline_count}")
        self._call_stack.append(call.func)
        try:
            self._exec_block(body)
        finally:
            self._call_stack.pop()

    def _eval_call(self, call: Call) -> None:
        _call_function(self.env, call.func,
                       self._eval_args(call.func, call.args))


def _looped_step_buffers(step: object, env: CompileEnv) -> int:
    """Distinct bytes a looped call site touches across all trips."""
    names: Set[str] = set()
    if isinstance(step, AccelCallStep):
        names.update(step.in_bufs)
        names.update(step.out_bufs)
    return sum(env.buffers[n].total_bytes for n in names)


def _original_timing(translated: TranslatedProgram,
                     host: CpuModel) -> ExecResult:
    """Baseline timing: every call site on the host library.

    Non-looped calls run the roofline per call. OpenMP nests of small
    calls behave differently on a real machine: operands stay cached
    across iterations (memory time is bounded by the nest's distinct
    working set, not per-call traffic x trips) and per-call dispatch
    overhead is amortised across the worker threads. Both effects are
    modelled; without them the baseline would be unrealistically slow
    and MEALib's STAP gains would be inflated far beyond the paper's.
    """
    total = ZERO
    spec = host.spec
    for step in translated.schedule.steps:
        if not isinstance(step, (AccelCallStep, HostCallStep)):
            continue
        profile, calls = step_profile(step, translated.env)
        if calls == 1 or not getattr(step, "trips", ()):
            per_call = host.run_profile(profile)
            overhead_t = HOST_CALL_OVERHEAD_S
            total = total.plus(ExecResult(
                time=per_call.time * calls + overhead_t,
                energy=per_call.energy * calls
                + overhead_t * per_call.power))
            continue
        threads = min(spec.threads_used or spec.cores, spec.cores)
        rate = (threads * spec.freq_hz * spec.flops_per_cycle
                * spec.compute_eff[profile.pattern])
        t_compute = calls * profile.flops / rate if profile.flops else 0.0
        ws = _looped_step_buffers(step, translated.env)
        traffic = ws * (1 + (spec.rfo_factor - 1) * 0.5)
        t_memory = traffic / (spec.peak_bw * spec.bw_eff[profile.pattern])
        t_overhead = calls * HOST_CALL_OVERHEAD_S / threads
        time = max(t_compute, t_memory, t_overhead)
        power = spec.p_idle + spec.p_core * threads + spec.p_dram
        total = total.plus(ExecResult(time=time, energy=power * time))
    return total


def run_original(source: Union[str, Program],
                 host: Optional[CpuModel] = None,
                 inputs: Optional[Dict[str, np.ndarray]] = None
                 ) -> RunOutcome:
    """Execute the legacy program as-is on the host library."""
    host = host if host is not None else haswell()
    translated = translate(source)
    interp = OriginalInterpreter(translated.source_program,
                                 translated.env, inputs)
    buffers = interp.execute()
    timing = _original_timing(translated, host)
    return RunOutcome(result=timing, buffers=buffers,
                      library_calls=translated.original_call_count())


# -- the translated-program runner ------------------------------------------------

class TranslatedRunner:
    """Executes compiler output against a MealibSystem."""

    def __init__(self, translated: TranslatedProgram,
                 system: Optional[MealibSystem] = None,
                 inputs: Optional[Dict[str, np.ndarray]] = None,
                 functional: bool = True):
        self.t = translated
        self.system = system if system is not None else MealibSystem()
        self.inputs = inputs or {}
        self.functional = functional
        self.pa_of: Dict[str, int] = {}
        self.views: Dict[str, np.ndarray] = {}
        self._handles: Dict[str, object] = {}

    # -- buffers -------------------------------------------------------------

    def _alloc(self, name: str) -> None:
        info = self.t.env.buffers[name]
        dtype = _DTYPES[info.elem_type]
        buf = self.system.runtime.mem_alloc(max(info.total_bytes, 1))
        view = self.system.space.va_ndarray(buf, dtype, (info.count,))
        given = self.inputs.get(name)
        if self.functional and given is not None:
            flat = np.asarray(given, dtype=dtype).reshape(-1)
            view[: len(flat)] = flat
        self.pa_of[name] = buf.pa
        self.views[name] = view
        self._handles[name] = buf

    def _ensure(self, name: str) -> None:
        if name not in self.pa_of:
            self._alloc(name)

    # -- execution ------------------------------------------------------------

    def run(self) -> RunOutcome:
        # static arrays exist from program start
        for name, info in self.t.env.buffers.items():
            if not info.heap:
                self._alloc(name)
        descriptors = 0
        for item in self.t.items:
            if isinstance(item, AllocStep):
                self._ensure(item.buffer)
            elif isinstance(item, (FreeStep, PlanDestroyStep)):
                pass                        # keep contents for inspection
            elif isinstance(item, HostCallStep):
                self._run_host(item)
            elif isinstance(item, DescriptorStep):
                self._run_descriptor(item)
                descriptors += 1
            else:
                raise InterpError(f"unknown schedule item {item!r}")
        total = self.system.total()
        buffers = ({name: view.copy() for name, view in
                    self.views.items()} if self.functional else {})
        return RunOutcome(result=total, buffers=buffers,
                          library_calls=self.t.original_call_count(),
                          descriptors=descriptors)

    # -- host calls -------------------------------------------------------------

    def _run_host(self, step: HostCallStep) -> None:
        env = self.t.env
        for name in set(self._pointer_buffers(step)):
            self._ensure(name)
        if self.functional:
            interp = OriginalInterpreter(self.t.source_program, env)
            interp.arrays = self.views      # run over the unified space
            trips = step.trips or ()
            for combo in itertools.product(*[range(t) for t in trips]):
                interp.bindings = dict(zip(step.loop_vars, combo))
                _call_function(env, step.func,
                               interp._eval_args(step.func, step.args))
        profile = host_step_profile(step, env)
        per_call = self.system.host.run_profile(profile)
        calls = step.calls
        overhead_t = HOST_CALL_OVERHEAD_S * calls
        self.system.runtime.log_host(step.func, ExecResult(
            time=per_call.time * calls + overhead_t,
            energy=per_call.energy * calls + overhead_t * per_call.power))

    def _pointer_buffers(self, step: HostCallStep) -> Iterator[str]:
        sig = _SIGNATURES[step.func]
        for kind, expr in zip(sig, step.args):
            if kind == "p":
                name, _ = self.t.env.buffer_address(expr)
                yield name
            elif kind == "l":
                # demoted fftwf_execute: the plan's buffers are touched
                if isinstance(expr, Ident) \
                        and expr.name in self.t.env.plans:
                    plan = self.t.env.plans[expr.name]
                    yield plan.src
                    yield plan.dst

    # -- descriptors ---------------------------------------------------------------

    def _run_descriptor(self, group: DescriptorStep) -> None:
        store = ParamStore()
        tdl_lines: List[str] = []
        touched: Set[str] = set()
        counter = 0

        def add_comp(step: AccelCallStep, looped: bool) -> str:
            nonlocal counter
            for buf in step.in_bufs + step.out_bufs:
                self._ensure(buf)
                touched.add(buf)
            fname = f"p{counter}.para"
            counter += 1
            base = step.proto.instantiate(
                self.pa_of,
                {v: 0 for v in step.loop_vars})
            blob = base.pack()
            if looped:
                table = step.proto.stride_table(step.loop_vars,
                                                step.trips)
                blob += pack_strides(step.proto.params_type, table)
            store.add(fname, blob)
            return f"COMP {step.accel} {fname}"

        for item in group.items:
            if isinstance(item, ChainStep):
                comps = " ".join(add_comp(s, False) for s in item.steps)
                tdl_lines.append(f"PASS {{ {comps} }}")
            elif isinstance(item, FusedStep):
                # a verified fusion: one multi-COMP PASS, re-armed by
                # LOOP when the members are loop-compacted (each COMP
                # keeps its own stride table)
                looped = item.looped
                comps = " ".join(add_comp(s, looped)
                                 for s in item.steps)
                if looped:
                    tdl_lines.append(f"LOOP {item.iterations} "
                                     f"{{ PASS {{ {comps} }} }}")
                else:
                    tdl_lines.append(f"PASS {{ {comps} }}")
            elif isinstance(item, AccelCallStep):
                if item.looped:
                    comp = add_comp(item, True)
                    tdl_lines.append(
                        f"LOOP {item.calls} {{ PASS {{ {comp} }} }}")
                else:
                    comp = add_comp(item, False)
                    tdl_lines.append(f"PASS {{ {comp} }}")
            else:
                raise InterpError(f"bad descriptor item {item!r}")
        working = sum(self.t.env.buffers[b].total_bytes for b in touched)
        tdl = "\n".join(tdl_lines) + "\n"
        plan = self.system.runtime.acc_plan(tdl, store,
                                            in_size=working, out_size=0)
        self.system.runtime.acc_execute(plan, functional=self.functional)
        self.system.runtime.acc_destroy(plan)


def run_translated(source: Union[str, Program, TranslatedProgram],
                   system: Optional[MealibSystem] = None,
                   inputs: Optional[Dict[str, np.ndarray]] = None,
                   functional: bool = True) -> RunOutcome:
    """Compile the legacy program and execute it on MEALib.

    ``functional=False`` runs the timing/energy models only — used for
    paper-scale problem sizes whose numerics would be wasteful to
    materialise (the sampled-window DRAM methodology applies
    regardless).
    """
    translated = source if isinstance(source, TranslatedProgram) \
        else translate(source)
    runner = TranslatedRunner(translated, system, inputs,
                              functional=functional)
    return runner.run()


def baseline_timing(source: Union[str, Program, TranslatedProgram],
                    host: Optional[CpuModel] = None) -> RunOutcome:
    """Time the original program on the host library without running
    its numerics (for paper-scale problem sizes)."""
    host = host if host is not None else haswell()
    translated = source if isinstance(source, TranslatedProgram) \
        else translate(source)
    return RunOutcome(result=_original_timing(translated, host),
                      buffers={},
                      library_calls=translated.original_call_count())

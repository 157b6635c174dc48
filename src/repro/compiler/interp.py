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

Both paths reach the software library through one argument path:
:func:`bind_args` resolves a call's arguments (constants, ``Affine``
scalars, buffer pointers with ``Affine`` byte offsets, and plans), and
:meth:`BoundCall.evaluate` evaluates only those integer affines under
the loop variables before :func:`_call_function` runs the call's host
kernel (declared in :mod:`repro.compiler.library`).
The translated runner binds once per host step and evaluates the
binding on every trip; the original interpreter binds each library
call of the program once, and a call inside an inlined user function
each time it runs. Apart from that they share only the parsed AST, so
matching outputs validate the paper's claim that translated legacy
code computes the same results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from repro.accel.base import pack_strides
from repro.compiler.affine import Affine, AffineError
from repro.compiler.cast import (Assign, Call, Expr, ExprStmt, For,
                                 Ident, Program, Stmt, VarDecl)
from repro.compiler.errors import InterpError
from repro.compiler.inline import inline_body
from repro.compiler.library import LIBRARY, POINTER_KINDS
from repro.compiler.recognizer import (MAX_NEST_DEPTH, TOO_DEEP,
                                       AccelCallStep, AllocStep, FreeStep,
                                       HostCallStep, PlanDestroyStep)
from repro.compiler.passes import DescriptorStep
from repro.compiler.rewrite.ir import FusedStep
from repro.compiler.semantics import CompileEnv, PlanSpec, SemanticError
from repro.compiler.translate import (HOST_CALL_OVERHEAD_S,
                                      TranslatedProgram, host_step_profile,
                                      step_profile, translate)
from repro.core.system import MealibSystem
from repro.core.tdl import (Block, Comp, Loop, ParamStore, Pass,
                            TdlProgram)
from repro.host.cpu import CpuModel
from repro.host.platforms import haswell
from repro.metrics import ExecResult, ZERO

_DTYPES = {"float": np.float32, "double": np.float64,
           "complex": np.complex64, "int": np.int32, "long": np.int64,
           "size_t": np.int64, "char": np.uint8}


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

def _call_function(env: CompileEnv, name: str, args: List) -> None:
    """Execute one library call functionally. ``args`` are evaluated:
    scalars as numbers, pointers as ArrayRefs, plans as PlanSpec."""
    entry = LIBRARY.get(name)
    if entry is None:
        raise InterpError(f"no functional implementation for {name!r}")
    entry.kernel(*args)


# -- argument binding ---------------------------------------------------------

@dataclass(frozen=True)
class _Pointer:
    """A pointer argument resolved once: its buffer, its byte offset
    (affine in the loop variables) and the buffer's element size."""

    buffer: str
    offset: Affine
    elem_size: int

    def ref(self, bindings: Mapping[str, int],
            array: Callable[[str], np.ndarray]) -> ArrayRef:
        byte_off = self.offset.evaluate(bindings)
        return ArrayRef(array(self.buffer), byte_off // self.elem_size)


@dataclass(frozen=True)
class _PlanArg:
    """A plan argument: the plan and its two buffers."""

    plan: PlanSpec
    src: _Pointer
    dst: _Pointer


@dataclass(frozen=True)
class _Unresolved:
    """An argument that failed to resolve: ``error`` is raised when the
    argument is evaluated, and a pointer's also when its buffer is
    asked for (:meth:`BoundCall.buffers`)."""

    kind: str
    error: Exception


#: A bound scalar: a constant or an ``Affine`` in the loop variables.
Scalar = Union[int, float, Affine, _Unresolved]
#: A bound argument: a scalar, a pointer or a plan.
Bound = Union[Scalar, _Pointer, _PlanArg]


def _bind_scalar(env: CompileEnv, expr: Expr) -> Scalar:
    try:
        return env.eval_const(expr)
    except SemanticError:
        pass
    try:
        return env.affine_expr(expr)
    except (SemanticError, AffineError) as exc:
        return _Unresolved("s", exc)


def _bind_arg(env: CompileEnv, kind: str, expr: Expr) -> Bound:
    if kind == "s":
        return _bind_scalar(env, expr)
    if kind in POINTER_KINDS:
        try:
            name, offset = env.buffer_address(expr)
        except (SemanticError, AffineError) as exc:
            return _Unresolved("p", exc)
        return _Pointer(name, offset, env.buffers[name].elem_size)
    if not isinstance(expr, Ident) or expr.name not in env.plans:
        return _Unresolved("l", InterpError("fftwf_execute needs a plan"))
    plan = env.plans[expr.name]
    src = _Pointer(plan.src, Affine.constant(plan.src_offset),
                   env.buffers[plan.src].elem_size)
    dst = _Pointer(plan.dst, Affine.constant(plan.dst_offset),
                   env.buffers[plan.dst].elem_size)
    return _PlanArg(plan, src, dst)


def _value(arg: Scalar, bindings: Mapping[str, int]) -> Union[int, float]:
    """A bound scalar's value under ``bindings``."""
    if isinstance(arg, Affine):
        return arg.evaluate(bindings)
    if isinstance(arg, _Unresolved):
        raise arg.error
    return arg


@dataclass(frozen=True)
class BoundCall:
    """One library call site with every argument resolved once.

    Evaluating it under a loop variable binding only evaluates integer
    affines, so it gives exactly the values the per-iteration
    resolution gave, and raises the same error at the same argument.
    """

    args: Tuple[Bound, ...]
    #: the arity error, raised before any argument is evaluated
    arity_error: Optional[InterpError] = None

    def buffers(self) -> List[str]:
        """The buffers behind the pointer and plan arguments, in
        argument order; raises the first pointer that did not resolve."""
        names: List[str] = []
        for arg in self.args:
            if isinstance(arg, _Pointer):
                names.append(arg.buffer)
            elif isinstance(arg, _PlanArg):
                names += (arg.src.buffer, arg.dst.buffer)
            elif isinstance(arg, _Unresolved) and arg.kind == "p":
                raise arg.error
        return names

    def evaluate(self, bindings: Mapping[str, int],
                 array: Callable[[str], np.ndarray]) -> List:
        """The call's arguments for :func:`_call_function`: scalars as
        numbers, pointers as ArrayRefs (``array`` maps a buffer name to
        its flat array), a plan as its PlanSpec and two ArrayRefs."""
        if self.arity_error is not None:
            raise self.arity_error
        out: List = []
        for arg in self.args:
            if isinstance(arg, _Pointer):
                out.append(arg.ref(bindings, array))
            elif isinstance(arg, _PlanArg):
                out += (arg.plan, arg.src.ref(bindings, array),
                        arg.dst.ref(bindings, array))
            else:
                out.append(_value(arg, bindings))
        return out


def bind_args(env: CompileEnv, func: str,
              args: Sequence[Expr]) -> BoundCall:
    """Resolve a library call's arguments once per call site: each to a
    constant, an ``Affine`` scalar, a (buffer, ``Affine`` byte offset,
    element size) pointer or a plan. Only an unknown ``func`` raises
    here (``KeyError``); an argument that fails to resolve raises when
    it is evaluated."""
    sig = LIBRARY[func].signature
    arity_error = None
    if len(sig) != len(args):
        arity_error = InterpError(
            f"{func} expects {len(sig)} arguments, got {len(args)}")
    return BoundCall(tuple(_bind_arg(env, kind, expr)
                           for kind, expr in zip(sig, args)), arity_error)


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
        self._depth = 0                 # loops and inlined calls
        # the bound arguments of each library call in the program
        # itself, by node id (the program keeps its nodes alive); a
        # call in an inlined body is a fresh node on every execution
        # and is bound as it runs
        self._bound: Dict[int, BoundCall] = {}

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

    def _array(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            self._materialize(name)
        return self.arrays[name]

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
            bound = int(_value(_bind_scalar(self.env, stmt.bound),
                               self.bindings))
            start = int(_value(_bind_scalar(self.env, stmt.start),
                               self.bindings))
            saved = self.bindings.get(stmt.var)
            self._enter()
            for value in range(start, bound, stmt.step):
                self.bindings[stmt.var] = value
                self._exec_block(stmt.body)
            self._depth -= 1
            if saved is None:
                self.bindings.pop(stmt.var, None)
            else:
                self.bindings[stmt.var] = saved
            return
        raise InterpError(f"unsupported statement {stmt!r}")

    def _enter(self) -> None:
        """One more loop or inlined call; the recognizer's bound."""
        if self._depth >= MAX_NEST_DEPTH:
            raise InterpError(TOO_DEEP)
        self._depth += 1

    def _exec_user_call(self, call: Call) -> None:
        """Execute a user-defined function by splicing its body in.

        Mirrors the recognizer's inlining (same α-renaming scheme), so
        the original interpreter computes exactly what the translated
        schedule was built from.
        """
        if call.func in self._call_stack:
            path = " -> ".join(self._call_stack + [call.func])
            raise InterpError(f"recursive call chain {path}")
        self._enter()
        self._inline_count += 1
        body = inline_body(self.functions[call.func], call.args,
                           suffix=f"r{self._inline_count}")
        self._call_stack.append(call.func)
        try:
            self._exec_block(body)
        finally:
            self._call_stack.pop()
            self._depth -= 1

    def _eval_call(self, call: Call) -> None:
        bound = self._bound.get(id(call))
        if bound is None:
            bound = bind_args(self.env, call.func, call.args)
            if not self._call_stack:
                self._bound[id(call)] = bound
        _call_function(self.env, call.func,
                       bound.evaluate(self.bindings, self._array))


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
    # the baseline reads only the recognised call sites: no rewrites
    translated = translate(source, rewrite=False)
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
        bound = bind_args(env, step.func, step.args)
        for name in dict.fromkeys(bound.buffers()):
            self._ensure(name)
        if self.functional:
            array = self.views.__getitem__   # the unified space
            trips = step.trips or ()
            for combo in itertools.product(*[range(t) for t in trips]):
                bindings = dict(zip(step.loop_vars, combo))
                _call_function(env, step.func,
                               bound.evaluate(bindings, array))
        profile = host_step_profile(step, env)
        per_call = self.system.host.run_profile(profile)
        calls = step.calls
        overhead_t = HOST_CALL_OVERHEAD_S * calls
        self.system.runtime.log_host(step.func, ExecResult(
            time=per_call.time * calls + overhead_t,
            energy=per_call.energy * calls + overhead_t * per_call.power))

    # -- descriptors ---------------------------------------------------------------

    def _run_descriptor(self, group: DescriptorStep) -> None:
        store = ParamStore()
        blocks: List[Block] = []
        touched: Set[str] = set()
        counter = 0

        def add_comp(step: AccelCallStep, looped: bool) -> Comp:
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
            return Comp(step.accel, fname)

        for item in group.items:
            if isinstance(item, FusedStep):
                # a verified fusion: one multi-COMP PASS, re-armed by
                # LOOP when the members are loop-compacted (each COMP
                # keeps its own stride table)
                looped = item.looped
                count = item.iterations
                body = Pass(tuple(add_comp(s, looped) for s in item.steps))
            elif isinstance(item, AccelCallStep):
                looped = item.looped
                count = item.calls
                body = Pass((add_comp(item, looped),))
            else:
                raise InterpError(f"bad descriptor item {item!r}")
            blocks.append(Loop(count, (body,)) if looped else body)
        working = sum(self.t.env.buffers[b].total_bytes for b in touched)
        plan = self.system.runtime.acc_plan(TdlProgram(tuple(blocks)),
                                            store, in_size=working,
                                            out_size=0)
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
        else translate(source, rewrite=False)
    return RunOutcome(result=_original_timing(translated, host),
                      buffers={},
                      library_calls=translated.original_call_count())

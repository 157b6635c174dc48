"""Pass 1: library-call identification and loop analysis.

Walks the program in statement order and produces a *schedule* of steps:
allocations, host (compute-bounded) library calls, accelerated calls —
single or collapsed from an OpenMP loop nest into one looped step with a
mixed-radix stride table — and plan bookkeeping for the FFTW guru
interface (rank-0 plans become RESHP invocations, rank-1 plans become
FFT invocations, exactly as the paper maps them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.accel.axpy import AxpyParams
from repro.accel.base import StrideTable
from repro.accel.dot import DTYPE_C64, DTYPE_F32, DotParams
from repro.accel.fft import FftParams
from repro.accel.gemv import GemvParams
from repro.accel.layer import CORES
from repro.accel.reshp import ReshpParams
from repro.accel.resmp import ResmpParams
from repro.accel.spmv import SpmvParams
from repro.compiler.affine import Affine, AffineError
from repro.compiler.cast import (Assign, Call, Expr, ExprStmt, For, Ident,
                                 Num, Program, Stmt, VarDecl, stmt_loc)
from repro.compiler.diagnostics import SourceLoc
from repro.compiler.errors import CompilerError
from repro.compiler.inline import inline_body
from repro.compiler.library import LIBRARY
from repro.compiler.semantics import (BufferInfo, CompileEnv, IoDimSpec,
                                      PlanSpec, SemanticError, build_env)

if TYPE_CHECKING:                     # break the runtime import cycle:
    # certificates are produced by the analysis layer, which imports
    # this module; steps only *carry* them.
    from repro.compiler.analysis.certificates import SafetyCertificate


class RecognizerError(CompilerError):
    """Raised when a program uses the libraries in unsupported ways.

    A typed diagnostic (code ``MEA013``) with an optional source
    location; ``str(exc)`` keeps the legacy bare-message shape.
    Recursion in the call graph carries code ``MEA011`` instead (the
    effect summary is unavailable, and the branchless subset cannot
    terminate a recursive chain).
    """

    default_code = "MEA013"


#: How deep loops and inlined calls may nest together, counted across
#: function bodies (each loop and each call site being inlined is one
#: level). Inlining recurses about three frames a level, and the parser
#: bounds only one body's nesting (``MAX_STMT_DEPTH``), so the bound is
#: set from the stack it shares with ``MAX_EXPR_DEPTH``: with a
#: 200-deep call expression as the innermost call's argument (the
#: costliest argument), the deepest mix that translates under the
#: default recursion limit is 194 levels (a bare call chain; 232-272
#: with 1-31 loops per body), and 128 levels keep at least 200 frames.
MAX_NEST_DEPTH = 128

#: The error for loops and inlined calls nested past MAX_NEST_DEPTH,
#: shared by the recognizer and the original-program interpreter.
TOO_DEEP = (f"loops and inlined calls nest deeper than MAX_NEST_DEPTH = "
            f"{MAX_NEST_DEPTH} levels")


# -- schedule steps ----------------------------------------------------------

@dataclass(frozen=True)
class AllocStep:
    buffer: str
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class FreeStep:
    buffer: str
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class PlanDestroyStep:
    """An ``fftwf_destroy_plan`` call — plan lifecycle bookkeeping."""

    plan: str
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)


@dataclass(frozen=True)
class HostCallStep:
    """A compute-bounded library call left on the CPU.

    ``accel``/``proto`` are set when this step is a *demoted*
    accelerated call (the safety checker proved the offload unsound):
    the call still runs and is timed on the host library, using the
    operation profile derived from its parameter prototype.
    """

    func: str
    args: Tuple[Expr, ...]
    trips: Tuple[int, ...] = ()
    loop_vars: Tuple[str, ...] = ()
    accel: str = ""
    proto: Optional["ParamsProto"] = None
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)

    @property
    def demoted(self) -> bool:
        return bool(self.accel)

    @property
    def calls(self) -> int:
        total = 1
        for t in self.trips:
            total *= t
        return total


@dataclass(frozen=True)
class ParamsProto:
    """An accelerator parameter record with symbolic addresses.

    ``scalars`` are resolved values; ``addrs`` map address fields to
    (buffer name, affine byte offset in the loop variables).
    """

    params_type: type
    scalars: Dict[str, object]
    addrs: Dict[str, Tuple[str, Affine]]

    def instantiate(self, pa_of: Dict[str, int],
                    loop_values: Optional[Dict[str, int]] = None) -> object:
        values: Dict[str, object] = dict(self.scalars)
        env = loop_values or {}
        for fld, (buf, offset) in self.addrs.items():
            values[fld] = pa_of[buf] + offset.evaluate(env)
        return self.params_type(**values)

    def zero_params(self) -> object:
        """The parameter record with every address at 0, for what reads
        the scalars alone: profiles and operand declarations."""
        return self.params_type(**self.scalars,
                                **dict.fromkeys(self.addrs, 0))

    def stride_table(self, loop_vars: Sequence[str],
                     trips: Sequence[int]) -> StrideTable:
        deltas: Dict[str, Tuple[int, ...]] = {}
        for fld in self.params_type.ADDR_FIELDS:
            if fld in self.addrs:
                _, offset = self.addrs[fld]
                deltas[fld] = tuple(offset.coef(v) for v in loop_vars)
            else:
                deltas[fld] = (0,) * len(loop_vars)
        return StrideTable(trips=tuple(trips), deltas=deltas)


@dataclass(frozen=True)
class AccelCallStep:
    """One accelerated call site, possibly looped.

    ``func``/``args`` keep the original library call so the safety
    checker can demote the step to a :class:`HostCallStep` when the
    offload would be unsound. ``omp`` records that the surrounding
    collapsed nest carried a ``#pragma omp parallel for`` — the race
    detector only governs those steps. ``chain`` names the user-defined
    call path (outermost first) when the call site was inlined out of
    function bodies.
    """

    accel: str
    proto: ParamsProto
    in_bufs: Tuple[str, ...]
    out_bufs: Tuple[str, ...]
    trips: Tuple[int, ...] = ()
    loop_vars: Tuple[str, ...] = ()
    func: str = ""
    args: Tuple[Expr, ...] = ()
    omp: bool = False
    chain: Tuple[str, ...] = ()
    loc: Optional[SourceLoc] = field(default=None, compare=False,
                                     repr=False)
    #: rewrite-safety certificate attached after the rule battery ran
    #: (None until then, and always None on demoted/unchecked steps).
    #: Excluded from equality so checked and unchecked schedules of a
    #: clean program still compare equal.
    certificate: Optional["SafetyCertificate"] = field(
        default=None, compare=False, repr=False)

    def demote(self) -> HostCallStep:
        """The same call site, kept on the host library."""
        return HostCallStep(func=self.func, args=self.args,
                            trips=self.trips, loop_vars=self.loop_vars,
                            accel=self.accel, proto=self.proto,
                            loc=self.loc)

    @property
    def looped(self) -> bool:
        return bool(self.trips)

    @property
    def calls(self) -> int:
        total = 1
        for t in self.trips:
            total *= t
        return total


# Schedule steps are an open set: the recognizer emits the five step
# kinds above, the rewrite engine splices in FusedStep nodes and
# lowering (repro.compiler.passes) wraps runs in DescriptorStep nodes —
# consumers dispatch by isinstance, so the alias stays deliberately
# wide.
Step = object


@dataclass
class Schedule:
    """The recognizer's output: environment + ordered steps."""

    env: CompileEnv
    steps: List[Step] = field(default_factory=list)

    def accel_steps(self) -> List[AccelCallStep]:
        return [s for s in self.steps if isinstance(s, AccelCallStep)]

    def total_library_calls(self) -> int:
        """Calls in the original program (loops expanded) — the number
        the paper's Fig 14 compaction claim counts."""
        total = 0
        for step in self.steps:
            if isinstance(step, (AccelCallStep, HostCallStep)):
                total += step.calls
        return total


class Recognizer:
    """Builds a :class:`Schedule` from a parsed program."""

    def __init__(self, program: Program):
        self.program = program
        self.env = build_env(program)
        self.schedule = Schedule(env=self.env)
        self.functions = program.function_map()
        self._loc: Optional[SourceLoc] = None     # current statement
        self._omp = False                         # inside an omp nest
        self._chain: Tuple[str, ...] = ()         # inline call path
        self._inline_stack: List[str] = []
        self._inline_count = 0

    # -- helpers -------------------------------------------------------------

    def _nest(self, loop_vars: Tuple[str, ...],
              loc: Optional[SourceLoc]) -> None:
        """Raise before a loop or an inlined call nests past
        MAX_NEST_DEPTH: each loop and each call site being inlined
        counts one level (a call splices its callee's body in like a
        block), so the bound holds across function bodies."""
        if len(loop_vars) + len(self._inline_stack) >= MAX_NEST_DEPTH:
            raise self._error(TOO_DEEP, loc=loc)

    def _error(self, message: str, loc: Optional[SourceLoc] = None
               ) -> RecognizerError:
        return RecognizerError(message, loc=loc or self._loc)

    def _const(self, expr: Expr) -> Union[int, float]:
        try:
            return self.env.eval_const(expr)
        except SemanticError as exc:
            raise self._error(exc.message, loc=exc.loc) from exc

    def _int_const(self, expr: Expr) -> int:
        """A constant that must be structurally integral (a size,
        stride, rank, or trip count — never an ``alpha``-style
        coefficient, which may legitimately be fractional)."""
        value = self._const(expr)
        if isinstance(value, float):
            if not value.is_integer():
                raise self._error(f"expected an integer constant, "
                                  f"got {value!r}")
            return int(value)
        return value

    def _addr(self, expr: Expr) -> Tuple[str, Affine]:
        try:
            return self.env.buffer_address(expr)
        except SemanticError as exc:
            raise self._error(exc.message) from exc
        except AffineError as exc:
            raise self._error(str(exc)) from exc

    def _buffer(self, name: str) -> BufferInfo:
        return self.env.buffers[name]

    def _args(self, call: Call) -> Tuple[Expr, ...]:
        """The call's arguments, which must number exactly its arity."""
        count = LIBRARY[call.func].arity
        if len(call.args) != count:
            raise self._error(f"{call.func} takes {count} arguments, "
                              f"got {len(call.args)}", loc=call.loc)
        return call.args

    # -- top-level walk -------------------------------------------------------

    def run(self) -> Schedule:
        self._walk(self.program.stmts, loop_vars=(), trips=())
        return self.schedule

    def _walk(self, stmts: Sequence[Stmt], loop_vars: Tuple[str, ...],
              trips: Tuple[int, ...]) -> None:
        for stmt in stmts:
            self._loc = stmt_loc(stmt) or self._loc
            if isinstance(stmt, VarDecl):
                continue                    # handled by build_env
            elif isinstance(stmt, Assign):
                self._handle_assign(stmt, loop_vars)
            elif isinstance(stmt, ExprStmt) and isinstance(stmt.expr,
                                                           Call):
                self._handle_call(stmt.expr, loop_vars, trips)
            elif isinstance(stmt, For):
                self._handle_for(stmt, loop_vars, trips)
            else:
                raise self._error(f"unsupported statement {stmt!r}")

    def _handle_for(self, loop: For, loop_vars: Tuple[str, ...],
                    trips: Tuple[int, ...]) -> None:
        start = self._int_const(loop.start)
        bound = self._int_const(loop.bound)
        if start != 0 or loop.step != 1:
            raise self._error("only canonical 0..N-1 unit-step loops "
                                  "are supported for compaction")
        count = bound
        if count <= 0:
            raise self._error("loop trip count must be positive")
        self._nest(loop_vars, loop.loc)
        was_omp = self._omp
        self._omp = was_omp or loop.pragma_omp
        try:
            self._walk(loop.body, loop_vars + (loop.var,),
                       trips + (count,))
        finally:
            self._omp = was_omp

    def _inline_call(self, call: Call, loop_vars: Tuple[str, ...],
                     trips: Tuple[int, ...]) -> None:
        """Splice a user-defined function body into the call site.

        Recursion carries code MEA011: the effect summary is
        unavailable, and a recursive chain in this branchless subset
        could never terminate anyway.
        """
        name = call.func
        if name in self._inline_stack:
            path = " -> ".join(self._inline_stack + [name])
            raise RecognizerError(
                f"recursive call chain {path}; effect summary "
                "unavailable (a branchless recursive chain cannot "
                "terminate)", loc=call.loc or self._loc, code="MEA011")
        self._nest(loop_vars, call.loc)
        self._inline_count += 1
        body = inline_body(self.functions[name], call.args,
                           suffix=f"c{self._inline_count}")
        self._inline_stack.append(name)
        prev_chain = self._chain
        self._chain = prev_chain + (name,)
        try:
            self._walk(body, loop_vars, trips)
        finally:
            self._chain = prev_chain
            self._inline_stack.pop()

    def _handle_assign(self, stmt: Assign,
                       loop_vars: Tuple[str, ...]) -> None:
        if loop_vars:
            raise self._error("assignments inside OpenMP nests are "
                                  "not supported")
        value = stmt.value
        if isinstance(value, Call) and value.func == "malloc":
            if not isinstance(stmt.target, Ident):
                raise self._error("malloc must assign a pointer "
                                      "variable")
            buf = self.env.buffers.get(stmt.target.name)
            if buf is None:
                raise self._error(f"malloc assigns undeclared pointer "
                                  f"{stmt.target.name!r}")
            if not value.args:
                raise self._error("malloc takes a byte count")
            size = self._int_const(value.args[0])
            buf.count = size // buf.elem_size
            self.schedule.steps.append(
                AllocStep(buffer=buf.name, loc=stmt.loc))
            return
        if isinstance(value, Call) and value.func == "fftwf_plan_guru_dft":
            if not isinstance(stmt.target, Ident):
                raise self._error("plan must assign a plan variable")
            self._record_plan(stmt.target.name, value)
            return
        raise self._error(f"unsupported assignment {stmt!r}")

    # -- plan handling -------------------------------------------------------

    def _record_plan(self, name: str, call: Call) -> None:
        args = call.args
        if len(args) != 8:
            raise self._error("fftwf_plan_guru_dft takes 8 arguments")
        rank = self._int_const(args[0])
        dims = self._iodims(args[1], rank)
        howmany_rank = self._int_const(args[2])
        howmany = self._iodims(args[3], howmany_rank)
        src, src_off = self._addr(args[4])
        dst, dst_off = self._addr(args[5])
        sign = self._int_const(args[6])
        if not src_off.is_constant or not dst_off.is_constant:
            raise self._error("plan buffers must not depend on loop "
                                  "variables")
        self.env.plans[name] = PlanSpec(
            name=name, rank=rank, dims=dims, howmany=howmany, src=src,
            src_offset=src_off.const, dst=dst, dst_offset=dst_off.const,
            sign=sign)

    def _iodims(self, expr: Expr, rank: int) -> List[IoDimSpec]:
        if rank == 0:
            return []
        if isinstance(expr, Ident) and expr.name in self.env.iodims:
            dims = self.env.iodims[expr.name]
            if len(dims) != rank:
                raise self._error(
                    f"iodim array {expr.name!r} has {len(dims)} entries, "
                    f"rank says {rank}")
            return dims
        raise self._error("dims argument must name an fftw_iodim "
                              "array")

    # -- call dispatch ----------------------------------------------------------

    def _handle_call(self, call: Call, loop_vars: Tuple[str, ...],
                     trips: Tuple[int, ...]) -> None:
        name = call.func
        loc = call.loc or self._loc
        if name in self.functions:
            self._inline_call(call, loop_vars, trips)
            return
        if name == "free":
            if loop_vars:
                raise self._error("free inside a loop nest")
            if not call.args:
                raise self._error("free takes the buffer base pointer")
            target = call.args[0]
            if isinstance(target, Ident):
                buffer = target.name
            else:
                # inlined pointer parameters arrive as &buf[0]
                buffer, off = self._addr(target)
                if not off.is_constant or off.const != 0:
                    raise self._error("free takes the buffer base "
                                      "pointer")
            self.schedule.steps.append(
                FreeStep(buffer=buffer, loc=loc))
            return
        if name == "fftwf_destroy_plan":
            if loop_vars:
                raise self._error("fftwf_destroy_plan inside a loop "
                                  "nest")
            target = call.args[0] if call.args else None
            if not isinstance(target, Ident):
                raise self._error("fftwf_destroy_plan takes a plan name")
            self.schedule.steps.append(
                PlanDestroyStep(plan=target.name, loc=loc))
            return
        entry = LIBRARY.get(name)
        if entry is None:
            raise self._error(f"unknown library call {name!r}")
        if not entry.accel:
            self.schedule.steps.append(HostCallStep(
                func=name, args=call.args, trips=trips,
                loop_vars=loop_vars, loc=loc))
            return
        builder = getattr(self, f"_build_{name}", None)
        if builder is None:
            raise self._error(f"no builder for {name!r}")
        step = builder(call, loop_vars, trips)
        self.schedule.steps.append(step)

    def _accel_step(self, accel: str, proto: ParamsProto,
                    loop_vars: Sequence[str], trips: Sequence[int],
                    call: Optional[Call] = None) -> AccelCallStep:
        """The step, with its input and output buffers in the order the
        core declares the operands it reads and writes."""
        bufs = [(proto.addrs[f][0], op) for f, op in
                CORES[accel].operands(proto.zero_params()).items()]
        return AccelCallStep(accel=accel, proto=proto,
                             in_bufs=tuple(b for b, op in bufs if op.reads),
                             out_bufs=tuple(b for b, op in bufs
                                            if op.writes),
                             trips=tuple(trips),
                             loop_vars=tuple(loop_vars),
                             func=call.func if call is not None else "",
                             args=call.args if call is not None else (),
                             omp=self._omp, chain=self._chain,
                             loc=(call.loc if call is not None else None)
                             or self._loc)

    # -- builders, one per Table 1 function -------------------------------------

    def _build_cblas_saxpy(self, call: Call, loop_vars: Tuple[str, ...],
                            trips: Tuple[int, ...]) -> AccelCallStep:
        n, alpha, x, incx, y, incy = self._args(call)
        if self._int_const(incx) != 1 or self._int_const(incy) != 1:
            raise self._error("accelerated saxpy requires unit "
                                  "strides")
        xbuf, xoff = self._addr(x)
        ybuf, yoff = self._addr(y)
        proto = ParamsProto(
            params_type=AxpyParams,
            scalars={"n": self._int_const(n),
                     "alpha": float(self._const(alpha))},
            addrs={"x_pa": (xbuf, xoff), "y_pa": (ybuf, yoff)})
        return self._accel_step("AXPY", proto, loop_vars, trips, call)

    def _dot_step(self, call: Call, loop_vars: Tuple[str, ...],
                   trips: Tuple[int, ...], dtype: int) -> AccelCallStep:
        n, x, incx, y, incy, out = self._args(call)
        xbuf, xoff = self._addr(x)
        ybuf, yoff = self._addr(y)
        obuf, ooff = self._addr(out)
        proto = ParamsProto(
            params_type=DotParams,
            scalars={"n": self._int_const(n),
                     "incx": self._int_const(incx),
                     "incy": self._int_const(incy), "dtype": dtype},
            addrs={"x_pa": (xbuf, xoff), "y_pa": (ybuf, yoff),
                   "out_pa": (obuf, ooff)})
        return self._accel_step("DOT", proto, loop_vars, trips, call)

    def _build_cblas_sdot_sub(self, call: Call, loop_vars: Tuple[str, ...],
                               trips: Tuple[int, ...]) -> AccelCallStep:
        return self._dot_step(call, loop_vars, trips, DTYPE_F32)

    def _build_cblas_cdotc_sub(self, call: Call, loop_vars: Tuple[str, ...],
                                trips: Tuple[int, ...]) -> AccelCallStep:
        return self._dot_step(call, loop_vars, trips, DTYPE_C64)

    def _build_cblas_sgemv(self, call: Call, loop_vars: Tuple[str, ...],
                            trips: Tuple[int, ...]) -> AccelCallStep:
        (order, trans, m, n, alpha, a, lda, x, incx, beta, y,
         incy) = self._args(call)
        if self._int_const(order) != 101 or self._int_const(trans) != 111:
            raise self._error("accelerated sgemv supports row-major "
                                  "no-transpose only")
        if self._int_const(incx) != 1 or self._int_const(incy) != 1:
            raise self._error("accelerated sgemv requires unit "
                                  "strides")
        m_val, n_val = self._int_const(m), self._int_const(n)
        if self._int_const(lda) != n_val:
            raise self._error("accelerated sgemv requires lda == n")
        abuf, aoff = self._addr(a)
        xbuf, xoff = self._addr(x)
        ybuf, yoff = self._addr(y)
        proto = ParamsProto(
            params_type=GemvParams,
            scalars={"m": m_val, "n": n_val,
                     "alpha": float(self._const(alpha)),
                     "beta": float(self._const(beta))},
            addrs={"a_pa": (abuf, aoff), "x_pa": (xbuf, xoff),
                   "y_pa": (ybuf, yoff)})
        return self._accel_step("GEMV", proto, loop_vars, trips, call)

    def _build_mkl_scsrgemv(self, call: Call, loop_vars: Tuple[str, ...],
                             trips: Tuple[int, ...]) -> AccelCallStep:
        m, a, ia, ja, x, y = self._args(call)
        rows = self._int_const(m)
        abuf, _ = self._addr(a)
        ibuf, ioff = self._addr(ia)
        jbuf, joff = self._addr(ja)
        xbuf, xoff = self._addr(x)
        ybuf, yoff = self._addr(y)
        nnz = self._buffer(abuf).count
        proto = ParamsProto(
            params_type=SpmvParams,
            scalars={"rows": rows, "cols": rows, "nnz": nnz,
                     "locality_bytes": 0},
            addrs={"indptr_pa": (ibuf, ioff), "indices_pa": (jbuf, joff),
                   "data_pa": (abuf, Affine.constant(0)),
                   "x_pa": (xbuf, xoff), "y_pa": (ybuf, yoff)})
        return self._accel_step("SPMV", proto, loop_vars, trips, call)

    def _build_dfsInterpolate1D(self, call: Call, loop_vars: Tuple[str, ...],
                                 trips: Tuple[int, ...]) -> AccelCallStep:
        blocks, n_in, knots, series, n_out, sites, out = self._args(call)
        kbuf, koff = self._addr(knots)
        ibuf, ioff = self._addr(series)
        sbuf, soff = self._addr(sites)
        obuf, ooff = self._addr(out)
        proto = ParamsProto(
            params_type=ResmpParams,
            scalars={"blocks": self._int_const(blocks),
                     "n_in": self._int_const(n_in),
                     "n_out": self._int_const(n_out)},
            addrs={"in_pa": (ibuf, ioff), "sites_pa": (sbuf, soff),
                   "out_pa": (obuf, ooff), "knots_pa": (kbuf, koff)})
        return self._accel_step("RESMP", proto, loop_vars, trips, call)

    def _build_mkl_simatcopy(self, call: Call, loop_vars: Tuple[str, ...],
                              trips: Tuple[int, ...]) -> AccelCallStep:
        rows, cols, alpha, ab = self._args(call)
        if float(self._const(alpha)) != 1.0:
            raise self._error("accelerated simatcopy requires "
                                  "alpha == 1")
        buf, off = self._addr(ab)
        proto = ParamsProto(
            params_type=ReshpParams,
            scalars={"rows": self._int_const(rows),
                     "cols": self._int_const(cols),
                     "elem_bytes": self._buffer(buf).elem_size},
            addrs={"src_pa": (buf, off), "dst_pa": (buf, off)})
        return self._accel_step("RESHP", proto, loop_vars, trips, call)

    def _build_mkl_somatcopy(self, call: Call, loop_vars: Tuple[str, ...],
                              trips: Tuple[int, ...]) -> AccelCallStep:
        rows, cols, alpha, a, b = self._args(call)
        if float(self._const(alpha)) != 1.0:
            raise self._error("accelerated somatcopy requires "
                                  "alpha == 1")
        abuf, aoff = self._addr(a)
        bbuf, boff = self._addr(b)
        proto = ParamsProto(
            params_type=ReshpParams,
            scalars={"rows": self._int_const(rows),
                     "cols": self._int_const(cols),
                     "elem_bytes": self._buffer(abuf).elem_size},
            addrs={"src_pa": (abuf, aoff), "dst_pa": (bbuf, boff)})
        return self._accel_step("RESHP", proto, loop_vars, trips, call)

    def _build_fftwf_execute(self, call: Call, loop_vars: Tuple[str, ...],
                              trips: Tuple[int, ...]) -> AccelCallStep:
        arg = call.args[0] if call.args else None
        if not isinstance(arg, Ident) or arg.name not in self.env.plans:
            raise self._error("fftwf_execute takes a prepared plan")
        plan = self.env.plans[arg.name]
        if plan.rank == 0:
            return self._reshape_from_plan(plan, loop_vars, trips, call)
        if plan.rank == 1:
            return self._fft_from_plan(plan, loop_vars, trips, call)
        raise self._error("only rank-0 and rank-1 guru plans are "
                              "supported")

    def _fft_from_plan(self, plan: PlanSpec,
                       loop_vars: Tuple[str, ...],
                       trips: Tuple[int, ...],
                       call: Optional[Call] = None) -> AccelCallStep:
        dim = plan.dims[0]
        if dim.istride != 1 or dim.ostride != 1:
            raise self._error("accelerated FFT needs unit transform "
                                  "stride (reshape first)")
        batch = 1
        for hd in plan.howmany:
            batch *= hd.n
        proto = ParamsProto(
            params_type=FftParams,
            scalars={"n": dim.n, "batch": batch, "sign": plan.sign},
            addrs={"src_pa": (plan.src,
                              Affine.constant(plan.src_offset)),
                   "dst_pa": (plan.dst,
                              Affine.constant(plan.dst_offset))})
        return self._accel_step("FFT", proto, loop_vars, trips, call)

    def _reshape_from_plan(self, plan: PlanSpec,
                           loop_vars: Tuple[str, ...],
                           trips: Tuple[int, ...],
                           call: Optional[Call] = None
                           ) -> AccelCallStep:
        batch, rows, cols = analyze_corner_turn(plan.howmany)
        elem = self._buffer(plan.src).elem_size
        proto = ParamsProto(
            params_type=ReshpParams,
            scalars={"rows": rows, "cols": cols, "elem_bytes": elem},
            addrs={"src_pa": (plan.src,
                              Affine.constant(plan.src_offset)),
                   "dst_pa": (plan.dst,
                              Affine.constant(plan.dst_offset))})
        step_trips = tuple(trips)
        step_vars = tuple(loop_vars)
        if batch > 1:
            # batched corner turn: a LOOP over per-slab transposes
            var = f"__reshp_batch_{len(self.schedule.steps)}"
            slab = rows * cols * elem
            proto = ParamsProto(
                params_type=proto.params_type,
                scalars=proto.scalars,
                addrs={"src_pa": (plan.src, Affine(
                    const=plan.src_offset, coefs={var: slab})),
                    "dst_pa": (plan.dst, Affine(
                        const=plan.dst_offset, coefs={var: slab}))})
            step_trips = step_trips + (batch,)
            step_vars = step_vars + (var,)
        return self._accel_step("RESHP", proto, step_vars, step_trips,
                                call)


def analyze_corner_turn(howmany: List[IoDimSpec]
                        ) -> Tuple[int, int, int]:
    """Classify a rank-0 guru plan as (batch, rows, cols) transpose.

    Dims are sorted input-major; a contiguous prefix with identical
    input/output layout is the batch; the remaining two dims must be a
    swap (rows x cols transposed). This covers the STAP corner turn and
    every 2-D/batched-2-D layout change our workloads perform.
    """
    dims = sorted(howmany, key=lambda d: -d.istride)
    # verify the input side is dense
    expected = 1
    for d in reversed(dims):
        if d.istride != expected:
            raise RecognizerError("corner-turn input is not dense")
        expected *= d.n
    out_sorted = sorted(dims, key=lambda d: -d.ostride)
    expected = 1
    for d in reversed(out_sorted):
        if d.ostride != expected:
            raise RecognizerError("corner-turn output is not dense")
        expected *= d.n
    batch = 1
    idx = 0
    while idx < len(dims) and dims[idx] is out_sorted[idx]:
        batch *= dims[idx].n
        idx += 1
    rest_in = dims[idx:]
    rest_out = out_sorted[idx:]
    if len(rest_in) == 0:
        return batch, 1, 1                     # pure copy
    if len(rest_in) == 2 and rest_in[0] is rest_out[1] \
            and rest_in[1] is rest_out[0]:
        return batch, rest_in[0].n, rest_in[1].n
    raise RecognizerError("layout change is not a (batched) 2-D "
                          "transpose")


def recognize(program: Program) -> Schedule:
    """Run pass 1 over a parsed program."""
    return Recognizer(program).run()

"""Per-function effect summaries for the interprocedural analysis.

A :class:`FunctionSummary` is everything the whole-program solvers
need to know about one user-defined function *without* looking inside
it again at every call site:

* **events** — the ordered lifecycle/access effects of one invocation
  (``alloc``/``free``/``read``/``write``/``ref``/``plan_*``/
  ``escape``) phrased over *summary targets*: a pointer parameter, a
  global buffer, or a plan. At a call site the parameter targets are
  re-bound to the caller's buffers and the events replayed into the
  dataflow solvers, so MEA001–MEA007 (and their interprocedural form
  MEA012) fire across function boundaries.
* **intervals** — byte intervals each pointer argument of a library
  call touches, affine in the function's scalar parameters and its
  own loop variables where provable (offset ``None`` marks an effect
  the summary cannot bound).
* **escapes** — pointer parameters whose address is captured by
  state that outlives the call (an FFTW plan): the caller loses
  local reasoning about that buffer, which conservatively demotes
  accelerated calls on it under parallel loops (MEA011).

Summaries are computed callees-first over the call graph; functions
on a recursive cycle have no summary (``available=False``) — and in a
branchless subset a recursive chain cannot terminate, so the
recognizer separately rejects such programs with code MEA011.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.affine import Affine, AffineError
from repro.compiler.analysis.callgraph import build_call_graph
from repro.compiler.cast import (AddrOf, Assign, BinOp, Call, Expr,
                                 ExprStmt, For, FuncDef, Ident, Index,
                                 Program, Stmt, VarDecl)
from repro.compiler.cparser import TYPE_KEYWORDS
from repro.compiler.diagnostics import SourceLoc
from repro.compiler.library import (LIBRARY, Target, call_effects,
                                    plan_captures)
from repro.compiler.semantics import CompileEnv, SemanticError


@dataclass(frozen=True)
class SummaryEvent:
    """One lifecycle/access effect of a function invocation."""

    kind: str
    target: Target
    loc: Optional[SourceLoc] = None
    #: user-function path *below* this function (nested calls).
    chain: Tuple[str, ...] = ()


@dataclass(frozen=True)
class IntervalEffect:
    """Byte interval a library call inside the function touches."""

    target: Target
    mode: str                        # "r" | "w"
    offset: Optional[Affine] = None  # bytes; affine in params/loop vars
    extent: Optional[int] = None     # bytes; None = unbounded/unknown


@dataclass
class FunctionSummary:
    """The whole-program-visible effect of one function."""

    name: str
    #: ordered formals as ``(name, is_pointer)`` — call sites use this
    #: to re-bind parameter targets to actual arguments.
    params: Tuple[Tuple[str, bool], ...] = ()
    events: Tuple[SummaryEvent, ...] = ()
    intervals: Tuple[IntervalEffect, ...] = ()
    escapes: Tuple[str, ...] = ()
    available: bool = True
    reason: str = ""

    def reads(self) -> Tuple[Target, ...]:
        return tuple(e.target for e in self.events if e.kind == "read")

    def writes(self) -> Tuple[Target, ...]:
        return tuple(e.target for e in self.events if e.kind == "write")

    def rebind(self, args: Sequence[Expr],
               resolve: Callable[[Expr], Optional[Target]]
               ) -> Callable[[Target], Optional[Target]]:
        """Map this function's targets to a call site's: a pointer
        parameter to ``resolve`` of its argument (None if that does not
        resolve), a global buffer or plan to itself."""
        binding = {name: resolve(arg) for (name, pointer), arg
                   in zip(self.params, args) if pointer}
        return lambda t: binding.get(t[1]) if t[0] == "param" else t


class _Summarizer:
    def __init__(self, env: CompileEnv, func: FuncDef,
                 done: Dict[str, "FunctionSummary"]):
        self.env = env
        self.func = func
        self.done = done
        self.pointer_params = {p.name: p for p in func.params
                               if p.pointer}
        self.scalar_params = {p.name for p in func.params
                              if not p.pointer}
        self.events: List[SummaryEvent] = []
        self.intervals: List[IntervalEffect] = []
        self.escapes: List[str] = []

    # -- target / offset resolution ------------------------------------------

    def _base_ident(self, expr: Expr) -> Optional[str]:
        node = expr
        while True:
            if isinstance(node, AddrOf):
                node = node.operand
            elif isinstance(node, Index):
                node = node.base
            elif isinstance(node, BinOp) and node.op == "+":
                node = node.left
            elif isinstance(node, Ident):
                return node.name
            else:
                return None

    def resolve_target(self, expr: Expr) -> Optional[Target]:
        base = self._base_ident(expr)
        if base is None:
            return None
        if base in self.pointer_params:
            return ("param", base)
        if base in self.env.buffers:
            return ("buffer", base)
        return None

    def _offset_affine(self, expr: Expr,
                       target: Target) -> Optional[Affine]:
        """Byte offset of a pointer expression, affine in the scalar
        parameters and the function's loop variables."""
        try:
            if target[0] == "buffer":
                _, off = self.env.buffer_address(expr)
                return off
            # parameter pointers are flat: &p[i] or p + k forms only
            elem = TYPE_KEYWORDS.get(
                self.pointer_params[target[1]].ctype, 0)
            if isinstance(expr, Ident):
                return Affine.constant(0)
            if isinstance(expr, AddrOf) \
                    and isinstance(expr.operand, Index) \
                    and isinstance(expr.operand.base, Ident):
                return self.env.affine_expr(
                    expr.operand.idx).scale(elem)
            if isinstance(expr, BinOp) and expr.op == "+" \
                    and isinstance(expr.left, Ident):
                return self.env.affine_expr(expr.right).scale(elem)
        except (SemanticError, AffineError):
            return None
        return None

    def _const(self, expr: Expr) -> Optional[int]:
        try:
            value = self.env.eval_const(expr)
        except SemanticError:
            return None
        return int(value)

    # -- statement walk ------------------------------------------------------

    def run(self) -> FunctionSummary:
        self._walk(self.func.body)
        return FunctionSummary(
            name=self.func.name,
            params=tuple((p.name, p.pointer) for p in self.func.params),
            events=tuple(self.events),
            intervals=tuple(self.intervals),
            escapes=tuple(dict.fromkeys(self.escapes)))

    def _walk(self, stmts: Tuple[Stmt, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, VarDecl):
                continue
            if isinstance(stmt, For):
                self._walk(stmt.body)
                continue
            if isinstance(stmt, Assign):
                self._assign(stmt)
                continue
            if isinstance(stmt, ExprStmt) and isinstance(stmt.expr,
                                                         Call):
                self._call(stmt.expr, stmt.loc)

    def _assign(self, stmt: Assign) -> None:
        value = stmt.value
        if not isinstance(value, Call) \
                or not isinstance(stmt.target, Ident):
            return
        name = stmt.target.name
        if value.func == "malloc":
            if name in self.pointer_params:
                raise SemanticError(
                    f"function {self.func.name!r} reassigns pointer "
                    f"parameter {name!r} via malloc", loc=stmt.loc)
            self.events.append(
                SummaryEvent("alloc", ("buffer", name), stmt.loc))
            return
        if value.func == "fftwf_plan_guru_dft":
            self.events.append(
                SummaryEvent("plan_make", ("plan", name), stmt.loc))
            for target in plan_captures(value, self.resolve_target):
                self.events += [SummaryEvent("ref", target, stmt.loc),
                                SummaryEvent("escape", target, stmt.loc)]
                if target[0] == "param":
                    self.escapes.append(target[1])

    def _call(self, call: Call,
              loc: Optional[SourceLoc]) -> None:
        if call.func in self.done:      # nested user call: splice
            self._splice(call, loc)
            return
        entry = LIBRARY.get(call.func)
        args = call.args

        def const(i: int) -> Optional[int]:
            return self._const(args[i]) if i < len(args) else None

        for kind, target, idx in call_effects(
                call, self.env, lambda _, expr: self.resolve_target(expr)):
            self.events.append(SummaryEvent(kind, target, loc))
            if idx is None:             # not a pointer argument's access
                continue
            if target[0] == "param":
                elem = TYPE_KEYWORDS.get(
                    self.pointer_params[target[1]].ctype, 0)
            else:
                elem = self.env.buffers[target[1]].elem_size
            extent = (entry.extent(idx, const, elem)
                      if entry.extent is not None else None)
            self.intervals.append(IntervalEffect(
                target, kind[0], self._offset_affine(args[idx], target),
                extent))

    def _splice(self, call: Call,
                loc: Optional[SourceLoc]) -> None:
        callee = self.done[call.func]
        target_of = callee.rebind(call.args, self.resolve_target)
        for ev in callee.events:
            target = target_of(ev.target)
            if target is None:
                continue
            self.events.append(SummaryEvent(
                ev.kind, target, loc,
                chain=(callee.name,) + ev.chain))
            if ev.kind == "escape" and target[0] == "param":
                self.escapes.append(target[1])
        for iv in callee.intervals:
            target = target_of(iv.target)
            if target is not None:
                # offsets are affine in the *callee's* frame; the caller
                # keeps only the extent (interval base unknown here).
                self.intervals.append(IntervalEffect(
                    target, iv.mode, None, iv.extent))


def compute_summaries(program: Program,
                      env: CompileEnv) -> Dict[str, FunctionSummary]:
    """Summaries for every user-defined function, callees first.

    Functions on a recursive cycle (or calling one) get an
    ``available=False`` placeholder — rule code must treat any effect
    through them as unknowable.
    """
    graph = build_call_graph(program)
    functions = program.function_map()
    summaries: Dict[str, FunctionSummary] = {}
    for name in graph.unavailable():
        summaries[name] = FunctionSummary(
            name=name, available=False,
            reason="recursive call cycle; effect summary unavailable")
    for name in graph.topo_order():
        summaries[name] = _Summarizer(env, functions[name],
                                      summaries).run()
    return summaries

"""Per-function effect summaries for the interprocedural analysis.

A :class:`FunctionSummary` is everything the whole-program solvers
need to know about one user-defined function *without* looking inside
it again at every call site: the ordered lifecycle/access **events**
of one invocation (``alloc``/``free``/``read``/``write``/``ref``/
``plan_*``/``escape``) phrased over *summary targets*: a pointer
parameter, a global buffer, or a plan. At a call site the parameter
targets are re-bound to the caller's buffers and the events replayed
into the dataflow solvers, so MEA001–MEA007 (and their
interprocedural form MEA012) fire across function boundaries. An
``escape`` event marks a buffer whose address is captured by state
that outlives the call (an FFTW plan): the caller loses local
reasoning about it, which demotes accelerated calls on it under
parallel loops (MEA011).

Summaries are computed callees-first over the call graph. Functions
on or reaching a recursive cycle get none: in a branchless subset a
recursive chain cannot terminate, so the recognizer rejects a program
that calls one (code MEA011) before any analysis runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.analysis.callgraph import build_call_graph
from repro.compiler.cast import (AddrOf, Assign, BinOp, Call, Expr,
                                 ExprStmt, For, FuncDef, Ident, Index,
                                 Program, Stmt, VarDecl)
from repro.compiler.library import Target, call_effects, plan_captures
from repro.compiler.semantics import CompileEnv, SemanticError


@dataclass(frozen=True)
class SummaryEvent:
    """One lifecycle/access effect of a function invocation."""

    kind: str
    target: Target
    #: user-function path *below* this function (nested calls).
    chain: Tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    """The whole-program-visible effect of one function."""

    name: str
    #: ordered formals as ``(name, is_pointer)`` — call sites use this
    #: to re-bind parameter targets to actual arguments.
    params: Tuple[Tuple[str, bool], ...] = ()
    events: Tuple[SummaryEvent, ...] = ()

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
        self.pointer_params = {p.name for p in func.params if p.pointer}
        self.events: List[SummaryEvent] = []

    # -- target resolution ---------------------------------------------------

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

    # -- statement walk ------------------------------------------------------

    def run(self) -> FunctionSummary:
        self._walk(self.func.body)
        return FunctionSummary(
            name=self.func.name,
            params=tuple((p.name, p.pointer) for p in self.func.params),
            events=tuple(self.events))

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
                self._call(stmt.expr)

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
            self.events.append(SummaryEvent("alloc", ("buffer", name)))
            return
        if value.func == "fftwf_plan_guru_dft":
            self.events.append(SummaryEvent("plan_make", ("plan", name)))
            for target in plan_captures(value, self.resolve_target):
                self.events += [SummaryEvent("ref", target),
                                SummaryEvent("escape", target)]

    def _call(self, call: Call) -> None:
        if call.func in self.done:      # nested user call: splice
            self._splice(call)
            return
        for kind, target in call_effects(
                call, self.env, lambda _, expr: self.resolve_target(expr)):
            self.events.append(SummaryEvent(kind, target))

    def _splice(self, call: Call) -> None:
        callee = self.done[call.func]
        target_of = callee.rebind(call.args, self.resolve_target)
        for ev in callee.events:
            target = target_of(ev.target)
            if target is not None:
                self.events.append(SummaryEvent(
                    ev.kind, target, chain=(callee.name,) + ev.chain))


def compute_summaries(program: Program,
                      env: CompileEnv) -> Dict[str, FunctionSummary]:
    """Summaries for every user-defined function that neither lies on
    nor reaches a recursive cycle, callees first."""
    graph = build_call_graph(program)
    functions = program.function_map()
    summaries: Dict[str, FunctionSummary] = {}
    for name in graph.topo_order():
        summaries[name] = _Summarizer(env, functions[name],
                                      summaries).run()
    return summaries

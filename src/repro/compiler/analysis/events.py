"""Buffer/plan lifecycle and access events per statement.

Dataflow facts are phrased over *events* — the analysable things a
statement does to a buffer or an FFTW plan. Which arguments a library
call reads and writes comes from its signature in
:mod:`repro.compiler.library` (through :func:`call_effects`, which the
function summaries share); everything else the rules need (alloc/free
order, plan creation/destruction) comes from the malloc/free/plan forms
the recognizer also understands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.compiler.affine import AffineError
from repro.compiler.cast import (Assign, Call, ExprStmt, Ident, Stmt,
                                 VarDecl)
from repro.compiler.diagnostics import SourceLoc
from repro.compiler.library import Target, call_effects, plan_captures
from repro.compiler.semantics import CompileEnv, SemanticError

#: Event kinds:
#:   alloc / free        heap buffer lifecycle (malloc / free)
#:   read / write        library call touches the buffer's memory
#:   ref                 address taken without a data access (plan setup)
#:   plan_make / plan_use / plan_kill   FFTW plan lifecycle
#:   escape              address captured by state outliving the call
EVENT_KINDS = ("alloc", "free", "read", "write", "ref",
               "plan_make", "plan_use", "plan_kill", "escape")


@dataclass(frozen=True)
class BufferEvent:
    kind: str
    name: str                        # buffer or plan name
    loc: Optional[SourceLoc] = None
    #: call chain (outermost callee first) when the event reaches this
    #: statement through a user-defined function's effect summary;
    #: empty for events the statement performs directly.
    chain: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


def _buffer_target(env: CompileEnv, expr) -> Optional[Target]:
    """The buffer a pointer argument resolves to (None if unknown)."""
    try:
        name, _ = env.buffer_address(expr)
    except (SemanticError, AffineError):
        return None
    return ("buffer", name)


def _summary_events(env: CompileEnv, call: Call,
                    loc: Optional[SourceLoc],
                    summary) -> List[BufferEvent]:
    """Replay a callee's effect summary at this call site.

    Parameter targets are re-bound to the caller's buffers; events on
    the callee's globals pass through unchanged. Every replayed event
    carries the call chain so downstream diagnostics can name the path
    (and the lifecycle rules can upgrade a violation to MEA012)."""
    target_of = summary.rebind(call.args,
                               lambda arg: _buffer_target(env, arg))
    events: List[BufferEvent] = []
    for ev in summary.events:
        target = target_of(ev.target)
        if target is not None:
            events.append(BufferEvent(ev.kind, target[1], loc,
                                      chain=(summary.name,) + ev.chain))
    return events


def _call_events(env: CompileEnv, call: Call,
                 loc: Optional[SourceLoc],
                 summaries: Optional[Mapping[str, object]] = None
                 ) -> List[BufferEvent]:
    if summaries and call.func in summaries:
        return _summary_events(env, call, loc, summaries[call.func])

    def resolve(kind: str, expr) -> Optional[Target]:
        # free names its pointer, declared or not, as the recognizer does
        if kind == "free" and isinstance(expr, Ident):
            return ("buffer", expr.name)
        return _buffer_target(env, expr)

    return [BufferEvent(kind, target[1], loc)
            for kind, target in call_effects(call, env, resolve)]


def stmt_events(stmt: Stmt, env: CompileEnv,
                summaries: Optional[Mapping[str, object]] = None
                ) -> List[BufferEvent]:
    """Events the statement performs, in execution order.

    With ``summaries`` (name -> :class:`FunctionSummary`), a call to a
    user-defined function expands to its summarised effects — the
    interprocedural half of the analysis."""
    if isinstance(stmt, VarDecl):
        return []
    if isinstance(stmt, Assign):
        value = stmt.value
        if isinstance(value, Call) and value.func == "malloc" \
                and isinstance(stmt.target, Ident):
            return [BufferEvent("alloc", stmt.target.name, stmt.loc)]
        if isinstance(value, Call) \
                and value.func == "fftwf_plan_guru_dft" \
                and isinstance(stmt.target, Ident):
            events = [BufferEvent("plan_make", stmt.target.name,
                                  stmt.loc)]
            for target in plan_captures(
                    value, lambda arg: _buffer_target(env, arg)):
                events.append(BufferEvent("ref", target[1], stmt.loc))
            return events
        return []
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call):
        return _call_events(env, stmt.expr, stmt.loc, summaries)
    return []

"""Buffer/plan lifecycle and access events per statement.

Dataflow facts are phrased over *events* — the analysable things a
statement does to a buffer or an FFTW plan. The per-function pointer
effects table below encodes which arguments each supported library call
reads and writes; everything else the rules need (alloc/free order,
plan creation/destruction) comes from the malloc/free/plan forms the
recognizer also understands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.compiler.affine import AffineError
from repro.compiler.cast import (Assign, Call, ExprStmt, Ident, Stmt,
                                 VarDecl)
from repro.compiler.diagnostics import SourceLoc
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


#: Pointer-argument effects of each supported library call:
#: ``{arg index: "r" | "w" | "rw"}``. Indices are 0-based positions in
#: the C argument list.
CALL_EFFECTS = {
    "cblas_saxpy": {2: "r", 4: "rw"},
    "cblas_sdot_sub": {1: "r", 3: "r", 5: "w"},
    "cblas_cdotc_sub": {1: "r", 3: "r", 5: "w"},
    "cblas_sgemv": {5: "r", 7: "r", 10: "rw"},
    "mkl_scsrgemv": {1: "r", 2: "r", 3: "r", 4: "r", 5: "w"},
    "dfsInterpolate1D": {2: "r", 3: "r", 5: "r", 6: "w"},
    "mkl_simatcopy": {3: "rw"},
    "mkl_somatcopy": {3: "r", 4: "w"},
    "cblas_cherk": {3: "r", 5: "rw"},
    "cblas_ctrsm_lower": {2: "r", 3: "rw"},
    "cblas_ctrsm_upper": {2: "r", 3: "rw"},
    "cpotrf_lower": {1: "rw"},
}


def _buffer_of(env: CompileEnv, expr) -> Optional[str]:
    """Buffer name a pointer argument resolves to (None if unknown)."""
    try:
        name, _ = env.buffer_address(expr)
    except (SemanticError, AffineError):
        return None
    return name


def _summary_events(env: CompileEnv, call: Call,
                    loc: Optional[SourceLoc],
                    summary) -> List[BufferEvent]:
    """Replay a callee's effect summary at this call site.

    Parameter targets are re-bound to the caller's buffers; events on
    the callee's globals pass through unchanged. Every replayed event
    carries the call chain so downstream diagnostics can name the path
    (and the lifecycle rules can upgrade a violation to MEA012)."""
    if not summary.available:
        return []
    binding: Dict[str, Optional[str]] = {}
    for (pname, pointer), arg in zip(summary.params, call.args):
        if pointer:
            binding[pname] = _buffer_of(env, arg)
    events: List[BufferEvent] = []
    for ev in summary.events:
        kind, name = ev.target
        if kind == "param":
            resolved = binding.get(name)
            if resolved is None:
                continue
            name = resolved
        events.append(BufferEvent(ev.kind, name, loc,
                                  chain=(summary.name,) + ev.chain))
    return events


def _call_events(env: CompileEnv, call: Call,
                 loc: Optional[SourceLoc],
                 summaries: Optional[Mapping[str, object]] = None
                 ) -> List[BufferEvent]:
    events: List[BufferEvent] = []
    if summaries and call.func in summaries:
        return _summary_events(env, call, loc, summaries[call.func])
    if call.func == "free":
        if call.args:
            if isinstance(call.args[0], Ident):
                events.append(
                    BufferEvent("free", call.args[0].name, loc))
            else:
                buf = _buffer_of(env, call.args[0])
                if buf is not None:
                    events.append(BufferEvent("free", buf, loc))
        return events
    if call.func == "fftwf_destroy_plan":
        if call.args and isinstance(call.args[0], Ident):
            events.append(
                BufferEvent("plan_kill", call.args[0].name, loc))
        return events
    if call.func == "fftwf_execute":
        arg = call.args[0] if call.args else None
        if isinstance(arg, Ident) and arg.name in env.plans:
            plan = env.plans[arg.name]
            events.append(BufferEvent("plan_use", arg.name, loc))
            events.append(BufferEvent("read", plan.src, loc))
            events.append(BufferEvent("write", plan.dst, loc))
        return events
    effects = CALL_EFFECTS.get(call.func)
    if effects is None:
        return events
    for idx, mode in effects.items():
        if idx >= len(call.args):
            continue
        buf = _buffer_of(env, call.args[idx])
        if buf is None:
            continue
        if "r" in mode:
            events.append(BufferEvent("read", buf, loc))
        if "w" in mode:
            events.append(BufferEvent("write", buf, loc))
    return events


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
            # the plan captures both buffer addresses at creation time
            for arg_idx in (4, 5):
                if arg_idx < len(value.args):
                    buf = _buffer_of(env, value.args[arg_idx])
                    if buf is not None:
                        events.append(
                            BufferEvent("ref", buf, stmt.loc))
            return events
        return []
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call):
        return _call_events(env, stmt.expr, stmt.loc, summaries)
    return []

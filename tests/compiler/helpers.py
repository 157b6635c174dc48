"""Shared helpers for the compiler tests.

Besides the seeded program generators several test modules draw from,
this module keeps the straightforward forms of the front end's hot
paths as differential references, each of which the library must match
exactly:

* :func:`reference_tokenize`, the per-character C-subset tokenizer, for
  :func:`repro.compiler.clexer.tokenize`;
* :func:`reference_parse_source`, the recursive-descent expression
  chain (one method per precedence level) the parser used before
  precedence climbing;
* :class:`ReferenceValueRanges`, the range solver that recomputes every
  edge state, join and transfer each round;
* :func:`reference_rpo`, the recursive walk behind :meth:`Cfg.rpo`;
* :func:`reference_solve_forward`, :func:`reference_solve_backward` and
  :class:`ReferenceLiveness`, the dataflow solvers without reuse and
  liveness with its per-statement transfer;
* the syntactic accelerator chainer the compiler used before the
  verified rewrite engine became its only chainer, for the engine's
  fusions;
* :func:`reference_eval_args` and :class:`ReferenceInterpreter`, the
  per-iteration argument resolution both interpreters used before
  :func:`repro.compiler.interp.bind_args` bound each call site once;
* :func:`field_extents`, :data:`READ_FIELDS`, :data:`WRITE_FIELDS`,
  :data:`INPLACE_EXACT_OK`, the reduction rule and the builders' buffer
  lists, the compiler's hand-kept operand tables, for the operands every
  accelerator core declares once;
* :func:`reference_check_step_aliasing`,
  :func:`reference_check_step_bounds`, :func:`reference_classify_races`,
  :func:`reference_certify_step` and :func:`reference_split_step`, each
  proving a step on its own before they all read one
  :func:`repro.compiler.analysis.alias.prove_step` record.

The reference tokenizer is the straightforward path: at each position
try whitespace, an identifier, a number, the multi-character operators
longest first and single punctuation, in that order. The library
matches one compiled alternation of the same classes per line; both
must produce the same ``(kind, text, line, col)`` stream, the same
defines and the same error messages.

The one intended difference is the number pattern: the old one tried
hex last, so ``0x10`` lexed as ``0`` then ``x10``. ``hex_first=True``
(the default) puts hex first as the library does;
``hex_first=False`` is the old lexer exactly.
"""

import dataclasses
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, cast

from repro.compiler.affine import Affine
from repro.compiler.analysis.alias import (FieldAccess,
                                           cross_iteration_verdict,
                                           same_iteration_verdict,
                                           step_accesses, step_ranges)
from repro.compiler.analysis.certificates import (CertFact,
                                                  SafetyCertificate)
from repro.compiler.analysis.cfg import BasicBlock, Cfg
from repro.compiler.analysis.dataflow import (EMPTY as NO_FACTS, Facts,
                                              Liveness, Transfer)
from repro.compiler.analysis.deptest import DepVerdict
from repro.compiler.analysis.races import (fallback_note,
                                           shared_interval)
from repro.compiler.analysis.ranges import (_NARROW_ROUNDS, _WIDEN_AFTER,
                                            TOP, Interval, State,
                                            ValueRanges, affine_interval)
from repro.compiler.cast import (AddrOf, BinOp, Call, CParseError, Expr,
                                 Ident, Index, InitList, Num, Program,
                                 Sizeof, VarDecl)
from repro.compiler.clexer import parse_number, tokenize
from repro.compiler.cparser import TYPE_KEYWORDS, _loc, _Parser
from repro.compiler.inline import inline_body
from repro.compiler import interp
from repro.compiler.interp import (ArrayRef, InterpError,
                                   OriginalInterpreter)
from repro.compiler.library import LIBRARY, POINTER_KINDS
from repro.compiler.diagnostics import (Diagnostic, DiagnosticReport,
                                        Severity)
from repro.compiler.recognizer import AccelCallStep, Schedule
from repro.compiler.rewrite.legality import LegalityVerdict
from repro.compiler.semantics import CompileEnv, SemanticError

# -- reference tokenizer -----------------------------------------------------

_OPERATORS = ("<<=", ">>=", "++", "--", "+=", "-=", "*=", "/=", "<=",
              ">=", "==", "!=", "&&", "||")

_PUNCT = set("()[]{};,&*+-/%<>=!")

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DECIMAL = (r"\d+\.\d*([eE][+-]?\d+)?[fF]?|\.\d+[fF]?|"
            r"\d+([eE][+-]?\d+)?[fFuUlL]*")
_HEX = r"0[xX][0-9a-fA-F]+"
_NUM_RE_OLD = re.compile(f"({_DECIMAL}|{_HEX})")
_NUM_RE_HEX_FIRST = re.compile(f"({_HEX}|{_DECIMAL})")


def _strip_comments(source):
    source = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                    source, flags=re.S)
    return re.sub(r"//[^\n]*", "", source)


def reference_tokenize(source, hex_first=True):
    """Return (tokens, defines) with tokens as (kind, text, line, col)."""
    num_re = _NUM_RE_HEX_FIRST if hex_first else _NUM_RE_OLD
    tokens = []
    defines = []
    for lineno, raw_line in enumerate(_strip_comments(source).splitlines(),
                                      start=1):
        line = raw_line
        stripped = line.strip()
        if stripped.startswith("#define"):
            parts = stripped.split(None, 2)
            if len(parts) != 3:
                raise CParseError(
                    f"line {lineno}: malformed #define {stripped!r}")
            defines.append((parts[1], parts[2]))
            continue
        if stripped.startswith("#pragma"):
            if "omp" in stripped and "parallel" in stripped \
                    and "for" in stripped:
                col = len(line) - len(line.lstrip()) + 1
                tokens.append(("pragma", stripped, lineno, col))
            continue
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            col = pos + 1
            id_match = _ID_RE.match(line, pos)
            if id_match:
                tokens.append(("id", id_match.group(0), lineno, col))
                pos = id_match.end()
                continue
            num_match = num_re.match(line, pos)
            if num_match:
                tokens.append(("num", num_match.group(0), lineno, col))
                pos = num_match.end()
                continue
            for op in _OPERATORS:
                if line.startswith(op, pos):
                    tokens.append(("op", op, lineno, col))
                    pos += len(op)
                    break
            else:
                if ch in _PUNCT:
                    tokens.append(("op", ch, lineno, col))
                    pos += 1
                else:
                    raise CParseError(
                        f"line {lineno}: unexpected character {ch!r}")
    return tokens, defines


# -- reference parser --------------------------------------------------------
#
# The token helpers and expression methods as they were before the
# parser kept a flat text list and climbed precedences: one method per
# level, each looping over its operators. They have no depth limit and
# spend about seven Python frames per nesting level, so about 140
# nested parentheses overflow Python's recursion limit here; the
# differential inputs stay far below that. Statements are the
# library's.

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


class ReferenceParser(_Parser):
    def peek(self, offset=0):
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at(self, text):
        tok = self.peek()
        return tok is not None and tok.text == text

    def advance(self):
        tok = self.peek()
        if tok is None:
            raise CParseError("unexpected end of input")
        self.pos += 1
        return tok

    def parse_init_list(self) -> InitList:
        self.expect("{")
        items = []
        while not self.at("}"):
            items.append(self.parse_init_list() if self.at("{")
                         else self.parse_expr())
            if self.at(","):
                self.advance()
        self.expect("}")
        return InitList(items=tuple(items))

    def parse_expr(self) -> Expr:
        return self.parse_compare()

    def parse_compare(self) -> Expr:
        left = self.parse_additive()
        while (tok := self.peek()) is not None and tok.text in _CMP_OPS:
            op = self.advance().text
            left = BinOp(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.at("*") or self.at("/") or self.at("%"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.at("&"):
            self.advance()
            return AddrOf(self.parse_unary())
        if self.at("-"):
            self.advance()
            operand = self.parse_unary()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return BinOp("-", Num(0), operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("["):
            self.advance()
            idx = self.parse_expr()
            self.expect("]")
            expr = Index(base=expr, idx=idx)
        return expr

    def parse_primary(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(parse_number(tok.text))
        if tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "id":
            if tok.text == "sizeof":
                self.expect("(")
                ctype = self.advance().text
                if ctype not in TYPE_KEYWORDS:
                    raise CParseError(
                        f"line {tok.line}: sizeof of unknown type "
                        f"{ctype!r}")
                self.expect(")")
                return Sizeof(ctype=ctype)
            if self.at("("):
                self.advance()
                args = []
                while not self.at(")"):
                    args.append(self.parse_expr())
                    if self.at(","):
                        self.advance()
                self.expect(")")
                return Call(func=tok.text, args=tuple(args),
                            loc=_loc(tok))
            return Ident(name=tok.text)
        raise CParseError(f"line {tok.line}: unexpected token "
                          f"{tok.text!r}")


def reference_parse_source(source: str) -> Program:
    """:func:`repro.compiler.parse_source` with the reference
    expression chain."""
    tokens, raw_defines = tokenize(source)
    defines = []
    for name, value in raw_defines:
        try:
            defines.append((name, parse_number(value)))
        except ValueError:
            raise CParseError(f"#define {name} must be numeric in this "
                              "subset")
    return ReferenceParser(tokens).parse_program(tuple(defines))


# -- reference range solver ----------------------------------------------------
#
# Every round recomputes every edge state, join and transfer, copying
# each state it passes on.

class ReferenceValueRanges(ValueRanges):
    def _transfer(self, blk: BasicBlock, state: State) -> State:
        out = dict(state)
        for stmt in blk.stmts:
            if isinstance(stmt, VarDecl) and not stmt.pointer \
                    and not stmt.dims \
                    and stmt.ctype in ("int", "long", "size_t"):
                if stmt.name in self.env.constants:
                    out[stmt.name] = Interval.point(
                        self.env.constants[stmt.name])
                elif stmt.init is not None:
                    out[stmt.name] = self._expr_interval(stmt.init, out)
                else:
                    out[stmt.name] = TOP
        return out

    def _edge_state(self, pred: BasicBlock, dst: BasicBlock,
                    out_state: State) -> Optional[State]:
        state = dict(out_state)
        if pred.kind == "header" and pred.loop is not None:
            loop = pred.loop
            var = loop.var
            bound = self._expr_interval(loop.bound, out_state)
            start = self._expr_interval(loop.start, out_state)
            current = state.get(var, TOP)
            into_body = (loop.var not in pred.loop_vars
                         and var in dst.loop_vars)
            if into_body:
                guard = Interval(
                    start.lo,
                    None if bound.hi is None else bound.hi - 1)
                narrowed = current.meet(guard)
                if narrowed.is_empty:
                    return None
                state[var] = narrowed
            else:
                narrowed = current.meet(Interval(bound.lo, None))
                if narrowed.is_empty:
                    return None
                state[var] = narrowed
        if dst.kind == "header" and dst.loop is not None:
            loop = dst.loop
            if self._is_back_edge(pred, dst):
                state[loop.var] = state.get(loop.var, TOP).shift(
                    loop.step)
            else:
                state[loop.var] = self._expr_interval(loop.start,
                                                      out_state)
        return state

    @staticmethod
    def _join_states(states: Sequence[State]) -> State:
        if not states:
            return {}
        keys = set(states[0])
        for s in states[1:]:
            keys &= set(s)
        out: State = {}
        for k in keys:
            r = states[0][k]
            for s in states[1:]:
                r = r.join(s[k])
            out[k] = r
        return out

    def _merged(self, blk: BasicBlock,
                block_out: Dict[int, State]) -> State:
        incoming: List[State] = []
        for p in blk.preds:
            if p not in block_out:
                continue
            es = self._edge_state(self.cfg.block(p), blk, block_out[p])
            if es is not None:
                incoming.append(es)
        return self._join_states(incoming)

    def _solve(self) -> None:
        cfg = self.cfg
        order = cfg.rpo()
        block_out: Dict[int, State] = {}
        self.block_in = {cfg.entry: {}}
        block_out[cfg.entry] = self._transfer(cfg.block(cfg.entry), {})
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            for bid in order:
                if bid == cfg.entry:
                    continue
                blk = cfg.block(bid)
                merged = self._merged(blk, block_out)
                if blk.kind == "header" and rounds > _WIDEN_AFTER \
                        and bid in self.block_in:
                    merged = self._widen_state(self.block_in[bid],
                                               merged)
                new_out = self._transfer(blk, merged)
                if merged != self.block_in.get(bid) \
                        or new_out != block_out.get(bid):
                    self.block_in[bid] = merged
                    block_out[bid] = new_out
                    changed = True
        for _ in range(_NARROW_ROUNDS):
            for bid in order:
                if bid == cfg.entry:
                    continue
                blk = cfg.block(bid)
                merged = self._merged(blk, block_out)
                self.block_in[bid] = merged
                block_out[bid] = self._transfer(blk, merged)


# -- reference CFG order ---------------------------------------------------------

def reference_rpo(cfg: Cfg) -> List[int]:
    """Reverse post-order by a recursive depth-first walk, the form
    :meth:`Cfg.rpo` had before it moved to an explicit stack."""
    seen = set()
    order: List[int] = []

    def visit(bid: int) -> None:
        if bid in seen:
            return
        seen.add(bid)
        for succ in cfg.blocks[bid].succs:
            visit(succ)
        order.append(bid)

    visit(cfg.entry)
    return list(reversed(order))


# -- reference dataflow solvers --------------------------------------------------

def reference_solve_forward(cfg: Cfg, transfer: Transfer,
                            init: Facts = NO_FACTS):
    in_facts = {b.bid: NO_FACTS for b in cfg.blocks}
    out_facts = {b.bid: NO_FACTS for b in cfg.blocks}
    in_facts[cfg.entry] = init
    out_facts[cfg.entry] = transfer(cfg.entry, init)
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid == cfg.entry:
                continue
            merged = frozenset().union(
                *(out_facts[p] for p in cfg.block(bid).preds)) \
                if cfg.block(bid).preds else NO_FACTS
            new_out = transfer(bid, merged)
            if merged != in_facts[bid] or new_out != out_facts[bid]:
                in_facts[bid] = merged
                out_facts[bid] = new_out
                changed = True
    return in_facts, out_facts


def reference_solve_backward(cfg: Cfg, transfer: Transfer,
                             init: Facts = NO_FACTS):
    in_facts = {b.bid: NO_FACTS for b in cfg.blocks}
    out_facts = {b.bid: NO_FACTS for b in cfg.blocks}
    order = list(reversed(cfg.rpo()))
    changed = True
    while changed:
        changed = False
        for bid in order:
            merged = frozenset().union(
                *(in_facts[s] for s in cfg.block(bid).succs)) \
                if cfg.block(bid).succs else init
            new_in = transfer(bid, merged)
            if merged != out_facts[bid] or new_in != in_facts[bid]:
                out_facts[bid] = merged
                in_facts[bid] = new_in
                changed = True
    return in_facts, out_facts


class ReferenceLiveness(Liveness):
    """Liveness that unions each statement's references in turn."""

    def __init__(self, facts):
        self.cfg = facts.cfg
        self._events = facts.events
        self.block_in, self.block_out = reference_solve_backward(
            self.cfg, self._transfer)

    def _transfer(self, bid: int, facts: Facts) -> Facts:
        for ev_list in self._events[bid]:
            facts = facts | self._refs(ev_list)
        return facts


# -- program generators -------------------------------------------------------

def saxpy_nest_source(rows, n, alpha):
    """An OpenMP row loop of unit-stride saxpy calls."""
    return f"""
#define ROWS {rows}
#define N {n}
float x[ROWS][N];
float y[ROWS][N];
int i;
#pragma omp parallel for
for (i = 0; i < ROWS; i++)
  cblas_saxpy(N, {alpha!r}, &x[i][0], 1, &y[i][0], 1);
"""


def cdotc_nest_source(a, b, t):
    """A doubly nested OpenMP loop of complex dot products."""
    return f"""
#define A {a}
#define B {b}
#define T {t}
complex w[A][B][T];
complex s[A][B][T];
complex out[A][B];
int i;
int j;
#pragma omp parallel for
for (i = 0; i < A; i++)
  for (j = 0; j < B; j++)
    cblas_cdotc_sub(T, &w[i][j][0], 1, &s[i][j][0], 1, &out[i][j]);
"""


def corner_turn_source(rows, cols):
    """A rank-0 guru FFTW plan that transposes a rows x cols matrix."""
    return f"""
#define R {rows}
#define C {cols}
complex *src_buf;
complex *dst_buf;
fftwf_plan p;
fftw_iodim hm[2] = {{{{R, C, 1}}, {{C, 1, R}}}};
src_buf = malloc(sizeof(complex) * R * C);
dst_buf = malloc(sizeof(complex) * R * C);
p = fftwf_plan_guru_dft(0, NULL, 2, hm, src_buf, dst_buf,
                        FFTW_FORWARD, FFTW_WISDOM_ONLY);
fftwf_execute(p);
"""


def chain_source(chunks, alpha, match, with_mid):
    """A producer loop feeding a transpose loop, optionally with an
    independent loop in between (hoist) and optionally broken by a
    broadcast read (illegal)."""
    mid = ("for (i = 0; i < CHUNKS; ++i)\n"
           f"  cblas_saxpy(CHUNK, {alpha + 1.0:.3f}, &u[i][0], 1, "
           "&v[i][0], 1);\n") if with_mid else ""
    idx = "i" if match else "0"
    return f"""
#define R 16
#define C 16
#define CHUNK 256
#define CHUNKS {chunks}
float gain[CHUNKS][CHUNK];
float acc[CHUNKS][CHUNK];
float img[CHUNKS][CHUNK];
float u[CHUNKS][CHUNK];
float v[CHUNKS][CHUNK];
int i;
for (i = 0; i < CHUNKS; ++i)
  cblas_saxpy(CHUNK, {alpha:.3f}, &gain[i][0], 1, &acc[i][0], 1);
{mid}for (i = 0; i < CHUNKS; ++i)
  mkl_somatcopy(R, C, 1.0, &acc[{idx}][0], &img[i][0]);
"""


# -- reference syntactic chainer ----------------------------------------------
#
# Chaining by adjacency plus a produced/consumed buffer, exactly as the
# compiler did it before fusion needed a proof. Every chain it forms
# must come out of the verified rewrite engine as a non-looped
# FusedStep with the same members.

@dataclass(frozen=True)
class ChainStep:
    """Several accelerated calls fused into one PASS."""

    steps: Tuple[AccelCallStep, ...]

    @property
    def in_bufs(self) -> Tuple[str, ...]:
        return self.steps[0].in_bufs

    @property
    def out_bufs(self) -> Tuple[str, ...]:
        return self.steps[-1].out_bufs

    @property
    def calls(self) -> int:
        return sum(s.calls for s in self.steps)


def _chainable(a: AccelCallStep, b: AccelCallStep) -> bool:
    """b can chain onto a: same (non-)loop shape and a feeds b."""
    if a.trips or b.trips:
        return False            # looped steps keep their own pass
    produced = set(a.out_bufs)
    return bool(produced & set(b.in_bufs))


def chain_pass(schedule: Schedule) -> List[object]:
    """Fuse producer->consumer accelerated neighbours into ChainSteps."""
    out: List[object] = []
    for step in schedule.steps:
        prev = out[-1] if out else None
        if (isinstance(step, AccelCallStep)
                and isinstance(prev, (AccelCallStep, ChainStep))):
            tail = prev.steps[-1] if isinstance(prev, ChainStep) else prev
            if _chainable(tail, step):
                steps = (prev.steps if isinstance(prev, ChainStep)
                         else (prev,)) + (step,)
                out[-1] = ChainStep(steps=steps)
                continue
        out.append(step)
    return out


# -- reference argument resolution --------------------------------------------

def reference_eval_args(env, name, raw_args, bindings, array):
    """A library call's arguments resolved from the AST for one loop
    iteration: a constant or an affine scalar evaluated, a pointer's
    buffer and ``Affine`` address derived again, a plan looked up;
    ``array`` maps a buffer name to its flat array."""
    sig = LIBRARY[name].signature
    if len(sig) != len(raw_args):
        raise InterpError(
            f"{name} expects {len(sig)} arguments, got {len(raw_args)}")
    out = []
    for kind, expr in zip(sig, raw_args):
        if kind == "s":
            try:
                out.append(env.eval_const(expr))
            except SemanticError:
                out.append(env.affine_expr(expr).evaluate(bindings))
        elif kind in POINTER_KINDS:
            buf, offset = env.buffer_address(expr)
            byte_off = offset.evaluate(bindings)
            out.append(ArrayRef(array(buf),
                                byte_off // env.buffers[buf].elem_size))
        elif kind == "l":
            if not isinstance(expr, Ident) or expr.name not in env.plans:
                raise InterpError("fftwf_execute needs a plan")
            plan = env.plans[expr.name]
            out.append(plan)
            src, dst = array(plan.src), array(plan.dst)
            out.append(ArrayRef(
                src, plan.src_offset // env.buffers[plan.src].elem_size))
            out.append(ArrayRef(
                dst, plan.dst_offset // env.buffers[plan.dst].elem_size))
    return out


class ReferenceInterpreter(OriginalInterpreter):
    """The original-program interpreter resolving every call's
    arguments on every execution, and inlining a user call's body again
    each time it runs."""

    def _exec_user_call(self, call):
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

    def _eval_call(self, call):
        interp._call_function(self.env, call.func, reference_eval_args(
            self.env, call.func, call.args, self.bindings, self._array))


# -- reference operand tables -------------------------------------------------
#
# The compiler's hand-kept description of which bytes each accelerator
# reads and writes, as it was before every core declared its operands
# once (``AcceleratorCore.operands``): the read/write field tables, the
# in-place rule, the per-accelerator extent chain, the reduction rule
# and each recognizer builder's buffer lists. The declaration must
# reproduce all of them on every accelerated step.

#: Address fields each accelerator writes / reads.
WRITE_FIELDS = {
    "AXPY": ("y_pa",),
    "DOT": ("out_pa",),
    "GEMV": ("y_pa",),
    "SPMV": ("y_pa",),
    "RESMP": ("out_pa",),
    "FFT": ("dst_pa",),
    "RESHP": ("dst_pa",),
}
READ_FIELDS = {
    "AXPY": ("x_pa", "y_pa"),
    "DOT": ("x_pa", "y_pa"),
    "GEMV": ("a_pa", "x_pa", "y_pa"),
    "SPMV": ("indptr_pa", "indices_pa", "data_pa", "x_pa"),
    "RESMP": ("knots_pa", "in_pa", "sites_pa"),
    "FFT": ("src_pa",),
    "RESHP": ("src_pa",),
}

#: Accelerators whose semantics permit *exactly* coincident source and
#: destination (an in-place transform).
INPLACE_EXACT_OK = {"RESHP", "FFT"}

#: Accelerators whose write field accumulates associatively, and the
#: DOT family, whose ``*_sub`` idiom deposits every iteration's partial
#: into one shared scalar.
REDUCTION_ACCELS = {"AXPY"}
DOT_SUB_ACCELS = {"DOT"}

#: The fields each recognizer builder listed as the call's input and
#: output buffers, in the order it listed them.
BUFFER_FIELDS = {
    "AXPY": (("x_pa", "y_pa"), ("y_pa",)),
    "DOT": (("x_pa", "y_pa"), ("out_pa",)),
    "GEMV": (("a_pa", "x_pa", "y_pa"), ("y_pa",)),
    "SPMV": (("data_pa", "indptr_pa", "indices_pa", "x_pa"), ("y_pa",)),
    "RESMP": (("knots_pa", "in_pa", "sites_pa"), ("out_pa",)),
    "FFT": (("src_pa",), ("dst_pa",)),
    "RESHP": (("src_pa",), ("dst_pa",)),
}


def _elem(env: CompileEnv, buf: str) -> int:
    return env.buffers[buf].elem_size


def _dot_span(n: int, inc: int, elem: int) -> int:
    if n <= 0:
        return 0
    return ((n - 1) * abs(int(inc)) + 1) * elem


def field_extents(accel: str, scalars: Dict[str, object],
                  buffers: Dict[str, str],
                  env: CompileEnv) -> Dict[str, int]:
    """Bytes each address field touches in a single invocation.

    ``buffers`` maps field name to buffer name (element sizes come
    from the environment).
    """
    e = {f: _elem(env, b) for f, b in buffers.items()}
    if accel == "AXPY":
        n = int(scalars["n"])
        return {"x_pa": n * e["x_pa"], "y_pa": n * e["y_pa"]}
    if accel == "DOT":
        n = int(scalars["n"])
        return {"x_pa": _dot_span(n, scalars["incx"], e["x_pa"]),
                "y_pa": _dot_span(n, scalars["incy"], e["y_pa"]),
                "out_pa": e["out_pa"]}
    if accel == "GEMV":
        m, n = int(scalars["m"]), int(scalars["n"])
        return {"a_pa": m * n * e["a_pa"], "x_pa": n * e["x_pa"],
                "y_pa": m * e["y_pa"]}
    if accel == "SPMV":
        rows, cols = int(scalars["rows"]), int(scalars["cols"])
        nnz = int(scalars["nnz"])
        return {"indptr_pa": (rows + 1) * e["indptr_pa"],
                "indices_pa": nnz * e["indices_pa"],
                "data_pa": nnz * e["data_pa"],
                "x_pa": cols * e["x_pa"], "y_pa": rows * e["y_pa"]}
    if accel == "RESMP":
        blocks = int(scalars["blocks"])
        n_in, n_out = int(scalars["n_in"]), int(scalars["n_out"])
        return {"knots_pa": n_in * e["knots_pa"],
                "in_pa": blocks * n_in * e["in_pa"],
                "sites_pa": blocks * n_out * e["sites_pa"],
                "out_pa": blocks * n_out * e["out_pa"]}
    if accel == "FFT":
        count = int(scalars["n"]) * int(scalars["batch"])
        return {"src_pa": count * e["src_pa"],
                "dst_pa": count * e["dst_pa"]}
    if accel == "RESHP":
        span = (int(scalars["rows"]) * int(scalars["cols"])
                * int(scalars["elem_bytes"]))
        return {"src_pa": span, "dst_pa": span}
    raise ValueError(f"unknown accelerator {accel!r}")


def reference_step_accesses(step, env: CompileEnv) -> List[FieldAccess]:
    """The address fields of an AccelCallStep as FieldAccess records."""
    buffers = {f: b for f, (b, _) in step.proto.addrs.items()}
    extents = field_extents(step.accel, step.proto.scalars, buffers,
                            env)
    writes = set(WRITE_FIELDS[step.accel])
    reads = set(READ_FIELDS[step.accel])
    out = []
    for fld, (buf, offset) in step.proto.addrs.items():
        out.append(FieldAccess(
            field=fld, buffer=buf, offset=offset,
            extent=int(extents.get(fld, 0)),
            writes=fld in writes, reads=fld in reads))
    return out


def reference_inplace_ok(accel: str, verdict: DepVerdict) -> bool:
    """Does a same-iteration verdict allow the offload: disjoint, or
    exactly coincident under an in-place transform?"""
    return verdict.relation == "disjoint" or (
        verdict.relation == "exact" and accel in INPLACE_EXACT_OK)


def reference_is_recognized_reduction(step: AccelCallStep) -> bool:
    """Is a shared-interval update of this step's write field a
    reduction the LOOP descriptor can serialise faithfully?"""
    if step.accel in REDUCTION_ACCELS:
        return True
    if step.accel in DOT_SUB_ACCELS:
        return True
    if step.accel == "GEMV":
        # y = alpha*A*x + beta*y accumulates only when beta == 1
        beta = step.proto.scalars.get("beta")
        return isinstance(beta, (int, float)) and float(beta) == 1.0
    return False


def reference_buffer_lists(step: AccelCallStep
                           ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(in_bufs, out_bufs)`` as the step's recognizer builder listed
    them."""
    reads, writes = BUFFER_FIELDS[step.accel]
    return (tuple(step.proto.addrs[f][0] for f in reads),
            tuple(step.proto.addrs[f][0] for f in writes))


# -- reference per-step proofs ------------------------------------------------
#
# The rule engine's alias, bounds and race checks, the certifier and
# the split primitive as they were when each built the step's accesses
# and ranges and asked every dependence question itself. The library
# answers them once per step (``prove_step``); every finding,
# certificate and split verdict must come out the same.

def same_iteration(a: FieldAccess, b: FieldAccess,
                   loop_ranges: Dict[str, Interval],
                   invariant: Optional[Dict[str, Interval]] = None
                   ) -> DepVerdict:
    """Full verdict for two fields within one invocation."""
    ranges = {**(invariant or {}), **loop_ranges}
    return same_iteration_verdict(a.offset, a.extent,
                                  b.offset, b.extent, ranges)


def cross_iteration(w: FieldAccess, f: FieldAccess,
                    loop_ranges: Dict[str, Interval],
                    invariant: Optional[Dict[str, Interval]] = None
                    ) -> DepVerdict:
    """Full verdict for ``w`` vs ``f`` across distinct iterations."""
    return cross_iteration_verdict(w.offset, w.extent,
                                   f.offset, f.extent,
                                   loop_ranges, invariant or {})


def reference_check_step_aliasing(step: AccelCallStep, step_index: int,
                                  schedule: Schedule,
                                  report: DiagnosticReport,
                                  vranges: Optional[ValueRanges] = None) -> None:
    env = schedule.env
    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    writes = [a for a in accesses if a.writes]
    seen: Set[Tuple] = set()

    def emit(code: str, severity: Severity, message: str,
             fields: Tuple[str, ...], buffers: Tuple[str, ...],
             prover: str = "") -> None:
        key = (code, step_index, tuple(sorted(fields)))
        if key in seen:
            return
        seen.add(key)
        report.add(Diagnostic(code=code, severity=severity,
                              message=message, loc=step.loc,
                              buffers=buffers, step_index=step_index,
                              prover=prover))

    def note_fallback(verdict: DepVerdict, w, other) -> None:
        if verdict.fallback:
            emit("MEA017", Severity.INFO,
                 fallback_note(verdict, w, other),
                 (w.field, other.field), (w.buffer,),
                 prover=verdict.prover)

    for w in writes:
        for other in accesses:
            if other.field == w.field or other.buffer != w.buffer:
                continue
            verdict = same_iteration(w, other, loop_ranges, invariant)
            note_fallback(verdict, w, other)
            rel = verdict.relation
            if rel == "exact" and step.accel in INPLACE_EXACT_OK:
                continue
            if rel in ("exact", "overlap", "unknown"):
                detail = ("aliases" if rel != "unknown"
                          else "may alias")
                emit("MEA002", Severity.ERROR,
                     f"{step.accel} output {w.field} {detail} "
                     f"{other.field} on buffer {w.buffer!r} "
                     "(in-place operation is not supported by this "
                     "accelerator)", (w.field, other.field),
                     (w.buffer,), prover=verdict.prover)

    if not step.looped or step.omp:
        # omp-collapsed steps answer to the race detector (MEA008-010)
        # instead of the serial loop-compaction rule below
        return
    for w in writes:
        checked: Set[Tuple] = set()
        for other in accesses:
            if other.buffer != w.buffer:
                continue
            pair_key = tuple(sorted({w.field, other.field}))
            if pair_key in checked:
                continue
            checked.add(pair_key)
            verdict = cross_iteration(w, other, loop_ranges, invariant)
            note_fallback(verdict, w, other)
            if verdict.relation == "disjoint":
                continue
            detail = ("carries a dependence across iterations"
                      if verdict.relation == "overlap"
                      else "cannot be proven iteration-independent")
            fields = (w.field,) if other.field == w.field \
                else (w.field, other.field)
            emit("MEA005", Severity.ERROR,
                 f"{step.accel} write to {w.field} on buffer "
                 f"{w.buffer!r} {detail}; OpenMP collapse is unsafe",
                 fields, (w.buffer,), prover=verdict.prover)



def reference_check_step_bounds(step: AccelCallStep, step_index: int,
                                schedule: Schedule, report: DiagnosticReport,
                                vranges: Optional[ValueRanges] = None) -> None:
    """Footprint-vs-allocation check for every address field.

    The footprint of a field is ``[min offset, max offset + extent)``
    over the derived variable ranges. An affine attains its interval
    bounds at corners of the iteration box, so when every variable in
    the offset is an exact loop variable a violation is *provable*
    (MEA015: reject — some iteration really touches bytes outside the
    allocation). When the interval involves over-approximated or
    unbounded symbolic ranges the step is only *possibly* out of
    bounds (MEA016: demote with a warning).
    """
    env = schedule.env
    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    ranges = {**invariant, **loop_ranges}
    seen: Set[str] = set()
    for acc in accesses:
        if acc.field in seen:
            continue
        seen.add(acc.field)
        info = env.buffers.get(acc.buffer)
        if info is None or info.count <= 0 or acc.extent <= 0:
            continue                # allocation size unknown
        span = affine_interval(acc.offset, ranges)
        total = info.total_bytes
        lo = span.lo
        hi = None if span.hi is None else span.hi + acc.extent - 1
        if lo is not None and hi is not None \
                and lo >= 0 and hi < total:
            continue                # provably inside
        exact = all(not coef or var in loop_ranges
                    for var, coef in acc.offset.coefs.items())
        if exact and lo is not None and hi is not None:
            report.add(Diagnostic(
                code="MEA015", severity=Severity.ERROR,
                message=f"{step.accel} field {acc.field} touches "
                        f"bytes [{lo}, {hi}] of buffer "
                        f"{acc.buffer!r}, outside its allocated "
                        f"[0, {total}) byte interval",
                loc=step.loc, buffers=(acc.buffer,),
                step_index=step_index, prover="interval-bounds"))
            continue
        unbounded = sorted(
            var for var, coef in acc.offset.coefs.items()
            if coef and not ranges.get(var, TOP).is_bounded)
        why = (f"the range of {', '.join(unbounded)!s} is unbounded"
               if unbounded else "the derived ranges are inexact")
        report.add(Diagnostic(
            code="MEA016", severity=Severity.WARNING,
            message=f"{step.accel} field {acc.field} cannot be "
                    f"proven inside buffer {acc.buffer!r}'s "
                    f"[0, {total}) byte interval ({why}); demoting "
                    "the call to the host",
            loc=step.loc, buffers=(acc.buffer,),
            step_index=step_index, prover="interval-bounds"))



def reference_classify_races(step: AccelCallStep, step_index: int,
                             env: CompileEnv,
                             vranges: Optional[ValueRanges] = None
                             ) -> List[Diagnostic]:
    """Race findings for one omp-collapsed accelerated step.

    Returns an empty list for iteration-disjoint steps, a single INFO
    MEA010 for a recognized reduction, and ERROR findings (MEA008 /
    MEA009 / MEA010) for everything racy. INFO MEA017 findings ride
    along whenever a verdict needed the enumeration fallback.
    """
    findings: List[Diagnostic] = []
    if not step.looped:
        return findings
    space = 1
    for t in step.trips:
        space *= t
    if space <= 1:
        return findings

    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    writes = [a for a in accesses if a.writes]

    def emit(code: str, severity: Severity, message: str,
             buffers: Tuple[str, ...], prover: str = "") -> None:
        findings.append(Diagnostic(
            code=code, severity=severity, message=message,
            loc=step.loc, buffers=buffers, step_index=step_index,
            chain=step.chain, prover=prover))

    noted_fallbacks: Set[Tuple[str, str]] = set()

    def note_fallback(verdict: DepVerdict, w: FieldAccess,
                      other: FieldAccess) -> None:
        if not verdict.fallback:
            return
        key = tuple(sorted({w.field, other.field}))
        pair_key = (w.buffer, "/".join(key))
        if pair_key in noted_fallbacks:
            return
        noted_fallbacks.add(pair_key)
        emit("MEA017", Severity.INFO, fallback_note(verdict, w, other),
             (w.buffer,), prover=verdict.prover)

    seen_pairs: set = set()
    for w in writes:
        # -- write vs write (including the field against itself) ----------
        for other in writes:
            if other.buffer != w.buffer:
                continue
            pair = (w.buffer,) + tuple(sorted({w.field, other.field}))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            verdict = cross_iteration(w, other, loop_ranges, invariant)
            note_fallback(verdict, w, other)
            if verdict.relation == "disjoint":
                continue
            shared = (w.field == other.field
                      and shared_interval(w, step.loop_vars))
            if shared and reference_is_recognized_reduction(step):
                emit("MEA010", Severity.INFO,
                     f"{step.accel} accumulates into the shared "
                     f"interval of buffer {w.buffer!r}: recognized "
                     "reduction; the LOOP descriptor serialises "
                     "iterations, so the offload is safe",
                     (w.buffer,), prover=verdict.prover)
                continue
            if shared:
                emit("MEA010", Severity.ERROR,
                     f"{step.accel} overwrites the shared interval of "
                     f"buffer {w.buffer!r} from every iteration and "
                     "the update is not a recognized reduction; "
                     "parallel iterations race on the final value",
                     (w.buffer,), prover=verdict.prover)
                continue
            detail = ("overlap" if verdict.relation == "overlap"
                      else "cannot be proven disjoint")
            emit("MEA008", Severity.ERROR,
                 f"{step.accel} writes to {w.field} on buffer "
                 f"{w.buffer!r} {detail} across parallel iterations "
                 "(write-write race)", (w.buffer,),
                 prover=verdict.prover)
        # -- write vs pure reads of other fields --------------------------
        for other in accesses:
            if other.writes or other.buffer != w.buffer \
                    or other.field == w.field:
                continue
            verdict = cross_iteration(w, other, loop_ranges, invariant)
            note_fallback(verdict, w, other)
            if verdict.relation == "disjoint":
                continue
            detail = ("overlaps" if verdict.relation == "overlap"
                      else "cannot be proven disjoint from")
            emit("MEA009", Severity.ERROR,
                 f"{step.accel} write to {w.field} {detail} the "
                 f"{other.field} read of another iteration on buffer "
                 f"{w.buffer!r} (read-write race)", (w.buffer,),
                 prover=verdict.prover)
    return findings


def reference_certify_step(step: AccelCallStep, step_index: int,
                           env: CompileEnv,
                           vranges: Optional[ValueRanges] = None
                           ) -> Optional[SafetyCertificate]:
    """Prove the offload-safety facts for one accelerated step.

    Returns ``None`` when a required fact cannot be established — the
    caller must not offload such a step (the rule engine will have
    demoted or rejected it already).
    """
    accesses = step_accesses(step, env)
    loop_ranges, invariant = step_ranges(step, vranges)
    writes = [a for a in accesses if a.writes]
    facts: List[CertFact] = []

    # within one invocation: the written field vs every other field
    for w in writes:
        for other in accesses:
            if other.field == w.field or other.buffer != w.buffer:
                continue
            verdict = same_iteration(w, other, loop_ranges, invariant)
            pair = f"{w.field} vs {other.field} on {w.buffer!r}"
            if verdict.relation == "disjoint":
                facts.append(CertFact("in-place-disjoint",
                                      verdict.prover, pair))
            elif verdict.relation == "exact" \
                    and step.accel in INPLACE_EXACT_OK:
                facts.append(CertFact("in-place-exact",
                                      verdict.prover, pair))
            else:
                return None

    # across iterations of the collapsed nest
    space = 1
    for t in step.trips:
        space *= t
    if step.looped and space > 1:
        kind = ("iteration-disjoint" if step.omp
                else "carried-dependence-free")
        checked = set()
        for w in writes:
            for other in accesses:
                if other.buffer != w.buffer:
                    continue
                pair_key = (w.buffer,) + tuple(
                    sorted({w.field, other.field}))
                if pair_key in checked:
                    continue
                checked.add(pair_key)
                verdict = cross_iteration(w, other, loop_ranges,
                                          invariant)
                pair = (w.field if other.field == w.field
                        else f"{w.field} vs {other.field}")
                if verdict.relation == "disjoint":
                    facts.append(CertFact(
                        kind, verdict.prover,
                        f"{pair} on {w.buffer!r}"))
                    continue
                if step.omp and w.field == other.field \
                        and shared_interval(w, step.loop_vars) \
                        and reference_is_recognized_reduction(step):
                    facts.append(CertFact(
                        "recognized-reduction", "loop-serialisation",
                        f"{pair} on {w.buffer!r}"))
                    continue
                return None

    # the whole footprint stays inside each buffer's allocation
    ranges = {**invariant, **loop_ranges}
    for acc in accesses:
        info = env.buffers.get(acc.buffer)
        if info is None or info.count <= 0 or acc.extent <= 0:
            continue                # size unknown: no claim made
        span = affine_interval(acc.offset, ranges)
        footprint = Interval(span.lo,
                             None if span.hi is None
                             else span.hi + acc.extent - 1)
        if footprint.is_bounded and footprint.lo is not None \
                and footprint.hi is not None \
                and footprint.lo >= 0 \
                and footprint.hi < info.total_bytes:
            facts.append(CertFact(
                "bounds-respected", "interval-bounds",
                f"{acc.field} within {acc.buffer!r} "
                f"[0, {info.total_bytes})"))

    return SafetyCertificate(step_index=step_index, accel=step.accel,
                             loc=step.loc, facts=tuple(facts))


def reference_split_step(step: AccelCallStep, parts: int, env: CompileEnv,
                         vranges: Optional[ValueRanges] = None
                         ) -> Tuple[LegalityVerdict, Optional[AccelCallStep]]:
    """Tile a non-looped AXPY into ``parts`` LOOP iterations.

    The partition must be exact; the tiled step then re-proves its
    carried-dependence freedom like any looped step, which makes the
    rewrite's certificate self-contained.
    """
    if step.accel != "AXPY":
        return LegalityVerdict(
            ok=False,
            reason=f"split is defined for elementwise AXPY, not "
                   f"{step.accel}"), None
    if step.looped:
        return LegalityVerdict(
            ok=False, reason="step is already loop-compacted"), None
    n = cast(int, step.proto.scalars["n"])
    if parts < 2 or n % parts != 0:
        return LegalityVerdict(
            ok=False, prover="constant-distance",
            reason=f"n={n} does not partition exactly into "
                   f"{parts} tiles"), None
    chunk = n // parts
    var = "__tile"
    while any(var in off.coefs
              for _, off in step.proto.addrs.values()):
        var += "_"
    addrs: Dict[str, Tuple[str, Affine]] = {}
    for fld, (buf, off) in step.proto.addrs.items():
        stride = chunk * env.buffers[buf].elem_size
        addrs[fld] = (buf, off.add(Affine(coefs={var: stride})))
    proto = dataclasses.replace(
        step.proto, scalars={**step.proto.scalars, "n": chunk},
        addrs=addrs)
    tiled = dataclasses.replace(step, proto=proto, trips=(parts,),
                                loop_vars=(var,))
    facts: List[CertFact] = [CertFact(
        "split-exact-partition", "constant-distance",
        f"n={n} into {parts} tiles of {chunk}")]

    acc = step_accesses(tiled, env)
    loop_ranges = {var: Interval.bounded(0, parts - 1)}
    _, invariant = step_ranges(tiled, vranges)
    for w in (a for a in acc if a.writes):
        for other in acc:
            if other.buffer != w.buffer:
                continue
            verdict = cross_iteration_verdict(
                w.offset, w.extent, other.offset, other.extent,
                loop_ranges, invariant)
            if verdict.relation != "disjoint":
                return LegalityVerdict(
                    ok=False, prover=verdict.prover,
                    buffers=(w.buffer,),
                    reason=f"tiled {w.field} carries a dependence "
                           f"across tiles ({verdict.relation})"), None
            facts.append(CertFact(
                "carried-dependence-free", verdict.prover,
                f"{w.field} vs {other.field} on {w.buffer!r} "
                "across tiles"))
    return LegalityVerdict(ok=True, prover=facts[-1].prover,
                           facts=tuple(facts)), tiled

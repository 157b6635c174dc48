"""Integer value-range (interval) analysis over the CFG.

The dependence tester and the static bounds checker both need to know,
for every scalar that can appear in an affine address expression, the
interval of values it can take. This module computes those intervals
with a classic abstract-interpretation pass over the existing CFG:

* the lattice is integer intervals with open ends (``None`` = ±inf);
* loop headers apply **widening** after a fixed number of ascending
  rounds so non-constant bounds still terminate, followed by a
  **narrowing** (descending) phase that recovers precision;
* edges out of a loop header **narrow on the branch condition**: the
  body edge meets the loop variable with ``[start, bound-1]`` (the
  ``var < bound`` guard holds), the exit edge with ``[bound, +inf)``
  (the guard failed).

For the canonical counted loops of this C subset the result is exact:
inside the body the loop variable is ``[start, bound-1]``, after the
loop it is ``[bound, bound]``. Variables the pass cannot bound (a
runtime ``int`` with no constant initialiser) stay ``TOP`` — callers
must treat their address expressions as possibly out of bounds
(MEA016) and the dependence tester refuses to enumerate over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.affine import Affine, AffineError
from repro.compiler.analysis.cfg import BasicBlock, Cfg
from repro.compiler.cast import Expr, For, VarDecl
from repro.compiler.semantics import CompileEnv, SemanticError

#: Ascending rounds before widening kicks in at loop headers.
_WIDEN_AFTER = 2
#: Descending (narrowing) rounds after the widened fixpoint.
_NARROW_ROUNDS = 2


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds are infinite.

    ``lo > hi`` (both finite) encodes the empty interval (an
    infeasible edge).
    """

    lo: Optional[int] = None
    hi: Optional[int] = None

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and self.lo > self.hi)

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None \
            and not self.is_empty

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def width(self) -> Optional[int]:
        """Number of integers covered (None if unbounded)."""
        if self.is_empty:
            return 0
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo + 1

    # -- constructors --------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(int(value), int(value))

    @staticmethod
    def bounded(lo: int, hi: int) -> "Interval":
        return Interval(int(lo), int(hi))

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = (None if self.lo is None or other.lo is None
              else self.lo + other.lo)
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return Interval(lo, hi)

    def shift(self, delta: int) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(None if self.lo is None else self.lo + delta,
                        None if self.hi is None else self.hi + delta)

    def neg(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def scale(self, factor: int) -> "Interval":
        """Multiply by an integer constant."""
        if self.is_empty:
            return EMPTY
        if factor == 0:
            return Interval.point(0)
        if factor < 0:
            return self.neg().scale(-factor)
        return Interval(None if self.lo is None else self.lo * factor,
                        None if self.hi is None else self.hi * factor)

    # -- lattice -------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = (None if self.lo is None or other.lo is None
              else min(self.lo, other.lo))
        hi = (None if self.hi is None or other.hi is None
              else max(self.hi, other.hi))
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = max(self.lo, other.lo)
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = min(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: escaping bounds jump to ±inf."""
        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        lo = self.lo if (self.lo is not None and newer.lo is not None
                         and newer.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and newer.hi is not None
                         and newer.hi <= self.hi) else None
        return Interval(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)
EMPTY = Interval(0, -1)

#: An abstract store: variables absent from the mapping are TOP. A
#: state is never changed once built, so the solver passes one object
#: along every step that leaves it as it is.
State = Dict[str, Interval]


def affine_interval(aff: Affine,
                    ranges: Mapping[str, Interval]) -> Interval:
    """Interval of an affine expression under per-variable ranges."""
    total = Interval.point(aff.const)
    for var, coef in aff.coefs.items():
        if not coef:
            continue
        r = ranges.get(var, TOP)
        total = total.add(r.scale(coef))
        if total.is_empty:
            return EMPTY
    return total


class ValueRanges:
    """Per-block variable ranges derived by forward interval dataflow.

    ``block_in[bid]`` holds the abstract store at block entry after the
    widening + narrowing fixpoint. ``global_range(var)`` is the join of
    the variable's range over every reachable block — the conservative
    answer for program points the caller cannot place (inlined loop
    bodies, collapsed steps).
    """

    def __init__(self, cfg: Cfg, env: CompileEnv):
        self.cfg = cfg
        self.env = env
        self.block_in: Dict[int, State] = {}
        #: id(expr) -> its affine form (None: not affine). Keyed by
        #: identity, which is safe because ``cfg`` keeps every node
        #: alive for as long as this object exists.
        self._affine: Dict[int, Optional[Affine]] = {}
        self._solve()

    # -- queries -------------------------------------------------------------

    def var_at(self, bid: int, var: str) -> Interval:
        return self.block_in.get(bid, {}).get(var, TOP)

    def global_range(self, var: str) -> Interval:
        if var in self.env.constants:
            return Interval.point(self.env.constants[var])
        out: Optional[Interval] = None
        for state in self.block_in.values():
            r = state.get(var, TOP)
            out = r if out is None else out.join(r)
            if out == TOP:
                return TOP
        return TOP if out is None else out

    def trip_interval(self, header_bid: int) -> Interval:
        """Derived trip-count interval of the loop at ``header_bid``."""
        blk = self.cfg.block(header_bid)
        if blk.kind != "header" or blk.loop is None:
            raise ValueError(f"block {header_bid} is not a loop header")
        state = self.block_in.get(header_bid, {})
        bound = self._expr_interval(blk.loop.bound, state)
        start = self._expr_interval(blk.loop.start, state)
        trips = bound.add(start.neg())
        # a canonical counted loop runs at least zero iterations
        return trips.meet(Interval(0, None))

    # -- the solver ----------------------------------------------------------

    def _expr_interval(self, expr: Expr, state: State) -> Interval:
        key = id(expr)
        if key in self._affine:
            aff = self._affine[key]
        else:
            try:
                aff = self.env.affine_expr(expr)
            except (AffineError, SemanticError):
                aff = None
            self._affine[key] = aff
        if aff is None:
            return TOP
        return affine_interval(aff, state)

    def _transfer(self, blk: BasicBlock, state: State) -> State:
        out = state
        for stmt in blk.stmts:
            if isinstance(stmt, VarDecl) and not stmt.pointer \
                    and not stmt.dims \
                    and stmt.ctype in ("int", "long", "size_t"):
                if out is state:
                    out = dict(state)
                if stmt.name in self.env.constants:
                    out[stmt.name] = Interval.point(
                        self.env.constants[stmt.name])
                elif stmt.init is not None:
                    out[stmt.name] = self._expr_interval(stmt.init, out)
                else:
                    out[stmt.name] = TOP
        return out

    def _is_back_edge(self, pred: BasicBlock, header: BasicBlock) -> bool:
        loop = header.loop
        return loop is not None and loop.var in pred.loop_vars

    def _edge_state(self, pred: BasicBlock, dst: BasicBlock,
                    out_state: State) -> Optional[State]:
        """Abstract store flowing along one CFG edge (None = infeasible).

        This is where branch-condition narrowing lives: the loop guard
        ``var < bound`` holds on the header->body edge and fails on the
        header->exit edge.
        """
        state = out_state
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
            else:
                # the guard failed: var has reached the bound
                narrowed = current.meet(Interval(bound.lo, None))
            if narrowed.is_empty:
                return None
            state = {**out_state, var: narrowed}
        if dst.kind == "header" and dst.loop is not None:
            loop = dst.loop
            if state is out_state:
                state = dict(out_state)
            if self._is_back_edge(pred, dst):
                # model the implicit `var += step` of the back edge
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
        if len(states) == 1:
            return states[0]
        keys = set(states[0])
        for s in states[1:]:
            keys &= set(s)          # a var missing anywhere is TOP
        out: State = {}
        for k in keys:
            r = states[0][k]
            for s in states[1:]:
                r = r.join(s[k])
            out[k] = r
        return out

    @staticmethod
    def _widen_state(old: State, new: State) -> State:
        out: State = {}
        for k, r in new.items():
            prev = old.get(k)
            out[k] = r if prev is None else prev.widen(r)
        return out

    def _solve(self) -> None:
        """Round-robin over the blocks in RPO to the widened fixpoint,
        then :data:`_NARROW_ROUNDS` descending rounds.

        Two steps reuse their last result while their input is
        unchanged: an edge state while the predecessor's out-state is
        the same object, and a block's join while no predecessor's
        out-state has been replaced since (replacing a block's
        out-state marks its successors stale). Both are pure functions
        of those inputs, and a state is only replaced by one that
        differs from it, so every round sees exactly the states of
        recomputing each step. The memos live only for this solve.
        """
        cfg = self.cfg
        entry = cfg.entry
        blocks = [cfg.block(bid) for bid in cfg.rpo() if bid != entry]
        block_in: Dict[int, State] = {entry: {}}
        block_out: Dict[int, State] = {
            entry: self._transfer(cfg.block(entry), {})}
        edges = {blk.bid: [_Edge(cfg.block(p)) for p in blk.preds]
                 for blk in blocks}
        #: bid -> join of its incoming edge states
        joins: Dict[int, State] = {}
        #: blocks with a predecessor out-state replaced since their join
        stale = {blk.bid for blk in blocks}

        def visit(blk: BasicBlock, widen: bool) -> bool:
            """One block step; True if it changed the block's states."""
            bid = blk.bid
            if bid in stale:
                stale.discard(bid)
                incoming: List[State] = []
                for edge in edges[bid]:
                    out = block_out.get(edge.pred.bid)
                    if out is None:
                        continue            # not visited yet
                    if edge.out is not out:
                        edge.out = out
                        edge.state = self._edge_state(edge.pred, blk, out)
                    if edge.state is not None:
                        incoming.append(edge.state)
                joins[bid] = self._join_states(incoming)
            merged = joins[bid]
            old_in = block_in.get(bid)
            if widen and old_in is not None:
                merged = self._widen_state(old_in, merged)
            new_out = self._transfer(blk, merged)
            old_out = block_out.get(bid)
            same_out = new_out is old_out or new_out == old_out
            if merged is old_in or merged == old_in:
                if same_out:
                    return False
            else:
                block_in[bid] = merged
            if not same_out:
                block_out[bid] = new_out
                stale.update(blk.succs)
            return True

        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            widening = rounds > _WIDEN_AFTER
            for blk in blocks:
                if visit(blk, widening and blk.kind == "header"):
                    changed = True
        # descending (narrowing) rounds: recompute without widening so
        # bounds pushed to infinity by widening tighten back where the
        # guard conditions justify it
        for _ in range(_NARROW_ROUNDS):
            for blk in blocks:
                visit(blk, False)
        self.block_in = block_in


class _Edge:
    """A CFG edge into a block, with the edge state the range solver
    last computed for it and the predecessor out-state it came from."""

    __slots__ = ("pred", "out", "state")

    def __init__(self, pred: BasicBlock):
        self.pred = pred
        self.out: Optional[State] = None
        self.state: Optional[State] = None


def loop_headers(cfg: Cfg) -> List[Tuple[int, For]]:
    """(bid, For) for every loop header, in RPO."""
    return [(bid, blk.loop) for bid in cfg.rpo()
            for blk in (cfg.block(bid),)
            if blk.kind == "header" and blk.loop is not None]

"""Worklist dataflow solvers over the CFG.

Two instances power the safety rules:

* **Reaching lifecycle** (forward, may): which ``alloc``/``free``/
  ``plan_kill`` events can reach a program point. Use-before-init,
  use-after-free, double-free, and execute-after-destroy are all
  queries against these facts.
* **Liveness** (backward, may): which buffers are still referenced at
  or after a program point. A heap buffer that is dead immediately
  after its ``malloc`` is never consumed (MEA007).

Facts are frozensets of hashable tokens, so the merge is plain set
union and termination follows from the finite token universe.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

from repro.compiler.analysis.cfg import Cfg
from repro.compiler.analysis.events import BufferEvent
from repro.compiler.analysis.facts import ProgramFacts

Facts = FrozenSet[Tuple[str, str]]
Transfer = Callable[[int, Facts], Facts]

EMPTY: Facts = frozenset()


def solve_forward(cfg: Cfg, transfer: Transfer,
                  init: Facts = EMPTY) -> Tuple[Dict[int, Facts],
                                                Dict[int, Facts]]:
    """Iterate ``out[b] = transfer(b, union(out[preds]))`` to fixpoint,
    visiting the blocks round-robin in reverse post-order.

    ``transfer`` must be a pure function of its arguments: a block
    whose predecessors' facts have not changed since its last visit is
    skipped.
    """
    in_facts: Dict[int, Facts] = {b.bid: EMPTY for b in cfg.blocks}
    out_facts: Dict[int, Facts] = {b.bid: EMPTY for b in cfg.blocks}
    in_facts[cfg.entry] = init
    out_facts[cfg.entry] = transfer(cfg.entry, init)
    blocks = [cfg.block(bid) for bid in cfg.rpo() if bid != cfg.entry]
    _fixpoint([(b.bid, b.preds, b.succs) for b in blocks],
              out_facts, in_facts, transfer, EMPTY)
    return in_facts, out_facts


def solve_backward(cfg: Cfg, transfer: Transfer,
                   init: Facts = EMPTY) -> Tuple[Dict[int, Facts],
                                                 Dict[int, Facts]]:
    """Iterate ``in[b] = transfer(b, union(in[succs]))`` to fixpoint,
    visiting the blocks round-robin in post-order, with the skipping
    of :func:`solve_forward`.

    Returns ``(in_facts, out_facts)`` where ``out`` is the merged
    successor state the transfer consumed.
    """
    in_facts: Dict[int, Facts] = {b.bid: EMPTY for b in cfg.blocks}
    out_facts: Dict[int, Facts] = {b.bid: EMPTY for b in cfg.blocks}
    blocks = [cfg.block(bid) for bid in reversed(cfg.rpo())]
    _fixpoint([(b.bid, b.succs, b.preds) for b in blocks],
              in_facts, out_facts, transfer, init)
    return in_facts, out_facts


def _fixpoint(order: List[Tuple[int, List[int], List[int]]],
              result: Dict[int, Facts], merged_at: Dict[int, Facts],
              transfer: Transfer, boundary: Facts) -> None:
    """Round-robin over ``(block, sources, readers)`` to the fixpoint
    of ``result[b] = transfer(b, union(result[s] for s in sources))``;
    a block without sources merges ``boundary``, and ``merged_at[b]``
    records the merged input of ``result[b]``.

    A block is visited only while some source's result has changed
    since its last visit (else it would merge and transfer the same
    facts again and change nothing), so the rounds and every fact are
    those of visiting each block every round.
    """
    dirty = {bid for bid, _, _ in order}
    changed = True
    while changed:
        changed = False
        for bid, sources, readers in order:
            if bid not in dirty:
                continue
            dirty.discard(bid)
            merged: Facts = (
                frozenset().union(*[result[s] for s in sources])
                if sources else boundary)
            new = transfer(bid, merged)
            if new != result[bid]:
                result[bid] = new
                dirty.update(readers)
            elif merged == merged_at[bid]:
                continue
            merged_at[bid] = merged
            changed = True


class LifecycleFacts:
    """Reaching alloc/free/plan-death facts at every statement.

    Fact tokens: ``("alloc", buf)``, ``("free", buf)``,
    ``("plan_dead", plan)``. ``alloc`` and ``free`` kill each other, so
    at any point the facts name the possible lifecycle states of each
    buffer along some path.
    """

    def __init__(self, facts: ProgramFacts):
        self.cfg = facts.cfg
        self._events = facts.events
        self.block_in, self.block_out = solve_forward(
            self.cfg, self._transfer)

    @staticmethod
    def apply_event(facts: Facts, ev: BufferEvent) -> Facts:
        if ev.kind == "alloc":
            return (facts - {("free", ev.name)}) | {("alloc", ev.name)}
        if ev.kind == "free":
            return (facts - {("alloc", ev.name)}) | {("free", ev.name)}
        if ev.kind == "plan_make":
            return facts - {("plan_dead", ev.name)}
        if ev.kind == "plan_kill":
            return facts | {("plan_dead", ev.name)}
        return facts

    def _transfer(self, bid: int, facts: Facts) -> Facts:
        for ev_list in self._events[bid]:
            for ev in ev_list:
                facts = self.apply_event(facts, ev)
        return facts

    def walk(self, visit: Callable[[BufferEvent, Facts], None]) -> None:
        """Replay every event once with the facts *before* it.

        Blocks are visited in reverse post-order with their fixpoint
        IN facts, so the facts seen include everything loops carry
        around; each event site is reported exactly once.
        """
        for bid in self.cfg.rpo():
            facts = self.block_in[bid]
            for ev_list in self._events[bid]:
                for ev in ev_list:
                    visit(ev, facts)
                    facts = self.apply_event(facts, ev)


class Liveness:
    """Backward may-liveness of buffer references.

    A buffer is *live* at a point if some later statement reads,
    writes, or takes the address of it. Fact tokens: ``("live", buf)``.
    """

    def __init__(self, facts: ProgramFacts):
        self.cfg = facts.cfg
        self._events = facts.events
        #: bid -> every buffer the block references (liveness only
        #: grows inside a block, so its transfer is one union)
        self._gen = {bid: frozenset().union(*map(self._refs, per_stmt))
                     for bid, per_stmt in self._events.items()}
        self.block_in, self.block_out = solve_backward(
            self.cfg, self._transfer)

    @staticmethod
    def _refs(events: Iterable[BufferEvent]) -> Facts:
        return frozenset(("live", ev.name) for ev in events
                         if ev.kind in ("read", "write", "ref",
                                        "escape"))

    def _transfer(self, bid: int, facts: Facts) -> Facts:
        return facts | self._gen[bid]

    def live_after_alloc(self, bid: int, stmt_idx: int,
                         buffer: str) -> bool:
        """Is ``buffer`` referenced anywhere after this statement?"""
        events = self._events[bid]
        for ev_list in events[stmt_idx + 1:]:
            if ("live", buffer) in self._refs(ev_list):
                return True
        return ("live", buffer) in self.block_out[bid]

    def alloc_sites(self):
        """Yield ``(bid, stmt_idx, event)`` for every alloc event."""
        for bid, per_stmt in self._events.items():
            for idx, ev_list in enumerate(per_stmt):
                for ev in ev_list:
                    if ev.kind == "alloc":
                        yield bid, idx, ev

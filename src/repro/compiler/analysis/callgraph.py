"""Call graph over user-defined functions, with recursion detection.

The interprocedural analysis is summary-based: effect summaries are
computed per function, callees before callers, so a summary can fold
in the (already computed) summaries of the functions it calls.
``CallGraph`` provides that bottom-up order plus the set of functions
on (or reaching) a recursive cycle — their summaries are unavailable
and every dependent analysis must be conservative (``MEA011``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.compiler.cast import FuncDef, Program, walk_calls

#: Synthetic node for the implicit main body.
MAIN = "<main>"


@dataclass
class CallGraph:
    """Edges caller -> callees over user-defined function names."""

    functions: Dict[str, FuncDef] = field(default_factory=dict)
    edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def callees(self, name: str) -> Tuple[str, ...]:
        return self.edges.get(name, ())

    def recursive(self) -> Set[str]:
        """Functions on a call cycle (direct or mutual recursion)."""
        state: Dict[str, int] = {}          # 0 visiting, 1 done
        on_cycle: Set[str] = set()
        stack: List[str] = []

        def visit(name: str) -> None:
            state[name] = 0
            stack.append(name)
            for callee in self.callees(name):
                if callee not in self.functions:
                    continue
                if callee not in state:
                    visit(callee)
                elif state[callee] == 0:
                    # back edge: everything from callee on the stack
                    # participates in the cycle
                    idx = stack.index(callee)
                    on_cycle.update(stack[idx:])
            stack.pop()
            state[name] = 1

        for name in self.functions:
            if name not in state:
                visit(name)
        return on_cycle

    def unavailable(self) -> Set[str]:
        """Functions whose summary cannot exist: recursive, or calling
        (transitively) a recursive function."""
        bad = self.recursive()
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                if name in bad:
                    continue
                if any(c in bad for c in self.callees(name)):
                    bad.add(name)
                    changed = True
        return bad

    def topo_order(self) -> List[str]:
        """Callees-first order over the non-recursive functions."""
        skip = self.unavailable()
        order: List[str] = []
        seen: Set[str] = set(skip)

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for callee in self.callees(name):
                if callee in self.functions:
                    visit(callee)
            order.append(name)

        for name in self.functions:
            visit(name)
        return order

    def chain_to(self, name: str) -> Tuple[str, ...]:
        """One call chain from main to ``name`` (for diagnostics)."""
        parents: Dict[str, str] = {}
        frontier = [MAIN]
        seen = {MAIN}
        while frontier:
            cur = frontier.pop(0)
            for callee in self.callees(cur):
                if callee in seen or callee not in self.functions:
                    continue
                parents[callee] = cur
                if callee == name:
                    chain = [callee]
                    while parents.get(chain[0], MAIN) != MAIN:
                        chain.insert(0, parents[chain[0]])
                    return tuple(chain)
                seen.add(callee)
                frontier.append(callee)
        return (name,)


def build_call_graph(program: Program) -> CallGraph:
    """Call edges of every function body plus the implicit main."""
    functions = program.function_map()
    graph = CallGraph(functions=functions)

    def callees_of(body) -> Tuple[str, ...]:
        if not functions:
            return ()           # nothing to call: skip the walk
        names = []
        for call in walk_calls(body):
            if call.func in functions and call.func not in names:
                names.append(call.func)
        return tuple(names)

    for func in program.functions:
        graph.edges[func.name] = callees_of(func.body)
    graph.edges[MAIN] = callees_of(program.stmts)
    return graph

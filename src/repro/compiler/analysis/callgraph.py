"""Call graph over user-defined functions, with recursion detection.

The interprocedural analysis is summary-based: effect summaries are
computed per function, callees before callers, so a summary can fold
in the (already computed) summaries of the functions it calls.
``CallGraph`` provides that bottom-up order plus the set of functions
on (or reaching) a recursive cycle, which get no summary (the
recognizer rejects a program that calls one, code ``MEA011``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.compiler.cast import FuncDef, Program, walk_calls


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


def build_call_graph(program: Program) -> CallGraph:
    """Call edges of every function body."""
    functions = program.function_map()
    graph = CallGraph(functions=functions)
    for func in program.functions:
        names: List[str] = []
        for call in walk_calls(func.body):
            if call.func in functions and call.func not in names:
                names.append(call.func)
        graph.edges[func.name] = tuple(names)
    return graph

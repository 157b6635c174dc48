"""The shared analysis results of one compile.

``check_program``, ``certify_schedule`` and ``rewrite_schedule`` all
ask the same questions of the same ``(program, env)``: its CFG, the
value ranges over that CFG, the effect summaries of its user-defined
functions, the buffer events of every statement and the dependence
and bounds proof of every accelerated step. A :class:`ProgramFacts`
answers each of them once, the first time it is asked, and hands the
same object to every later consumer.

A bundle is bound to one program and one :class:`CompileEnv` and is
never updated: it lives as long as the compile that built it. Every
consumer asserts that its schedule's env *is* the bundle's env, so a
bundle cannot be reused for a different program or env.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

from repro.compiler.analysis.alias import StepProof, prove_step
from repro.compiler.analysis.cfg import Cfg, build_cfg
from repro.compiler.analysis.events import BufferEvent, stmt_events
from repro.compiler.analysis.ranges import ValueRanges
from repro.compiler.analysis.summaries import (FunctionSummary,
                                               compute_summaries)
from repro.compiler.cast import Program
from repro.compiler.semantics import CompileEnv


class ProgramFacts:
    """Lazily computed analyses of one ``(program, env)``."""

    def __init__(self, program: Program, env: CompileEnv):
        self.program = program
        self.env = env
        self._proofs: Dict[int, StepProof] = {}

    @cached_property
    def cfg(self) -> Cfg:
        return build_cfg(self.program)

    @cached_property
    def ranges(self) -> ValueRanges:
        return ValueRanges(self.cfg, self.env)

    @cached_property
    def summaries(self) -> Dict[str, FunctionSummary]:
        return compute_summaries(self.program, self.env)

    @cached_property
    def events(self) -> Dict[int, List[List[BufferEvent]]]:
        """Block id -> one event list per statement, in block order."""
        return {b.bid: [stmt_events(s, self.env, self.summaries)
                        for s in b.stmts]
                for b in self.cfg.blocks}

    def step_proof(self, index: int, step) -> StepProof:
        """The proof of accelerated schedule step ``index``. A memoized
        proof is reused only while ``step`` is the very object it
        proved (a demoted or rewritten schedule keeps its surviving
        steps), so the memo cannot go stale."""
        proof = self._proofs.get(index)
        if proof is None or proof.step is not step:
            proof = prove_step(step, self.env, self.ranges)
            self._proofs[index] = proof
        return proof

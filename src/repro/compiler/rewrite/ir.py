"""Rewrite-layer IR: fused steps and the rewrite decision log.

The rewrite engine (:mod:`.engine`) operates on the recognizer's step
list and produces two artefacts:

* :class:`FusedStep` — several accelerated calls proven to form one
  datapath-chained PASS (``PASS { COMP a COMP b }``, or ``LOOP n {
  PASS { ... } }`` when the members are looped).  It is the compiler's
  only chained form: the paper's non-looped chains (SAR interpolation
  + FFT, STAP corner turn + FFT) and looped ones alike.  For a looped
  FusedStep the legality checker proved every iteration's
  producer->consumer linkage exact and the fused interleaving free of
  carried dependences, so the intermediate buffer skips its DRAM
  round-trip on *every* iteration.
* :class:`RewriteDecision` — one audit record per considered rewrite,
  applied (MEA018) or rejected (MEA019), naming the primitive, the
  prover that discharged (or the dependence that blocked) it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compiler.diagnostics import Diagnostic, Severity, SourceLoc
from repro.compiler.recognizer import AccelCallStep

if TYPE_CHECKING:
    from repro.compiler.analysis.certificates import SafetyCertificate
    from repro.compiler.semantics import CompileEnv


@dataclass(frozen=True)
class FusedStep:
    """Accelerated calls fused into one (possibly looped) PASS.

    ``steps`` run in datapath order: each member's output feeds the
    next member through the tile's local memory, so only the first
    member's reads and the last member's writes touch DRAM (exactly
    how the configuration unit prices a multi-COMP PASS).
    ``intermediates`` are the buffers whose round-trip the fusion
    elides — each is some member's written buffer consumed by the next
    member and proven dead afterwards.
    """

    steps: Tuple[AccelCallStep, ...]
    intermediates: Tuple[str, ...] = ()
    certificate: Optional["SafetyCertificate"] = field(
        default=None, compare=False, repr=False)

    @property
    def accel(self) -> str:
        return "+".join(s.accel for s in self.steps)

    @property
    def trips(self) -> Tuple[int, ...]:
        return self.steps[0].trips

    @property
    def loop_vars(self) -> Tuple[str, ...]:
        return self.steps[0].loop_vars

    @property
    def looped(self) -> bool:
        return bool(self.trips)

    @property
    def iterations(self) -> int:
        total = 1
        for t in self.trips:
            total *= t
        return total

    @property
    def calls(self) -> int:
        return sum(s.calls for s in self.steps)

    @property
    def in_bufs(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for s in self.steps:
            for b in s.in_bufs:
                seen.setdefault(b, None)
        return tuple(seen)

    @property
    def out_bufs(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for s in self.steps:
            for b in s.out_bufs:
                seen.setdefault(b, None)
        return tuple(seen)

    @property
    def loc(self) -> Optional[SourceLoc]:
        return self.steps[0].loc

    def dram_bytes_skipped(self, env: "CompileEnv") -> int:
        """DRAM bytes the fusion elides per full execution.

        For every fused link the producer's write of the intermediate
        and the consumer's read of it both stay in tile-local memory:
        the legality checker proved the linkage byte-exact, so each
        side moves exactly the producer's write extent per iteration.
        """
        from repro.compiler.analysis.alias import step_accesses

        inter = set(self.intermediates)
        skipped = 0
        for producer in self.steps[:-1]:
            for acc in step_accesses(producer, env):
                if acc.writes and acc.buffer in inter:
                    skipped += 2 * acc.extent     # write + re-read
        return skipped * self.iterations


@dataclass(frozen=True)
class RewriteDecision:
    """One considered rewrite: what was tried, and why it (wasn't) ok.

    ``applied`` decisions carry the prover chain that discharged the
    legality obligations (MEA018); rejections carry the blocking
    dependence or missing proof in ``reason`` (MEA019).  Both are
    surfaced through the CLI's ``--json``/``--sarif`` outputs.
    """

    primitive: str                    # "fuse" | "reorder" | "split"
    applied: bool
    steps: Tuple[int, ...]            # original schedule indices
    accels: Tuple[str, ...]
    prover: str = ""
    detail: str = ""
    reason: str = ""
    buffers: Tuple[str, ...] = ()
    loc: Optional[SourceLoc] = None

    @property
    def code(self) -> str:
        return "MEA018" if self.applied else "MEA019"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "primitive": self.primitive,
            "applied": self.applied,
            "code": self.code,
            "steps": list(self.steps),
            "accels": list(self.accels),
        }
        if self.prover:
            out["prover"] = self.prover
        if self.detail:
            out["detail"] = self.detail
        if self.reason:
            out["reason"] = self.reason
        if self.buffers:
            out["buffers"] = list(self.buffers)
        if self.loc is not None:
            out["line"] = self.loc.line
            out["col"] = self.loc.col
        return out

    def diagnostic(self) -> Diagnostic:
        """The decision as a stable-coded INFO finding."""
        chain = "+".join(self.accels)
        if self.applied:
            message = (f"{self.primitive} of {chain}"
                       + (f" ({self.detail})" if self.detail else ""))
        else:
            message = f"{self.primitive} of {chain} — {self.reason}"
        return Diagnostic(code=self.code, severity=Severity.INFO,
                          message=message, loc=self.loc,
                          buffers=self.buffers,
                          step_index=(self.steps[0] if self.steps
                                      else None),
                          prover=self.prover)


def decision_diagnostics(decisions: Tuple[RewriteDecision, ...]
                         ) -> List[Diagnostic]:
    return [d.diagnostic() for d in decisions]

"""Statically-verified schedule rewrites over the recognized IR.

Fuse / reorder / split primitives, each gated by the symbolic
dependence provers and recorded in the step's safety certificate.
See :mod:`.engine` for the driver and :mod:`.legality` for the
obligations each primitive discharges.
"""

from repro.compiler.rewrite.engine import RewriteResult, rewrite_schedule
from repro.compiler.rewrite.ir import (FusedStep, RewriteDecision,
                                       decision_diagnostics)
from repro.compiler.rewrite.legality import (LegalityVerdict, fuse_legal,
                                             intermediates_dead,
                                             split_step,
                                             steps_independent)

__all__ = [
    "FusedStep",
    "LegalityVerdict",
    "RewriteDecision",
    "RewriteResult",
    "decision_diagnostics",
    "fuse_legal",
    "intermediates_dead",
    "rewrite_schedule",
    "split_step",
    "steps_independent",
]

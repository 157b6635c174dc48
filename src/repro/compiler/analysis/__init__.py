"""Static dataflow-analysis framework for the source-to-source compiler.

Proves offload *safety* before any call is redirected to the in-DRAM
accelerators. The pipeline is::

    C AST ──► call graph (recursion detection, bottom-up order)
          ──► per-function effect summaries (lifecycle, access and
              escape events) replayed at call sites — never re-analysed
          ──► CFG (basic blocks, loop nests)
          ──► dataflow (reaching lifecycle events, buffer liveness)
          ──► value-range analysis (interval lattice with widening at
              loop headers, narrowing on branch conditions)
          ──► symbolic affine dependence tester (constant-distance,
              mixed-radix, interval-bounds, GCD, Banerjee) with
              bounded enumeration only as a flagged fallback
          ──► loop-carried-dependence + OpenMP race detection
          ──► static footprint bounds (provable / possible OOB)
          ──► rule engine ──► Diagnostics (MEA001..MEA017)
          ──► rewrite-safety certificates for every offloaded step

One compile computes the CFG, value ranges, effect summaries,
statement events and each accelerated step's dependence and bounds
proof once, in a shared :class:`ProgramFacts` bundle (:mod:`.facts`)
that the checker, the certifier and the rewrite engine all read.

``error`` findings on accelerated call sites demote the call to host
execution (``HostCallStep``) instead of producing a wrong offload;
lifecycle errors (use-after-free, double-free, ... — including their
interprocedural form MEA012) and provable out-of-bounds footprints
(MEA015) reject the program. MEA016 (possible OOB) is the one warning
that demotes.
"""

from repro.compiler.analysis.alias import (FieldAccess, StepProof,
                                           prove_step, step_accesses,
                                           step_ranges)
from repro.compiler.analysis.callgraph import (CallGraph,
                                               build_call_graph)
from repro.compiler.analysis.certificates import (CertFact,
                                                  SafetyCertificate,
                                                  certify_schedule,
                                                  certify_step)
from repro.compiler.analysis.cfg import BasicBlock, Cfg, build_cfg
from repro.compiler.analysis.dataflow import (LifecycleFacts, Liveness,
                                              solve_backward,
                                              solve_forward)
from repro.compiler.analysis.deptest import (DepVerdict,
                                             cross_iteration_verdict,
                                             same_iteration_verdict)
from repro.compiler.analysis.events import BufferEvent, stmt_events
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.races import classify_races
from repro.compiler.analysis.ranges import (Interval, ValueRanges,
                                            affine_interval)
from repro.compiler.analysis.rules import (AnalysisResult, DEMOTE_CODES,
                                           REJECT_CODES,
                                           WARN_DEMOTE_CODES,
                                           analyze_source,
                                           apply_demotions,
                                           check_program)
from repro.compiler.analysis.summaries import (FunctionSummary,
                                               SummaryEvent,
                                               compute_summaries)
from repro.compiler.diagnostics import (Diagnostic, DiagnosticReport,
                                        Severity, SourceLoc)

__all__ = [
    "FieldAccess", "step_accesses",
    "step_ranges", "StepProof", "prove_step",
    "CallGraph", "build_call_graph",
    "CertFact", "SafetyCertificate", "certify_schedule", "certify_step",
    "BasicBlock", "Cfg", "build_cfg", "LifecycleFacts", "Liveness",
    "solve_backward", "solve_forward",
    "DepVerdict", "same_iteration_verdict", "cross_iteration_verdict",
    "BufferEvent", "stmt_events", "ProgramFacts",
    "classify_races", "Interval", "ValueRanges", "affine_interval",
    "AnalysisResult", "DEMOTE_CODES", "REJECT_CODES",
    "WARN_DEMOTE_CODES",
    "analyze_source", "apply_demotions", "check_program",
    "FunctionSummary", "SummaryEvent",
    "compute_summaries", "Diagnostic", "DiagnosticReport", "Severity",
    "SourceLoc",
]

"""The source-to-source compiler (Section 3.4) and its interpreters."""

from repro.compiler.affine import Affine, AffineError
from repro.compiler.cast import (CParseError, FuncDef, Param, Program,
                                 walk_calls)
from repro.compiler.cparser import parse_source
from repro.compiler.inline import inline_body, substitute_expr
from repro.compiler.diagnostics import (Diagnostic, DiagnosticReport,
                                        Severity, SourceLoc)
from repro.compiler.errors import AnalysisRejected, CompilerError
from repro.compiler.interp import (ArrayRef, InterpError, RunOutcome,
                                   run_original, run_translated)
from repro.compiler.passes import (DescriptorStep, group_descriptors,
                                   optimize)
from repro.compiler.recognizer import (AccelCallStep, AllocStep, FreeStep,
                                       HostCallStep, ParamsProto,
                                       PlanDestroyStep, RecognizerError,
                                       Schedule, recognize)
from repro.compiler.rewrite import (FusedStep, RewriteDecision,
                                    RewriteResult, rewrite_schedule)
from repro.compiler.semantics import (BufferInfo, CompileEnv, PlanSpec,
                                      SemanticError, build_env)
from repro.compiler.translate import (HOST_CALL_OVERHEAD_S,
                                      TranslatedProgram, step_profile,
                                      translate)

__all__ = [
    "Affine", "AffineError", "CParseError", "FuncDef", "Param",
    "Program", "walk_calls", "parse_source", "inline_body",
    "substitute_expr", "Diagnostic", "DiagnosticReport", "Severity",
    "SourceLoc", "AnalysisRejected", "CompilerError", "ArrayRef",
    "InterpError", "RunOutcome", "run_original", "run_translated",
    "DescriptorStep", "group_descriptors", "optimize", "AccelCallStep",
    "AllocStep", "FreeStep", "HostCallStep", "ParamsProto",
    "PlanDestroyStep", "RecognizerError", "Schedule", "recognize",
    "BufferInfo",
    "CompileEnv", "PlanSpec", "SemanticError", "build_env",
    "HOST_CALL_OVERHEAD_S", "TranslatedProgram", "step_profile",
    "translate", "FusedStep", "RewriteDecision",
    "RewriteResult", "rewrite_schedule",
]

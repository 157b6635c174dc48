"""Pass 2 + lowering: from schedules to runnable translated programs.

``translate`` drives the whole compiler: the checked front end
:func:`analyze_program` (parse -> recognise -> check and certify ->
rewrite, the verified engine being the only chainer), then group. The
result is a :class:`TranslatedProgram` whose descriptor steps carry
everything needed to emit TDL + parameter files once buffer addresses
are known (pass 2's malloc/free substitution happens here too:
AllocSteps become ``mealib_mem_alloc`` at run time).

``step_profile`` maps any step to its operation profile — used both to
time the *original* program on a host CPU model and to time translated
host-side calls. Keeping one mapping guarantees the baseline and MEALib
run the same operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Tuple, Union, cast

from repro.accel.layer import CORES
from repro.compiler.analysis.facts import ProgramFacts
from repro.compiler.analysis.rules import (AnalysisResult,
                                           apply_demotions,
                                           rejection_errors)
from repro.compiler.cast import Program
from repro.compiler.cparser import parse_source
from repro.compiler.diagnostics import DiagnosticReport
from repro.compiler.errors import AnalysisRejected
from repro.compiler.library import LIBRARY
from repro.compiler.passes import DescriptorStep, optimize
from repro.compiler.recognizer import (AccelCallStep, HostCallStep,
                                       ParamsProto, RecognizerError,
                                       Schedule, recognize)
from repro.compiler.semantics import CompileEnv
from repro.mkl.profiles import OpProfile

#: Fixed host cost per library-call invocation (dispatch, OpenMP
#: scheduling); what makes 16M tiny cdotc calls expensive even on the
#: baseline, and what the LOOP compaction removes on MEALib.
HOST_CALL_OVERHEAD_S = 100e-9


@dataclass
class TranslatedProgram:
    """The compiler's output, ready for the interpreters."""

    source_program: Program
    env: CompileEnv
    schedule: Schedule                 # pre-optimisation (call sites)
    items: List                        # grouped: Alloc/Free/Host/Descriptor
    diagnostics: DiagnosticReport = field(
        default_factory=DiagnosticReport)
    demoted_steps: Tuple[int, ...] = ()
    #: one rewrite-safety certificate per offloaded step
    certificates: Tuple = ()
    #: the rewrite engine's decision log (empty when ``translate`` ran
    #: with ``rewrite=False``)
    rewrites: Tuple = ()

    def descriptor_count(self) -> int:
        return sum(1 for i in self.items
                   if isinstance(i, DescriptorStep))

    def original_call_count(self) -> int:
        return self.schedule.total_library_calls()


def analyze_program(source: Union[str, Program],
                    rewrite: bool) -> AnalysisResult:
    """The checked front end: parse (given text) -> recognise -> check
    -> demote -> certify -> rewrite (with ``rewrite``).

    One :class:`ProgramFacts` bundle serves check, certify and rewrite.
    A program with a rejecting finding stops after the check: its
    result carries the report and the recognised schedule only.
    """
    # the phases are looked up where they are defined at every call,
    # so a wrapper installed on a module attribute sees each one
    from repro.compiler.analysis.certificates import certify_schedule
    from repro.compiler.analysis.rules import check_program
    from repro.compiler.rewrite import rewrite_schedule

    program = (parse_source(source) if isinstance(source, str)
               else source)
    schedule = recognize(program)
    facts = ProgramFacts(program, schedule.env)
    report = check_program(program, schedule, facts)
    if rejection_errors(report):
        return AnalysisResult(program=program, schedule=schedule,
                              report=report, lowered=schedule)
    lowered, demoted = apply_demotions(schedule, report)
    certificates = certify_schedule(program, lowered, skip=demoted,
                                    facts=facts)
    by_index = {c.step_index: c for c in certificates}
    steps = [dataclasses.replace(s, certificate=by_index[i])
             if isinstance(s, AccelCallStep) and i in by_index else s
             for i, s in enumerate(lowered.steps)]
    lowered = Schedule(env=lowered.env, steps=steps)
    rewrites: Tuple = ()
    if rewrite:
        result = rewrite_schedule(program, lowered, facts=facts)
        lowered = result.schedule
        rewrites = result.decisions
        certificates = result.certificates
        report.extend(d.diagnostic() for d in result.decisions)
        report.sort()
    return AnalysisResult(program=program, schedule=schedule,
                          report=report, lowered=lowered,
                          demoted=tuple(demoted),
                          certificates=certificates, rewrites=rewrites)


def translate(source: Union[str, Program],
              rewrite: bool = True) -> TranslatedProgram:
    """Compile C-subset source (or a parsed Program).

    The static safety checker runs before lowering: alias/dependence
    errors (MEA002, MEA005) demote the offending accelerated calls to
    host execution, lifecycle errors (use-before-init, use-after-free,
    double-free, plan executed after destroy) raise
    :class:`AnalysisRejected`, and the full report lands on
    ``TranslatedProgram.diagnostics``.

    With ``rewrite`` (the default) the verified rewrite engine
    (:mod:`repro.compiler.rewrite`) runs over the certified schedule:
    fuse/reorder/split, each gated by the dependence provers and
    logged on ``TranslatedProgram.rewrites`` (MEA018/MEA019 also join
    the diagnostics).  The engine is the compiler's only chainer, so
    every fusion carries a machine-checked proof.  ``rewrite=False``
    is the unfused identity translation: one PASS per call site, the
    "off" side of translation validation.
    """
    result = analyze_program(source, rewrite)
    rejects = rejection_errors(result.report)
    if rejects:
        first = rejects[0]
        raise AnalysisRejected(first.message, loc=first.loc,
                               code=first.code, buffers=first.buffers)
    return TranslatedProgram(source_program=result.program,
                             env=result.schedule.env,
                             schedule=result.schedule,
                             items=optimize(result.lowered),
                             diagnostics=result.report,
                             demoted_steps=result.demoted,
                             certificates=result.certificates,
                             rewrites=result.rewrites)


# -- profiles -----------------------------------------------------------------

def accel_step_profile(step: Union[AccelCallStep, HostCallStep],
                       env: CompileEnv) -> OpProfile:
    """Profile of ONE invocation of an accelerated call site, or of a
    demoted one, from the accelerator core itself (no profile reads an
    address, so every one is zero)."""
    proto = cast(ParamsProto, step.proto)
    return CORES[step.accel].profile(proto.zero_params())


def host_step_profile(step: HostCallStep, env: CompileEnv) -> OpProfile:
    """Profile of ONE invocation of a host (compute-bounded) call."""
    if step.demoted:
        # a demoted accelerated call: same operation, host library
        return accel_step_profile(step, env)
    entry = LIBRARY.get(step.func)
    if entry is None or entry.profile is None:
        raise RecognizerError(f"no profile for host call {step.func!r}")
    return entry.profile(lambda i: int(env.eval_const(step.args[i])))


def step_profile(step, env: CompileEnv) -> Tuple[OpProfile, int]:
    """(per-call profile, call count) for any library step."""
    if isinstance(step, AccelCallStep):
        return accel_step_profile(step, env), step.calls
    if isinstance(step, HostCallStep):
        return host_step_profile(step, env), step.calls
    raise TypeError(f"step {step!r} has no profile")

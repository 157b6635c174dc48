"""Lowering: descriptor grouping over the (rewritten) schedule.

Maximal runs of accelerated steps with no intervening host work
collapse into a single accelerator descriptor (STAP's 17 M library
calls end up in 3 descriptors), straight from the paper.

Chaining — an accelerated call followed by another whose input is the
first one's output becoming one PASS (the STAP corner turn + Doppler
FFT, the SAR interpolation + FFT) — is not done here: the verified
rewrite engine (:mod:`repro.compiler.rewrite`) is the compiler's only
chainer, and every :class:`FusedStep` it emits carries a
machine-checked proof.  Fused steps group into descriptors like plain
calls do; a looped one keeps a descriptor of its own, exactly like a
loop-compacted call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.compiler.recognizer import AccelCallStep, Schedule
from repro.compiler.rewrite.ir import FusedStep


@dataclass(frozen=True)
class DescriptorStep:
    """A maximal group of accel work lowered to one descriptor."""

    items: Tuple[object, ...]


def group_descriptors(steps: List[object]) -> List[object]:
    """Collapse maximal accel runs into DescriptorSteps.

    A LOOP-compacted step always gets a descriptor of its own (matching
    the paper's one-descriptor-per-OpenMP-nest translation of STAP);
    adjacent non-looped steps and fused passes share one descriptor.
    """
    items: List[object] = []
    run: List[object] = []

    def flush() -> None:
        if run:
            items.append(DescriptorStep(items=tuple(run)))
            run.clear()

    for step in steps:
        if isinstance(step, (AccelCallStep, FusedStep)) and step.looped:
            flush()
            items.append(DescriptorStep(items=(step,)))
        elif isinstance(step, (AccelCallStep, FusedStep)):
            run.append(step)
        else:
            flush()
            items.append(step)
    flush()
    return items


def optimize(schedule: Schedule) -> List[object]:
    """Lower a schedule to its grouped items (Alloc/Free/Host/Descriptor)."""
    return group_descriptors(list(schedule.steps))

"""The hybrid evaluation runner (Section 4's methodology, simulated).

Runs each Table 2 workload on all five Table 3 platforms:

* Haswell / Xeon Phi — the CPU roofline model executes the op profile
  (standing in for the paper's native PAPI/RAPL measurement);
* PSAS / MSAS / MEALib — the accelerator model streams the op's access
  pattern through the platform's cycle-level memory device.

Results are :class:`OpRun` records carrying time, energy, flops and
useful bytes, from which the figure generators compute the normalised
speedups and efficiency gains of Figs 9 and 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.accel.layer import AcceleratorLayer
from repro.eval.workloads import OP_ORDER, TABLE2
from repro.host.cpu import CpuModel
from repro.host.platforms import (AcceleratedSystem, haswell,
                                  mealib_platform, msas, psas, xeon_phi)
from repro.metrics import ExecResult

PLATFORM_ORDER = ("Haswell", "XeonPhi", "PSAS", "MSAS", "MEALib")


@dataclass(frozen=True)
class OpRun:
    """One (operation, platform) execution."""

    op: str
    platform: str
    result: ExecResult
    flops: float
    useful_bytes: int

    @property
    def gflops(self) -> float:
        return self.flops / self.result.time / 1e9

    @property
    def gbytes_per_s(self) -> float:
        return self.useful_bytes / self.result.time / 1e9

    @property
    def gflops_per_watt(self) -> float:
        return self.flops / self.result.energy / 1e9


class IndividualOpRunner:
    """Evaluates the seven accelerated functions across all platforms."""

    def __init__(self, scale: float = 1.0,
                 layer: Optional[AcceleratorLayer] = None):
        self.scale = scale
        self.layer = layer if layer is not None else AcceleratorLayer()
        self.cpu_platforms: Dict[str, CpuModel] = {
            "Haswell": haswell(),
            "XeonPhi": xeon_phi(),
        }
        self.accel_platforms: Dict[str, AcceleratedSystem] = {
            "PSAS": psas(),
            "MSAS": msas(),
            "MEALib": mealib_platform(),
        }

    def run_op(self, op: str) -> Dict[str, OpRun]:
        """All platforms for one operation."""
        workload = TABLE2[op]
        params = workload.params(self.scale)
        core = self.layer.accelerator(op)
        profile = core.profile(params)
        runs: Dict[str, OpRun] = {}
        for name, cpu in self.cpu_platforms.items():
            result = cpu.run_profile(profile)
            runs[name] = OpRun(op=op, platform=name, result=result,
                               flops=profile.flops,
                               useful_bytes=profile.bytes_total)
        for name, system in self.accel_platforms.items():
            execution = system.run(core, params)
            runs[name] = OpRun(op=op, platform=name,
                               result=execution.result,
                               flops=profile.flops,
                               useful_bytes=profile.bytes_total)
        return runs

    def run_all(self) -> Dict[str, Dict[str, OpRun]]:
        """op -> platform -> OpRun for the whole of Table 2."""
        return {op: self.run_op(op) for op in OP_ORDER}


def speedups_vs_haswell(runs: Dict[str, Dict[str, OpRun]]
                        ) -> Dict[str, Dict[str, float]]:
    """Fig 9's quantity: performance normalised to Haswell-MKL."""
    out: Dict[str, Dict[str, float]] = {}
    for op, by_platform in runs.items():
        base = by_platform["Haswell"].result.time
        out[op] = {p: base / r.result.time
                   for p, r in by_platform.items() if p != "Haswell"}
    return out


def efficiency_vs_haswell(runs: Dict[str, Dict[str, OpRun]]
                          ) -> Dict[str, Dict[str, float]]:
    """Fig 10's quantity: GFLOPS/W normalised to Haswell-MKL (flops
    cancel, so this is an energy ratio)."""
    out: Dict[str, Dict[str, float]] = {}
    for op, by_platform in runs.items():
        base = by_platform["Haswell"].result.energy
        out[op] = {p: base / r.result.energy
                   for p, r in by_platform.items() if p != "Haswell"}
    return out


def geometric_mean(values) -> float:
    vals = list(values)
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))

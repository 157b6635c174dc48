"""The accelerator layer: Table 1's cores, tiles, NoC, and synthesis.

Public surface: one ``*Accelerator`` class + ``*Params`` dataclass per
Table 1 entry, the assembled :class:`~repro.accel.layer.AcceleratorLayer`,
the :class:`~repro.accel.noc.MeshNoc`, and the Fig 11 design-space
exploration helpers.
"""

from repro.accel.axpy import AxpyAccelerator, AxpyParams
from repro.accel.base import (AccelExecution, AcceleratorCore,
                              DEFAULT_FREQ_HZ, DEFAULT_TILES)
from repro.accel.design_space import (DesignPoint, FREQUENCIES_HZ,
                                      efficiency_range, explore_fft,
                                      explore_spmv)
from repro.accel.dot import (DTYPE_C64, DTYPE_F32, DotAccelerator,
                             DotParams)
from repro.accel.fft import FftAccelerator, FftParams
from repro.accel.gemv import GemvAccelerator, GemvParams
from repro.accel.layer import (ACCELERATOR_TYPES, AcceleratorLayer,
                               ComponentBudget)
from repro.accel.noc import LinkHealth, MeshNoc, NocUnreachableError
from repro.accel.reshp import ReshpAccelerator, ReshpParams
from repro.accel.resmp import ResmpAccelerator, ResmpParams
from repro.accel.spmv import SpmvAccelerator, SpmvParams
from repro.accel.synthesis import (LAYER_AREA_BUDGET_MM2, LogicBlock,
                                   noc_area, noc_power)
from repro.accel.tile import Tile

__all__ = [
    "AxpyAccelerator", "AxpyParams", "AccelExecution", "AcceleratorCore",
    "DEFAULT_FREQ_HZ", "DEFAULT_TILES", "DesignPoint", "FREQUENCIES_HZ",
    "efficiency_range", "explore_fft", "explore_spmv", "DTYPE_C64",
    "DTYPE_F32", "DotAccelerator", "DotParams", "FftAccelerator",
    "FftParams", "GemvAccelerator", "GemvParams", "ACCELERATOR_TYPES",
    "AcceleratorLayer", "ComponentBudget", "LinkHealth", "MeshNoc",
    "NocUnreachableError", "ReshpAccelerator",
    "ReshpParams", "ResmpAccelerator", "ResmpParams", "SpmvAccelerator",
    "SpmvParams", "LAYER_AREA_BUDGET_MM2", "LogicBlock", "noc_area",
    "noc_power", "Tile",
]

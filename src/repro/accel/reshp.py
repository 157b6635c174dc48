"""The RESHP accelerator (mkl_simatcopy / rank-0 FFTW guru plans).

Unlike the other accelerators, RESHP lives on the DRAM *logic layer*
(Section 2.1): it is the data-reshape infrastructure, usable both by the
CPU and by other accelerators (e.g. to produce the blocked layout the
FFT pipeline wants). It has no FP datapath — its Table 5 power entry
(22.7 W) is almost entirely DRAM power; the added logic is 0.45 mm^2 /
0.25 W.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.accel.base import AcceleratorCore, Operand
from repro.accel.synthesis import LogicBlock
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.reshape import ReshapeUnit
from repro.memsys.trace import StreamSpec
from repro.mkl.profiles import OpProfile, reshp_profile

_FORMAT = struct.Struct("<qqqqq")

#: The paper's logic-layer additions (MUX + reshape unit).
RESHP_AREA_MM2 = 0.45
RESHP_POWER_W = 0.25


@dataclass(frozen=True)
class ReshpParams:
    """Parameters of one transpose/reshape invocation.

    Attributes:
        rows / cols: source matrix shape (row-major).
        elem_bytes: element size (4 = float32, 8 = complex64).
        src_pa / dst_pa: physical addresses. Equal addresses mean an
            in-place square transpose (tile-pair swaps).
    """

    rows: int
    cols: int
    elem_bytes: int
    src_pa: int
    dst_pa: int

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('src_pa', 'dst_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.rows, self.cols, self.elem_bytes,
                            self.src_pa, self.dst_pa)

    @classmethod
    def unpack(cls, data: bytes) -> "ReshpParams":
        return cls(*_FORMAT.unpack(data[:_FORMAT.size]))


class ReshpAccelerator(AcceleratorCore):
    """Tiled transpose engine on the DRAM logic layer."""

    name = "RESHP"
    opcode = 7
    logic = LogicBlock(fpus=0, sram_kb=64)   # SRAM staging tile, no FPUs
    params_type = ReshpParams
    #: in-place transposes (mkl_simatcopy) swap tile pairs
    inplace_exact = True

    def __init__(self, reshape_unit: ReshapeUnit = None, **kwargs):
        super().__init__(**kwargs)
        self.unit = reshape_unit if reshape_unit is not None \
            else ReshapeUnit()

    def run(self, space: UnifiedAddressSpace, params: ReshpParams) -> None:
        dtype = {4: np.float32, 8: np.complex64}.get(params.elem_bytes)
        if dtype is None:
            raise ValueError(
                f"unsupported element size {params.elem_bytes}")
        src = space.pa_ndarray(params.src_pa, dtype,
                               (params.rows, params.cols))
        if params.src_pa == params.dst_pa:
            if params.rows != params.cols:
                raise ValueError("in-place reshape must be square")
            src[:] = src.T.copy()
            return
        dst = space.pa_ndarray(params.dst_pa, dtype,
                               (params.cols, params.rows))
        dst[:] = src.T

    def operands(self, params: ReshpParams) -> Dict[str, Operand]:
        size = params.rows * params.cols * params.elem_bytes
        return {"src_pa": Operand(size, reads=True),
                "dst_pa": Operand(size, writes=True)}

    def profile(self, params: ReshpParams) -> OpProfile:
        return reshp_profile(params.rows, params.cols, params.elem_bytes)

    def streams(self, params: ReshpParams) -> List[StreamSpec]:
        return self.unit.transpose_streams(
            params.src_pa, params.dst_pa, params.rows, params.cols,
            params.elem_bytes)

    def area_mm2(self, tiles=None) -> float:
        """Logic-layer additions only (the paper's 0.45 mm^2)."""
        return RESHP_AREA_MM2

    def logic_power(self, freq_hz=None, activity: float = 1.0,
                    tiles=None) -> float:
        return RESHP_POWER_W * max(activity, 0.25)

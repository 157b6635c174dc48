"""The RESMP accelerator (dfsInterpolate1D): 1-D data resampling.

Resamples ``blocks`` independent complex series (the SAR range lines)
from a uniform input grid onto arbitrary sites using the cubic-spline
kernel of :mod:`repro.mkl.resample`. Spline fitting is recurrence-bound,
so this accelerator is the least bandwidth-hungry of the set — which is
why its Table 5 power is the lowest (8.19 W in the paper).

Functionally, one :func:`~repro.mkl.resample.interpolate_rows` call
resamples every series: all blocks share the knot vector, so one
tridiagonal factorization and one sweep over the knots serve them all,
bit-identical to fitting the series one at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.accel.base import AcceleratorCore
from repro.accel.synthesis import LogicBlock
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.trace import StreamSpec
from repro.mkl.profiles import COMPLEX, FLOAT, OpProfile, resmp_profile
from repro.mkl.resample import interpolate_rows

_FORMAT = struct.Struct("<qqqqqqq")


@dataclass(frozen=True)
class ResmpParams:
    """Parameters of one RESMP invocation.

    Attributes:
        blocks: independent series, laid out contiguously.
        n_in: input samples per series (on a uniform 0..n_in-1 grid).
        n_out: output sites per series.
        in_pa: complex64 input series (blocks x n_in).
        sites_pa: float32 sites (blocks x n_out).
        out_pa: complex64 output (blocks x n_out).
        knots_pa: float32 knot coordinates (n_in), shared by all blocks.
    """

    blocks: int
    n_in: int
    n_out: int
    in_pa: int
    sites_pa: int
    out_pa: int
    knots_pa: int

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('in_pa', 'sites_pa', 'out_pa', 'knots_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.blocks, self.n_in, self.n_out,
                            self.in_pa, self.sites_pa, self.out_pa,
                            self.knots_pa)

    @classmethod
    def unpack(cls, data: bytes) -> "ResmpParams":
        return cls(*_FORMAT.unpack(data[:_FORMAT.size]))


class ResmpAccelerator(AcceleratorCore):
    """Per-tile spline pipelines over independent series."""

    name = "RESMP"
    opcode = 5
    logic = LogicBlock(fpus=8, sram_kb=4)
    params_type = ResmpParams
    #: each lane is a fused spline-recurrence stage (~5 flops/cycle);
    #: independent series keep the pipelines full
    lane_flops = 5.0

    def run(self, space: UnifiedAddressSpace, params: ResmpParams) -> None:
        knots = space.pa_ndarray(params.knots_pa, np.float32,
                                 (params.n_in,))
        series = space.pa_ndarray(params.in_pa, np.complex64,
                                  (params.blocks, params.n_in))
        sites = space.pa_ndarray(params.sites_pa, np.float32,
                                 (params.blocks, params.n_out))
        out = space.pa_ndarray(params.out_pa, np.complex64,
                               (params.blocks, params.n_out))
        out[:] = interpolate_rows(knots, series, sites)

    def profile(self, params: ResmpParams) -> OpProfile:
        return resmp_profile(params.n_in, params.n_out, params.blocks)

    def streams(self, params: ResmpParams) -> List[StreamSpec]:
        b = params.blocks
        return [
            StreamSpec(base=params.in_pa, n_elems=b * params.n_in,
                       elem_bytes=COMPLEX),
            StreamSpec(base=params.sites_pa, n_elems=b * params.n_out,
                       elem_bytes=FLOAT),
            StreamSpec(base=params.out_pa, n_elems=b * params.n_out,
                       elem_bytes=COMPLEX, is_write=True),
        ]

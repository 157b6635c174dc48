"""The FFT accelerator (fftwf_execute): batched 1-D complex FFTs.

Modeled after the DRAM-optimised streaming FFT cores the paper cites
(Akin et al., ASAP'14): each tile holds a radix pipeline plus a local
SRAM working set, data arrives in row-buffer-friendly blocks (the reshape
engine provides the blocked layout), and a full batch makes exactly one
read and one write sweep over DRAM.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.accel.base import AcceleratorCore, Operand
from repro.accel.synthesis import LogicBlock
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.trace import StreamSpec
from repro.mkl.fftw import FFTW_FORWARD, fft_radix2
from repro.mkl.profiles import COMPLEX, OpProfile, fft_profile

_FORMAT = struct.Struct("<qqqqi")

#: Elements per dense DRAM block (matches the stack's 2 KiB rows).
FFT_BLOCK_ELEMS = 256


@dataclass(frozen=True)
class FftParams:
    """Parameters of one batched-FFT invocation.

    Attributes:
        n: transform length (power of two).
        batch: number of independent transforms.
        src_pa / dst_pa: contiguous complex64 input/output
            (batch x n, row-major).
        sign: FFTW_FORWARD (-1) or FFTW_BACKWARD (+1).
    """

    n: int
    batch: int
    src_pa: int
    dst_pa: int
    sign: int = FFTW_FORWARD

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('src_pa', 'dst_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.n, self.batch, self.src_pa, self.dst_pa,
                            self.sign)

    @classmethod
    def unpack(cls, data: bytes) -> "FftParams":
        return cls(*_FORMAT.unpack(data[:_FORMAT.size]))


class FftAccelerator(AcceleratorCore):
    """Streaming radix pipelines, one per tile, batched over vaults."""

    name = "FFT"
    opcode = 6
    logic = LogicBlock(fpus=16, sram_kb=64, extra_area=0.010,
                       extra_pw_per_ghz=0.004)   # twiddle ROM + AGU
    params_type = FftParams
    #: each "lane" is a radix-2 butterfly unit: 10 flops/cycle
    lane_flops = 10.0
    #: FFTW runs in-place plans
    inplace_exact = True

    def __init__(self, block_elems: int = FFT_BLOCK_ELEMS, **kwargs):
        super().__init__(**kwargs)
        if block_elems <= 0:
            raise ValueError("block size must be positive")
        self.block_elems = block_elems

    def run(self, space: UnifiedAddressSpace, params: FftParams) -> None:
        src = space.pa_ndarray(params.src_pa, np.complex64,
                               (params.batch, params.n))
        dst = space.pa_ndarray(params.dst_pa, np.complex64,
                               (params.batch, params.n))
        dst[:] = fft_radix2(src, params.sign)

    def operands(self, params: FftParams) -> Dict[str, Operand]:
        size = params.n * params.batch * COMPLEX
        return {"src_pa": Operand(size, reads=True),
                "dst_pa": Operand(size, writes=True)}

    def profile(self, params: FftParams) -> OpProfile:
        return fft_profile(params.n, params.batch)

    def streams(self, params: FftParams) -> List[StreamSpec]:
        total = params.n * params.batch
        block = min(self.block_elems, params.n)
        stride = block * COMPLEX
        return [
            StreamSpec(base=params.src_pa, n_elems=total,
                       elem_bytes=COMPLEX, kind="blocked",
                       block_elems=block, block_stride=stride),
            StreamSpec(base=params.dst_pa, n_elems=total,
                       elem_bytes=COMPLEX, kind="blocked",
                       block_elems=block, block_stride=stride,
                       is_write=True),
        ]

"""The AXPY accelerator (cblas_saxpy): y := alpha x + y."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.accel.base import AcceleratorCore, Operand
from repro.accel.synthesis import LogicBlock
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.trace import StreamSpec
from repro.mkl.profiles import OpProfile, axpy_profile

_FORMAT = struct.Struct("<qfqq")


@dataclass(frozen=True)
class AxpyParams:
    """Parameters of one AXPY invocation (PR entry).

    Attributes:
        n: vector length (elements).
        alpha: scale factor.
        x_pa / y_pa: physical addresses of the operand vectors.
    """

    n: int
    alpha: float
    x_pa: int
    y_pa: int

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('x_pa', 'y_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.n, self.alpha, self.x_pa, self.y_pa)

    @classmethod
    def unpack(cls, data: bytes) -> "AxpyParams":
        n, alpha, x_pa, y_pa = _FORMAT.unpack(data[:_FORMAT.size])
        return cls(n=n, alpha=alpha, x_pa=x_pa, y_pa=y_pa)


class AxpyAccelerator(AcceleratorCore):
    """Streams x and y through FMA lanes, writes y back."""

    name = "AXPY"
    opcode = 1
    logic = LogicBlock(fpus=3, sram_kb=2)
    params_type = AxpyParams

    def run(self, space: UnifiedAddressSpace, params: AxpyParams) -> None:
        x = space.pa_ndarray(params.x_pa, np.float32, (params.n,))
        y = space.pa_ndarray(params.y_pa, np.float32, (params.n,))
        y += np.float32(params.alpha) * x

    def operands(self, params: AxpyParams) -> Dict[str, Operand]:
        size = 4 * params.n
        return {"x_pa": Operand(size, reads=True),
                "y_pa": Operand(size, reads=True, writes=True)}

    def accumulates(self, params: AxpyParams) -> bool:
        return True

    def profile(self, params: AxpyParams) -> OpProfile:
        return axpy_profile(params.n)

    def streams(self, params: AxpyParams) -> List[StreamSpec]:
        return [
            StreamSpec(base=params.x_pa, n_elems=params.n, elem_bytes=4),
            StreamSpec(base=params.y_pa, n_elems=params.n, elem_bytes=4),
            StreamSpec(base=params.y_pa, n_elems=params.n, elem_bytes=4,
                       is_write=True),
        ]

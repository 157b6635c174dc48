"""The GEMV accelerator (cblas_sgemv): y := alpha A x + beta y.

The matrix streams once from DRAM (the dominant traffic); x is staged in
each tile's local memory and reused across rows, so it contributes one
read. Row blocks are distributed across vault tiles.
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
from repro.mkl.profiles import OpProfile, gemv_profile

_FORMAT = struct.Struct("<qqffqqq")


@dataclass(frozen=True)
class GemvParams:
    """Parameters of one GEMV invocation (row-major A, no transpose)."""

    m: int
    n: int
    alpha: float
    beta: float
    a_pa: int
    x_pa: int
    y_pa: int

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('a_pa', 'x_pa', 'y_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.m, self.n, self.alpha, self.beta,
                            self.a_pa, self.x_pa, self.y_pa)

    @classmethod
    def unpack(cls, data: bytes) -> "GemvParams":
        m, n, alpha, beta, a_pa, x_pa, y_pa = _FORMAT.unpack(
            data[:_FORMAT.size])
        return cls(m=m, n=n, alpha=alpha, beta=beta, a_pa=a_pa, x_pa=x_pa,
                   y_pa=y_pa)


class GemvAccelerator(AcceleratorCore):
    """Streaming matrix-vector engine with x held in tile local memory."""

    name = "GEMV"
    opcode = 3
    logic = LogicBlock(fpus=6, sram_kb=4)
    params_type = GemvParams

    def run(self, space: UnifiedAddressSpace, params: GemvParams) -> None:
        a = space.pa_ndarray(params.a_pa, np.float32,
                             (params.m, params.n))
        x = space.pa_ndarray(params.x_pa, np.float32, (params.n,))
        y = space.pa_ndarray(params.y_pa, np.float32, (params.m,))
        y *= np.float32(params.beta)
        y += np.float32(params.alpha) * (a @ x)

    def operands(self, params: GemvParams) -> Dict[str, Operand]:
        return {"a_pa": Operand(4 * params.m * params.n, reads=True),
                "x_pa": Operand(4 * params.n, reads=True),
                "y_pa": Operand(4 * params.m, reads=True, writes=True)}

    def accumulates(self, params: GemvParams) -> bool:
        # y = alpha*A*x + beta*y accumulates only when beta == 1
        return params.beta == 1.0

    def profile(self, params: GemvParams) -> OpProfile:
        return gemv_profile(params.m, params.n)

    def streams(self, params: GemvParams) -> List[StreamSpec]:
        return [
            StreamSpec(base=params.a_pa, n_elems=params.m * params.n,
                       elem_bytes=4),
            StreamSpec(base=params.x_pa, n_elems=params.n, elem_bytes=4),
            StreamSpec(base=params.y_pa, n_elems=params.m, elem_bytes=4,
                       is_write=True),
        ]

"""The SPMV accelerator (mkl_scsrgemv): y := A x for CSR A.

Values, column indices, and row pointers stream sequentially; the x
vector is *gathered* by column index — the pattern that keeps SpMV far
from peak bandwidth on every platform (the paper's Fig 9 shows MEALib's
smallest speedup, 11x, here, and Fig 11's SPMV design space tops out
below 2 GFLOPS/W). A dedicated gather engine per tile tracks in-flight
index loads.
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
from repro.mkl.profiles import FLOAT, OpProfile
from repro.mkl.sparse import CsrMatrix, scsrgemv

_FORMAT = struct.Struct("<qqqqqqqqq")


@dataclass(frozen=True)
class SpmvParams:
    """Parameters of one SPMV invocation.

    The matrix shape metadata travels with the pointer fields because the
    accelerator (and the performance model) needs nnz up front.
    ``locality_bytes`` bounds the span of x the gathers of nearby rows
    touch (banded/geometric matrices like rgg have strong index
    locality); 0 means gathers range over all of x.
    """

    rows: int
    cols: int
    nnz: int
    indptr_pa: int
    indices_pa: int
    data_pa: int
    x_pa: int
    y_pa: int
    locality_bytes: int = 0

    #: address-typed fields, in stride-table order
    ADDR_FIELDS = ('indptr_pa', 'indices_pa', 'data_pa', 'x_pa', 'y_pa')
    #: packed byte size of one parameter record
    SIZE = _FORMAT.size

    def pack(self) -> bytes:
        return _FORMAT.pack(self.rows, self.cols, self.nnz,
                            self.indptr_pa, self.indices_pa, self.data_pa,
                            self.x_pa, self.y_pa, self.locality_bytes)

    @classmethod
    def unpack(cls, data: bytes) -> "SpmvParams":
        fields = _FORMAT.unpack(data[:_FORMAT.size])
        return cls(*fields)


class SpmvAccelerator(AcceleratorCore):
    """Stream-and-gather CSR engine."""

    name = "SPMV"
    opcode = 4
    logic = LogicBlock(fpus=8, sram_kb=64, has_gather_engine=True)
    params_type = SpmvParams

    def run(self, space: UnifiedAddressSpace, params: SpmvParams) -> None:
        indptr = space.pa_ndarray(params.indptr_pa, np.int64,
                                  (params.rows + 1,))
        indices = space.pa_ndarray(params.indices_pa, np.int64,
                                   (params.nnz,))
        data = space.pa_ndarray(params.data_pa, np.float32, (params.nnz,))
        x = space.pa_ndarray(params.x_pa, np.float32, (params.cols,))
        y = space.pa_ndarray(params.y_pa, np.float32, (params.rows,))
        matrix = CsrMatrix(indptr=indptr, indices=indices, data=data,
                           shape=(params.rows, params.cols))
        scsrgemv(matrix, x, y)

    def operands(self, params: SpmvParams) -> Dict[str, Operand]:
        return {"data_pa": Operand(params.nnz * FLOAT, reads=True),
                "indptr_pa": Operand((params.rows + 1) * 8, reads=True),
                "indices_pa": Operand(params.nnz * 8, reads=True),
                "x_pa": Operand(params.cols * FLOAT, reads=True),
                "y_pa": Operand(params.rows * FLOAT, writes=True)}

    def profile(self, params: SpmvParams) -> OpProfile:
        read = (params.nnz * (FLOAT + 8)            # data + int64 indices
                + (params.rows + 1) * 8             # row pointers
                + params.nnz * FLOAT)               # gathered x
        return OpProfile("SPMV", flops=2.0 * params.nnz, bytes_read=read,
                         bytes_written=params.rows * FLOAT,
                         pattern="gather")

    def streams(self, params: SpmvParams) -> List[StreamSpec]:
        return [
            StreamSpec(base=params.data_pa, n_elems=params.nnz,
                       elem_bytes=4),
            StreamSpec(base=params.indices_pa, n_elems=params.nnz,
                       elem_bytes=8),
            StreamSpec(base=params.indptr_pa, n_elems=params.rows + 1,
                       elem_bytes=8),
            StreamSpec(base=params.x_pa, n_elems=params.nnz, elem_bytes=4,
                       kind="gather",
                       region_bytes=(min(params.locality_bytes,
                                         params.cols * 4)
                                     if params.locality_bytes
                                     else params.cols * 4)),
            StreamSpec(base=params.y_pa, n_elems=params.rows,
                       elem_bytes=4, is_write=True),
        ]

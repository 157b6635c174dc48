"""Per-iteration references for the bound loop path.

The library computes a looped COMP's offsets once, as columns
(:func:`repro.accel.base.offset_columns`), and binds each COMP once per
execute (:meth:`AcceleratorCore.bind`). The per-iteration mixed-radix
offsets, the parameter shift and DOT's view-per-call run that those
replaced live here as references.
"""

from dataclasses import replace
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.accel import DotAccelerator
from repro.accel.base import StrideTable, linear_strides
from repro.accel.dot import DTYPE_C64


def offsets(table: StrideTable, iteration: int) -> Mapping[str, int]:
    """Address offsets of loop ``iteration`` (row-major over trips)."""
    if len(table.trips) == 1:
        return {f: d[0] * iteration for f, d in table.deltas.items()}
    digits = []
    rest = iteration
    for trip in reversed(table.trips):
        digits.append(rest % trip)
        rest //= trip
    digits.reverse()
    return {f: sum(d * g for d, g in zip(field_deltas, digits))
            for f, field_deltas in table.deltas.items()}


def shift_params(params, strides, iteration: int):
    """Advance a parameter record to loop ``iteration``."""
    if strides is None or iteration < 0:
        return params
    if not isinstance(strides, StrideTable):
        strides = linear_strides(type(params), strides)
    if iteration == 0:
        return params
    updates = {field: getattr(params, field) + off
               for field, off in offsets(strides, iteration).items() if off}
    return replace(params, **updates) if updates else params


def dot_run(space, params) -> None:
    """DOT through one typed view per operand per call (``n == 0``
    spans no bytes, so it stores 0 whatever the increments)."""
    np_dtype = np.complex64 if params.dtype == DTYPE_C64 else np.float32
    n = params.n
    span_x = 1 + (n - 1) * abs(params.incx) if n else 0
    span_y = 1 + (n - 1) * abs(params.incy) if n else 0
    x = space.pa_ndarray(params.x_pa, np_dtype, (span_x,))
    y = space.pa_ndarray(params.y_pa, np_dtype, (span_y,))
    xv = x[::params.incx] if params.incx != 1 else x
    yv = y[::params.incy] if params.incy != 1 else y
    if params.dtype == DTYPE_C64:
        out = np.dot(np.conj(xv[:n]), yv[:n])
    else:
        out = np.dot(xv[:n], yv[:n])
    space.pa_ndarray(params.out_pa, np_dtype, (1,))[0] = out


def run_loop(space, comps: Sequence, count: int) -> None:
    """A looped pass one iteration at a time: every COMP's params
    shifted to the iteration, COMP by COMP (DOT through
    :func:`dot_run`)."""
    for i in range(count):
        for comp in comps:
            params = shift_params(comp.params, comp.strides, i)
            if isinstance(comp.core, DotAccelerator):
                dot_run(space, params)
            else:
                comp.core.run(space, params)


def snapshot(space) -> List[Tuple[int, bytes]]:
    """Every backed region's bytes."""
    return [(start, space.pa_read(start, size))
            for start, size in space.driver.phys.regions()]


def restore(space, image: List[Tuple[int, bytes]]) -> None:
    for start, data in image:
        space.pa_write(start, data)

"""Accelerator base machinery: functional execution + timing model.

Every accelerator in Table 1 derives from :class:`AcceleratorCore` and
supplies four views of itself:

* ``run`` — functional execution against the unified address space
  (physical addressing, numpy views over the very bytes the CPU sees);
* ``operands`` — the bytes each address field covers in one invocation
  and whether the core reads or writes them, with ``inplace_exact`` and
  ``accumulates``: the one declaration the compiler's alias, bounds and
  race analyses and its recognizer read;
* ``profile``/``streams`` — the machine-independent op profile and the
  concrete DRAM access streams, which the shared :meth:`model` turns
  into time and energy on whichever memory device the platform has
  (processor-side DDR for PSAS, 2D DRAM for MSAS, the 3D stack for
  MEALib);
* a synthesised :class:`~repro.accel.synthesis.LogicBlock` per tile.

The timing model is the paper's: an accelerator is either bandwidth-bound
(time from the cycle-level DRAM simulation) or compute-bound (time from
its lane count and clock), and its energy is DRAM energy + logic power,
with lane activity derated when the memory system is the bottleneck.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import (Callable, ClassVar, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Type)

import numpy as np

from repro.accel.synthesis import LogicBlock, noc_power
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.device import MemoryDevice
from repro.memsys.result import MemResult
from repro.memsys.trace import StreamSpec, simulate_streams
from repro.metrics import ExecResult
from repro.mkl.profiles import OpProfile

#: Tiles on the accelerator layer: one per vault.
DEFAULT_TILES = 16

#: Default accelerator clock (the middle of the Fig 11 sweep).
DEFAULT_FREQ_HZ = 1.6e9

#: Achieved fraction of peak lane throughput (pipeline fill, edges).
LANE_EFFICIENCY = 0.75

#: Flops per lane per cycle (fused multiply-add).
FLOPS_PER_LANE_CYCLE = 2.0


@dataclass(frozen=True)
class AccelExecution:
    """Outcome of modelling one accelerator invocation."""

    result: ExecResult
    mem: MemResult
    t_compute: float
    freq_hz: float

    @property
    def memory_bound(self) -> bool:
        return self.mem.time >= self.t_compute


class Operand(NamedTuple):
    """The ``size`` bytes one address field covers in one invocation,
    from the field's address up, and whether the core reads them,
    writes them, or both."""

    size: int
    reads: bool = False
    writes: bool = False


class AcceleratorCore(ABC):
    """One fixed-function accelerator (an entry of Table 1)."""

    #: Accelerator name; matches the OpProfile name and the TDL opcode.
    name: ClassVar[str]
    #: Numeric opcode used in the descriptor Instruction Region.
    opcode: ClassVar[int]
    #: Per-tile synthesised logic.
    logic: ClassVar[LogicBlock]
    #: Parameter dataclass (must provide pack()/unpack()).
    params_type: ClassVar[Type]
    #: Flops per lane per cycle. 2 (an FMA) by default; datapaths built
    #: from larger fused units override it — an FFT butterfly unit
    #: retires 10 flops/cycle, a spline pipeline stage ~5.
    lane_flops: ClassVar[float] = FLOPS_PER_LANE_CYCLE
    #: Whether a written operand may coincide exactly with a read one (an
    #: in-place transform); any other overlap of the two is undefined.
    inplace_exact: ClassVar[bool] = False

    def __init__(self, tiles: int = DEFAULT_TILES,
                 freq_hz: float = DEFAULT_FREQ_HZ):
        if tiles <= 0:
            raise ValueError("tile count must be positive")
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        self.tiles = tiles
        self.freq_hz = freq_hz

    # -- functional side -----------------------------------------------------

    @abstractmethod
    def run(self, space: UnifiedAddressSpace, params) -> None:
        """Execute the operation on physical memory (numerically)."""

    def bind(self, space: UnifiedAddressSpace, params,
             offsets: Mapping[str, Sequence[int]]) -> Callable[[int], None]:
        """This invocation over a run of loop iterations, bound once:
        ``step(i)`` runs ``params`` with every address field in
        ``offsets`` (:func:`offset_columns`) advanced by its ``i``-th
        entry. Cores override it to resolve their operands once."""
        if not offsets:
            return lambda i: self.run(space, params)
        bases = {f: getattr(params, f) for f in offsets}

        def step(i: int) -> None:
            self.run(space, replace(params, **{
                f: bases[f] + column[i] for f, column in offsets.items()}))
        return step

    def run_lattice(self, space: UnifiedAddressSpace, params,
                    strides: Optional["StrideTable"], count: int) -> bool:
        """Run all ``count`` iterations of a one-COMP looped pass at
        once, if that stores the same bytes as :meth:`bind`'s steps run
        in order; return whether it ran. The default declines, and the
        caller then runs the steps."""
        return False

    # -- operands -------------------------------------------------------------

    @abstractmethod
    def operands(self, params) -> Dict[str, Operand]:
        """Every address field's :class:`Operand`, in element sizes of
        the core's own, as :meth:`run` maps them. The fields it reads
        come in the order the call's input buffers are listed."""

    def accumulates(self, params) -> bool:
        """Whether the written operand accumulates (``y += ...``), so
        iterations depositing into one interval form a reduction that a
        LOOP serialises to the serial program's value."""
        return False

    # -- modelling side --------------------------------------------------------

    @abstractmethod
    def profile(self, params) -> OpProfile:
        """Machine-independent characterisation of this invocation."""

    @abstractmethod
    def streams(self, params) -> List[StreamSpec]:
        """Concrete DRAM access streams of this invocation."""

    def footprint_streams(self, params) -> List[StreamSpec]:
        """Every DRAM range this invocation touches, for the datapath
        guard: its timed :meth:`streams` unless a core touches bytes it
        does not time."""
        return self.streams(params)

    def compute_rate(self, freq_hz: Optional[float] = None,
                     tiles: Optional[int] = None) -> float:
        """Peak-achievable flops/second of the deployed lanes."""
        freq = freq_hz if freq_hz is not None else self.freq_hz
        n_tiles = tiles if tiles is not None else self.tiles
        return (n_tiles * self.logic.fpus * self.lane_flops
                * LANE_EFFICIENCY * freq)

    def logic_power(self, freq_hz: Optional[float] = None,
                    activity: float = 1.0,
                    tiles: Optional[int] = None) -> float:
        freq = freq_hz if freq_hz is not None else self.freq_hz
        n_tiles = tiles if tiles is not None else self.tiles
        return n_tiles * self.logic.power(freq, activity)

    def area_mm2(self, tiles: Optional[int] = None) -> float:
        n_tiles = tiles if tiles is not None else self.tiles
        return n_tiles * self.logic.area_mm2

    def model(self, device: MemoryDevice, params,
              freq_hz: Optional[float] = None,
              tiles: Optional[int] = None) -> AccelExecution:
        """Time/energy of one invocation on ``device``.

        The memory side comes from the cycle-level DRAM simulation of
        this invocation's streams; the compute side from the deployed
        lanes. Whichever is slower sets the time. Energy adds DRAM
        energy (extended by static power if compute-bound), activity-
        derated logic power, and the mesh NoC.
        """
        freq = freq_hz if freq_hz is not None else self.freq_hz
        n_tiles = tiles if tiles is not None else self.tiles
        prof = self.profile(params)
        mem = simulate_streams(device, self.streams(params))
        # A tile only drives its own vault's TSV bus: deploying fewer
        # tiles than the device has vaults proportionally limits the
        # reachable bandwidth (a Fig 11 design-space axis).
        mem = device.stretch_for_tiles(mem, n_tiles)
        rate = self.compute_rate(freq, tiles)
        t_compute = prof.flops / rate if prof.flops else 0.0
        time = max(mem.time, t_compute, 1e-12)
        dram_energy = mem.energy
        if time > mem.time:
            dram_energy += device.static_power() * (time - mem.time)
        # lanes clock (and burn) even when bandwidth-starved: these
        # simple cores have no clock gating, so activity stays high
        activity = min(1.0, t_compute / time) if time else 0.0
        logic = self.logic_power(freq, activity=max(activity, 0.8),
                                 tiles=tiles)
        energy = dram_energy + (logic + noc_power()) * time
        return AccelExecution(
            result=ExecResult(time=time, energy=energy),
            mem=mem, t_compute=t_compute, freq_hz=freq)

    # -- datapath footprint ---------------------------------------------------

    def operand_spans(self, params, count: int = 1,
                      strides: Optional["StrideTable"] = None
                      ) -> Tuple[List[Tuple[int, int]],
                                 List[Tuple[int, int]]]:
        """Physical ``(start, size)`` byte extents of this invocation's
        :meth:`footprint_streams`, as ``(reads, writes)``.

        This is the operand footprint the in-datapath ECC layer
        (:class:`~repro.faults.datapath.DatapathEcc`) adjudicates before
        the tiles stream the data off the TSVs. For looped COMPs the
        extents are widened over the whole loop: stream bases are affine
        in the address-typed parameters, so the loop's footprint is
        bracketed by the two corner iterations where every field sits at
        its minimum / maximum accumulated offset.
        """
        def span(stream: StreamSpec) -> Tuple[int, int]:
            if stream.kind == "gather":
                return stream.base, stream.region_bytes
            if stream.kind == "blocked":
                blocks = -(-stream.n_elems // stream.block_elems)
                size = ((blocks - 1) * stream.block_stride
                        + stream.block_elems * stream.elem_bytes)
                return stream.base, size
            step = stream.stride or stream.elem_bytes
            reach = (stream.n_elems - 1) * step
            lo = stream.base + min(0, reach)
            return lo, abs(reach) + stream.elem_bytes

        def live(p) -> List[StreamSpec]:
            return [s for s in self.footprint_streams(p) if s.n_elems > 0]

        def by_direction(spans):
            return ([sp for sp, s in zip(spans, base_streams)
                     if not s.is_write],
                    [sp for sp, s in zip(spans, base_streams) if s.is_write])

        base_streams = live(params)
        spans = [span(s) for s in base_streams]
        if strides is None or not spans:
            return by_direction(spans)
        # a one-level table is linear over the LOOP count, whatever its
        # trip (as offset_columns runs it); a deeper one is bounded by
        # its trips
        trips = ((max(count, 1),) if len(strides.trips) == 1
                 else strides.trips)
        corners = {"lo": {}, "hi": {}}
        for field, deltas in strides.deltas.items():
            lo_off = hi_off = 0
            for trip, delta in zip(trips, deltas):
                reach = delta * (trip - 1)
                lo_off += min(0, reach)
                hi_off += max(0, reach)
            if lo_off:
                corners["lo"][field] = getattr(params, field) + lo_off
            if hi_off:
                corners["hi"][field] = getattr(params, field) + hi_off
        for updates in corners.values():
            if not updates:
                continue
            for idx, s in enumerate(live(replace(params, **updates))):
                start, size = span(s)
                old_start, old_size = spans[idx]
                end = max(old_start + old_size, start + size)
                start = min(old_start, start)
                spans[idx] = (start, end - start)
        return by_direction(spans)


# -- LOOP stride tables -------------------------------------------------------
#
# A COMP inside a LOOP block advances its address-typed parameters between
# iterations. The compiler derives the strides from the (possibly nested)
# OpenMP loop bounds, so the table is mixed-radix: ``trips`` lists the
# nest's trip counts outermost-first, and each address field carries one
# signed delta per nest level. A one-level table with trip 0 means "pure
# linear": offset = delta * iteration, with the count supplied by the
# LOOP instruction. The table is packed behind the parameter record in
# the descriptor's Parameter Region.


@dataclass(frozen=True)
class StrideTable:
    """Mixed-radix per-iteration address advance for looped COMPs."""

    trips: tuple
    deltas: Mapping[str, tuple]

    def __post_init__(self) -> None:
        for field_deltas in self.deltas.values():
            if len(field_deltas) != len(self.trips):
                raise ValueError("delta arity must match trip arity")

    @property
    def total(self) -> int:
        out = 1
        for t in self.trips:
            out *= t
        return out


def linear_strides(params_type: Type,
                   strides: Mapping[str, int]) -> StrideTable:
    """A one-level table: every iteration advances by a fixed delta."""
    for key in strides:
        if key not in params_type.ADDR_FIELDS:
            raise ValueError(f"{key!r} is not an address field of "
                             f"{params_type.__name__}")
    return StrideTable(trips=(0,),
                       deltas={f: (int(strides.get(f, 0)),)
                               for f in params_type.ADDR_FIELDS})


def pack_strides(params_type: Type, strides) -> bytes:
    """Pack a stride table (a mapping means a linear table)."""
    if not isinstance(strides, StrideTable):
        strides = linear_strides(params_type, strides)
    ndims = len(strides.trips)
    out = bytearray(struct.pack("<I", ndims))
    out.extend(struct.pack(f"<{ndims}q", *strides.trips))
    for field in params_type.ADDR_FIELDS:
        deltas = strides.deltas.get(field, (0,) * ndims)
        out.extend(struct.pack(f"<{ndims}q", *deltas))
    return bytes(out)


def unpack_strides(params_type: Type, blob: bytes) -> StrideTable:
    """Inverse of :func:`pack_strides`."""
    (ndims,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    trips = struct.unpack_from(f"<{ndims}q", blob, pos)
    pos += 8 * ndims
    deltas = {}
    for field in params_type.ADDR_FIELDS:
        deltas[field] = struct.unpack_from(f"<{ndims}q", blob, pos)
        pos += 8 * ndims
    return StrideTable(trips=tuple(trips), deltas=deltas)


def loop_lattice(strides: Optional[StrideTable], count: int
                 ) -> Optional[Tuple[Tuple[int, ...], Mapping[str, tuple]]]:
    """The ``count`` iterations as a row-major lattice ``(trips,
    deltas)``: iteration ``i``'s offsets (as :func:`offset_columns`
    gives them) are the deltas dotted with ``i``'s mixed-radix digits
    over ``trips``. A one-level table is linear, so it is the lattice
    ``(count,)``; a deeper one is a lattice only when ``count`` is its
    total (no wrap, no cut). ``None`` when the iterations are no
    lattice, or there are none."""
    if strides is None or count < 1:
        return None
    if len(strides.trips) == 1:
        return (count,), strides.deltas
    if count != strides.total:
        return None
    return tuple(strides.trips), strides.deltas


def offset_columns(strides: Optional[StrideTable],
                   iterations: range) -> Dict[str, List[int]]:
    """Every loop iteration's address offsets, one column per field:
    ``columns[field][k]`` is ``field``'s offset at ``iterations[k]``.

    A one-level table is linear (offset = delta * iteration, whatever
    its trip); a deeper one is mixed-radix, row-major over its trips,
    and wraps once the iteration passes the table's total. Fields that
    never move are left out, so ``None`` strides give no columns. The
    offsets are exact Python ints: a field is summed in int64 only when
    the sum of its ``|delta| * largest digit`` terms, which bounds every
    partial sum, is below ``2**63``, and in Python ints otherwise.
    """
    if strides is None:
        return {}
    index = np.arange(iterations.start, iterations.stop, dtype=np.int64)
    # (digit column, largest digit) per level; None once a level's place
    # value passes the last iteration, where the digit is always 0
    if len(strides.trips) == 1:
        levels = [(index, max(iterations.stop - 1, 0))]
    else:
        levels = []
        place = 1
        for trip in reversed(strides.trips):
            levels.append((index // place % trip, trip - 1)
                          if place < iterations.stop else None)
            place *= trip
        levels.reverse()
    columns = {}
    for field, deltas in strides.deltas.items():
        terms = [(delta, level) for delta, level in zip(deltas, levels)
                 if delta and level is not None]
        if not terms:
            continue
        bound = sum(abs(delta) * top for delta, (_, top) in terms)
        dtype = np.int64 if bound < 1 << 63 else object
        column = np.zeros(len(index), dtype)
        for delta, (digits, _) in terms:
            column += digits.astype(dtype, copy=False) * delta
        columns[field] = column.tolist()
    return columns

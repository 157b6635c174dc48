"""The configuration unit (Figure 5): fetch, decode, dispatch.

When the host writes START into a descriptor's Control Region, the CU's
Fetch Unit pulls the descriptor into instruction memory, and the Decode
Unit walks it pass by pass: it activates the pass's accelerators
(chaining the datapath through tile local memory when a pass holds
several COMPs), runs accelerator initialisation, and triggers
processing. LOOP blocks re-arm the same configuration without host
involvement — the paper's mechanism for collapsing 16M library calls
into one descriptor.

The CU here does double duty, like the rest of the package: it executes
descriptors *functionally* (so results are real and testable) and
*models* their time/energy (aggregating loop iterations into batched
streams, the way the hardware pipeline actually behaves). The two are
kept apart: decode and model are a pure function of one frozen
:class:`ModelInput` (what the schedule cache keys on), and the live
effects around them run once per execution on one path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace as dc_replace
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.accel.base import (AcceleratorCore, StrideTable, offset_columns,
                              unpack_strides)
from repro.accel.layer import AcceleratorLayer
from repro.accel.synthesis import noc_power
from repro.accel.tile import TileFailedError
from repro.checks import check_int
from repro.core.descriptor import (CMD_START, DescriptorError, Instruction,
                                   KIND_ACCEL, KIND_ENDLOOP, KIND_ENDPASS,
                                   KIND_LOOP, decode_control,
                                   decode_instructions, verify_integrity)
from repro.faults.datapath import DatapathEcc
from repro.faults.injector import CuHangError, FaultInjector
from repro.memmgmt.addrspace import UnifiedAddressSpace
from repro.memsys.device import MemoryDevice
from repro.memsys.result import MemResult
from repro.memsys.trace import StreamSpec, simulate_streams
from repro.metrics import ExecResult, ZERO

if TYPE_CHECKING:
    from repro.core.schedule_cache import ScheduleCache
    from repro.thermal.governor import PowerGovernor

#: Fetch-unit base latency for pulling a descriptor into IMEM.
FU_FETCH_LATENCY = 200e-9

#: Descriptor transfer bandwidth over the TSV/interconnect path.
FU_FETCH_BW = 25.6e9

#: One-time pass arming: switch programming + per-accelerator
#: configuration fetch from main memory.
PASS_ARM_TIME = 2e-6

#: Loop re-arm per iteration: one address-generator FSM step. It runs
#: concurrently with processing (one generator per tile), so it enters
#: the pass model as a pipeline stage, not an additive cost.
LOOP_REARM_TIME = 1e-9

#: CU logic power while a descriptor is in flight.
CU_POWER = 0.5


def fetch_charge(descriptor_bytes: int) -> ExecResult:
    """The Fetch Unit's cost of pulling a descriptor image into IMEM.

    It is part of every accelerated execute's returned cost but is
    ledgered under no category (see
    :func:`repro.core.ledger.verify_ledger`).
    """
    time = FU_FETCH_LATENCY + descriptor_bytes / FU_FETCH_BW
    return ExecResult(time=time, energy=time * CU_POWER)


#: Loop iterations whose offsets are computed and bound at a time: a
#: malformed LOOP count (up to 2**32 - 1) keeps the columns bounded.
LOOP_BIND_CHUNK = 1 << 14

#: Exclusive upper bound of a decodable operand address: the memory
#: model's address arithmetic is 64-bit signed.
ADDR_LIMIT = 1 << 63


@dataclass(frozen=True)
class CompInstance:
    """A decoded COMP: accelerator + base params + loop strides."""

    core: AcceleratorCore
    params: object
    strides: Optional[StrideTable] = None


#: A physical ``(start, size)`` byte extent.
Span = Tuple[int, int]


@dataclass(frozen=True)
class PassPlan:
    """A decoded PASS with the loop trip count it executes under, and
    its DRAM operand footprint widened over the loop: the first COMP's
    read spans and the last COMP's write spans (intermediates of a
    chained pass ride the tile local memories)."""

    comps: Tuple[CompInstance, ...]
    count: int
    reads: Tuple[Span, ...]
    writes: Tuple[Span, ...]

    @property
    def chained(self) -> bool:
        return len(self.comps) > 1


class ModelInput(NamedTuple):
    """All one execution's pure model step reads besides the decoded
    plans and the fixed device and mesh: the schedule cache's key.

    Attributes:
        image / base_pa: the fetched descriptor image and its address.
        serving: vaults whose tiles execute the pass, ascending.
        reroutes: ``(vault, serving tile, route hops)`` per degraded
            vault, ascending: the tile its stripe is carried to over
            TSV + mesh, and the adaptive route's current hop count.
        slowdown / throttled: the governor's pass frequency factor and
            the serving vaults under DVFS (1.0 and none when nominal).
        contention: the layer's stretch for the co-running streams
            (1.0 when the execution runs alone).
    """

    image: bytes
    base_pa: int
    serving: Tuple[int, ...]
    reroutes: Tuple[Tuple[int, int, int], ...]
    slowdown: float
    throttled: Tuple[int, ...]
    contention: float


@dataclass
class DescriptorExecution:
    """Outcome of running one descriptor."""

    result: ExecResult
    by_accelerator: Dict[str, ExecResult]
    #: Excess cost per overhead ledger category, keyed exactly when
    #: the execution ran under that category's condition (even if it
    #: priced to ZERO), in ledger order: ``reroute`` (the layer was
    #: degraded; the excess over the healthy cost, inside
    #: :attr:`result`), ``throttle`` (a serving vault was under DVFS;
    #: the lockstep pipeline's stretch priced at static power, added
    #: to :attr:`result`) and ``contention`` (the stack was shared with
    #: ``concurrency - 1`` co-running streams; the drain's time-share
    #: stretch priced at static power and, like scrub, never folded
    #: into :attr:`result` — the serving runtime charges it to request
    #: latency). Empty on a healthy, nominal, solo execution.
    overheads: Dict[str, ExecResult] = field(default_factory=dict)
    #: Vault stripes served by a remote tile.
    rerouted_vaults: int = 0
    #: Per-vault dynamic heat of this execution, J (thermal runs only).
    vault_heat: Optional[Dict[int, float]] = None
    #: Heat deposited on the logic-layer node, J (thermal runs only).
    logic_heat: float = 0.0


def _scaled_stream(stream: StreamSpec, count: int) -> StreamSpec:
    """A loop's iterations concatenate into one long stream: same
    pattern, ``count`` times the elements."""
    if count == 1:
        return stream
    return dc_replace(stream, n_elems=stream.n_elems * count)


def _stream_footprint(stream: StreamSpec) -> int:
    """Byte span one iteration of a stream covers."""
    if stream.kind == "strided" and stream.stride:
        return stream.n_elems * stream.stride
    if stream.kind == "blocked":
        blocks = (stream.n_elems + stream.block_elems - 1
                  ) // stream.block_elems
        return blocks * stream.block_stride
    return stream.n_elems * stream.elem_bytes


def _coalesce_looped_stream(stream: StreamSpec, field_deltas,
                            trips, count: int) -> StreamSpec:
    """Aggregate a per-iteration stream across a LOOP's trips.

    Models what the tile hardware actually does with its local memory
    and address generators, innermost loop level outward:

    * delta 0 — the operand is invariant at this level and stays in
      tile LM (STAP's weight vector across range cells): one read
      serves all trips;
    * a strided stream whose per-trip advance tiles it densely (STAP's
      snapshot columns) — the block is fetched once as a dense region;
    * a per-trip advance equal to the stream's footprint — plain
      concatenation into a longer stream.

    Whatever doesn't match keeps the conservative concatenation model.
    """
    out = stream
    remaining = count
    levels = list(range(len(trips)))[::-1]        # innermost first
    for level in levels:
        trip = trips[level] if trips[level] else count
        if trip <= 1:
            continue
        delta = field_deltas[level]
        if delta == 0:
            remaining //= trip
            continue
        if (out.kind == "strided" and out.stride
                and delta == out.elem_bytes
                and delta * trip == out.stride):
            out = dc_replace(out, kind="seq", stride=0,
                             n_elems=out.n_elems * trip)
            remaining //= trip
            continue
        if delta == _stream_footprint(out) and out.kind in ("seq",
                                                            "strided",
                                                            "blocked"):
            out = dc_replace(out, n_elems=out.n_elems * trip)
            remaining //= trip
            continue
        break
    return _scaled_stream(out, max(remaining, 1))


def _comp_streams_aggregated(comp: "CompInstance",
                             count: int) -> List[StreamSpec]:
    """All streams of a comp, aggregated over its loop trips."""
    streams = comp.core.streams(comp.params)
    if count == 1:
        return streams
    strides = comp.strides
    if strides is None:
        return [_scaled_stream(s, count) for s in streams]
    trips = strides.trips
    base_of = {getattr(comp.params, f): f
               for f in comp.core.params_type.ADDR_FIELDS}
    out = []
    for s in streams:
        field = base_of.get(s.base)
        if field is None:
            out.append(_scaled_stream(s, count))
            continue
        out.append(_coalesce_looped_stream(s, strides.deltas[field],
                                           trips, count))
    return out


def _checked_plan(comps: Tuple[CompInstance, ...], count: int) -> PassPlan:
    """A decoded pass whose every COMP the model can price: its streams
    build, and its operand spans, widened over the loop, stay inside
    ``[0, ADDR_LIMIT)``. Anything else is a malformed descriptor,
    rejected at decode, before any functional effect."""
    footprint = []
    for comp in comps:
        name = comp.core.name
        try:
            reads, writes = comp.core.operand_spans(comp.params, count,
                                                    comp.strides)
        except (ValueError, OverflowError) as exc:
            raise DescriptorError(
                f"{name} parameters build no valid stream: {exc}") from exc
        for start, size in reads + writes:
            if start < 0 or start + size > ADDR_LIMIT:
                raise DescriptorError(
                    f"{name} operand span {start:#x}+{size:#x} leaves the "
                    "physical address range")
        footprint.append((reads, writes))
    return PassPlan(comps=comps, count=count, reads=tuple(footprint[0][0]),
                    writes=tuple(footprint[-1][1]))


class ConfigurationUnit:
    """Fetch Unit + Instruction Memory + Decode Unit."""

    def __init__(self, layer: AcceleratorLayer,
                 space: UnifiedAddressSpace, device: MemoryDevice,
                 faults: Optional[FaultInjector] = None,
                 datapath: Optional[DatapathEcc] = None,
                 governor: Optional["PowerGovernor"] = None,
                 schedule_cache: Optional["ScheduleCache"] = None):
        self.layer = layer
        self.space = space
        self.device = device
        self.noc = layer.noc
        self.faults = faults
        self.datapath = datapath
        # power-envelope governor (repro.thermal): when attached, pass
        # timing stretches for throttled serving vaults and the per-pass
        # heat breakdown is collected for the thermal model; None keeps
        # the execution model byte-identical to a governor-free build
        self.governor = governor
        # descriptor-keyed schedule cache (repro.core.schedule_cache):
        # when attached, repeated descriptors replay their decode +
        # model decomposition bit-identically; None keeps every
        # execution fully simulated
        self.schedule_cache = schedule_cache
        # what the pure model step reads in place of the live layer,
        # mesh and governor: all fixed at construction
        self._tiles = len(layer.tiles)
        self._link_bw = self.noc.link_bw
        self._hop_latency = self.noc.hop_latency
        self._energy_per_byte_hop = self.noc.energy_per_byte_hop
        self._heat = governor is not None

    # -- decode ---------------------------------------------------------------

    def _read_comp(self, instr: Instruction, image: bytes,
                   base_pa: int) -> CompInstance:
        core = self.layer.accelerator(instr.accel_name)
        # params come out of an already-fetched descriptor image
        off = instr.param_addr - base_pa
        if off < 0 or off + instr.param_size > len(image):
            raise DescriptorError(
                f"parameter address {instr.param_addr:#x} outside "
                "the descriptor image")
        blob = image[off:off + instr.param_size]
        strides = None
        base_size = core.params_type.SIZE
        try:
            params = core.params_type.unpack(blob)
            if instr.param_size > base_size:
                strides = unpack_strides(core.params_type,
                                         blob[base_size:])
        except struct.error as exc:
            raise DescriptorError(
                f"malformed {instr.accel_name} parameter record "
                f"({instr.param_size} bytes): {exc}") from exc
        # a one-level (0,) table is the "loop count" convention; every
        # level of a deeper table is a real mixed-radix trip count
        if (strides is not None and len(strides.trips) > 1
                and min(strides.trips) < 1):
            raise DescriptorError(
                f"{instr.accel_name} stride table has a trip below 1: "
                f"{strides.trips}")
        return CompInstance(core=core, params=params, strides=strides)

    def fetch(self, desc_pa: int, desc_bytes: int) -> bytes:
        """Fetch Unit: pull the full descriptor image into IMEM.

        The fetched image passes through the fault injector (command-
        path upsets) and is then integrity-checked against its sealed
        checksum before any of it is dispatched.
        """
        raw = self.space.pa_read(desc_pa, desc_bytes)
        if self.faults is not None:
            raw = self.faults.corrupt_descriptor(raw)
        verify_integrity(raw)
        return raw

    def plans_from_image(self, image: bytes, base_pa: int,
                         require_start: bool = False) -> List[PassPlan]:
        """Decode a complete descriptor image (integrity-checked).

        Used on the fetched IMEM copy, and by the runtime's host-
        fallback path on its golden (host-side) descriptor bytes, where
        the doorbell state is irrelevant (``require_start=False``).
        """
        verify_integrity(image)
        command, n_instr = decode_control(image)
        if require_start and command != CMD_START:
            raise DescriptorError("descriptor command region is not START")
        instructions = decode_instructions(image, n_instr)
        return self._build_plans(instructions, image, base_pa)

    def _build_plans(self, instructions: List[Instruction],
                     image: bytes, base_pa: int) -> List[PassPlan]:
        plans: List[PassPlan] = []
        loop_count = 1
        in_loop = False
        current: List[CompInstance] = []
        loop_passes: List[Tuple[CompInstance, ...]] = []
        for instr in instructions:
            if instr.kind == KIND_LOOP:
                if in_loop:
                    raise DescriptorError("nested LOOP is not supported")
                in_loop = True
                loop_count = instr.param_size
                loop_passes = []
            elif instr.kind == KIND_ACCEL:
                current.append(self._read_comp(instr, image, base_pa))
            elif instr.kind == KIND_ENDPASS:
                if not current:
                    raise DescriptorError("empty PASS in descriptor")
                if in_loop:
                    loop_passes.append(tuple(current))
                else:
                    plans.append(_checked_plan(tuple(current), 1))
                current = []
            elif instr.kind == KIND_ENDLOOP:
                if not in_loop:
                    raise DescriptorError("ENDLOOP without LOOP")
                for comps in loop_passes:
                    plans.append(_checked_plan(comps, loop_count))
                in_loop = False
                loop_count = 1
        if in_loop or current:
            raise DescriptorError("descriptor ends inside a block")
        return plans

    # -- execution --------------------------------------------------------------

    def _guard_datapath(self, plans: Sequence[PassPlan]) -> None:
        """Adjudicate the descriptor's operand footprint through the
        in-datapath SECDED layer before the tiles stream anything.

        Only the DRAM-touching streams are guarded — each plan's
        decoded :attr:`PassPlan.reads`/:attr:`PassPlan.writes`
        (matching :meth:`_pass_mem`). Raises
        :class:`~repro.faults.ecc.UncorrectableEccError` on a detected
        double-bit word, *before* the model and any functional effect,
        so the runtime's retry re-executes a clean descriptor.
        """
        if self.datapath is None:
            return
        self.datapath.guard([s for plan in plans for s in plan.reads],
                            [s for plan in plans for s in plan.writes])

    def run_functional(self, plan: PassPlan) -> None:
        """Numerically execute one pass plan against physical memory.

        Also reused by the runtime's host-fallback path: the host
        performs the same arithmetic the accelerators would have.
        A pass of one COMP is first offered to its core whole
        (:meth:`~repro.accel.base.AcceleratorCore.run_lattice`). Else,
        or if the core declines, each COMP is bound once per
        :data:`LOOP_BIND_CHUNK` iterations (offsets as columns, operands
        resolved by the core), and the iterations then run COMP by COMP
        in order, as the tiles do."""
        if len(plan.comps) == 1 and plan.count <= LOOP_BIND_CHUNK:
            comp = plan.comps[0]
            if comp.core.run_lattice(self.space, comp.params, comp.strides,
                                     plan.count):
                return
        for lo in range(0, plan.count, LOOP_BIND_CHUNK):
            iterations = range(lo, min(lo + LOOP_BIND_CHUNK, plan.count))
            steps = [comp.core.bind(self.space, comp.params,
                                    offset_columns(comp.strides, iterations))
                     for comp in plan.comps]
            for k in range(len(iterations)):
                for step in steps:
                    step(k)

    def _model_pass(self, plan: PassPlan, inp: ModelInput
                    ) -> Tuple[ExecResult, ExecResult, Dict[str, object]]:
        """Time/energy of one pass plan (loop iterations aggregated).

        Returns ``(result, reroute overhead, heat breakdown)``. When the
        layer is degraded (``inp`` has reroutes), ``result`` is the
        degraded cost and the overhead is its excess over the
        hypothetical healthy cost (what the ``reroute`` ledger category
        accounts). On a healthy layer the overhead is exactly
        :data:`~repro.metrics.ZERO` and the model is bit-identical to
        the undegraded one. The heat breakdown (of the *actual* run,
        degraded or not) is what the thermal model consumes; it is a
        pure decomposition of the result's energy.

        The degraded run and its healthy baseline drain the same DRAM
        streams, so the memory system is simulated once and both are
        priced from that one :class:`MemResult`.
        """
        mem = self._pass_mem(plan)
        if not inp.reroutes:
            result, heat = self._pass_terms(plan, mem, self._tiles, ())
            return result, ZERO, heat
        result, heat = self._pass_terms(plan, mem, len(inp.serving),
                                        inp.reroutes)
        clean, _ = self._pass_terms(plan, mem, self._tiles, ())
        overhead = ExecResult(max(0.0, result.time - clean.time),
                              max(0.0, result.energy - clean.energy))
        return result, overhead, heat

    def _static_stretch(self, duration: float,
                        excess: float) -> ExecResult:
        """A pass drain of ``duration`` stretched by ``excess`` times
        itself. Dynamic joules are unchanged; the extra residency is
        priced at the device's static power (DVFS throttle and
        vault-bandwidth contention share this convention)."""
        stretch = duration * excess
        return ExecResult(time=stretch,
                          energy=self.device.static_power() * stretch)

    def _pass_mem(self, plan: PassPlan) -> MemResult:
        """The memory-system drain of one pass on the healthy device.

        For a chained pass only the first COMP's input streams and the
        last COMP's output streams touch DRAM; intermediates ride the
        tile local memories and the NoC.
        """
        first, last = plan.comps[0], plan.comps[-1]
        streams: List[StreamSpec] = []
        streams.extend(s for s in
                       _comp_streams_aggregated(first, plan.count)
                       if not s.is_write)
        streams.extend(s for s in
                       _comp_streams_aggregated(last, plan.count)
                       if s.is_write)
        return simulate_streams(self.device, streams)

    def _pass_terms(self, plan: PassPlan, mem: MemResult, n_serve: int,
                    reroutes: Sequence[Tuple[int, int, int]]
                    ) -> Tuple[ExecResult, Dict[str, object]]:
        """One pass's cost on ``n_serve`` tiles with ``reroutes`` vault
        stripes carried over the mesh, given its healthy drain ``mem``
        (:meth:`_pass_mem`).

        A rerouted vault's stripe (its 1/16th of the DRAM traffic)
        additionally crosses the mesh to its serving tile: transfers to
        distinct serving tiles proceed in parallel, stripes converging
        on one tile serialise on its link, and the slowest group enters
        the pass pipeline as one more concurrent stage. Fewer serving
        tiles also stretch the DRAM time (each tile drives only its own
        vault's TSV bus) and shrink the deployed compute lanes.
        """
        mem = self.device.stretch_for_tiles(mem, n_serve)
        compute_times = {}
        for comp in plan.comps:
            prof = comp.core.profile(comp.params)
            compute_times[comp.core.name] = (
                plan.count * prof.flops
                / comp.core.compute_rate(tiles=n_serve)
                if prof.flops else 0.0)
        t_compute = max(compute_times.values()) if compute_times else 0.0
        t_noc = 0.0
        if plan.chained:
            first = plan.comps[0]
            inter_bytes = plan.count * sum(
                s.total_bytes for s in first.core.streams(first.params)
                if s.is_write)
            t_noc = inter_bytes / (n_serve * self._link_bw)
        t_ctrl = plan.count * LOOP_REARM_TIME / n_serve
        t_reroute, e_reroute, e_by_server = self._reroute_terms(
            mem.bytes_moved, reroutes)
        time = (max(mem.time, t_compute, t_noc, t_ctrl, t_reroute)
                + PASS_ARM_TIME)
        # heat buckets (a pure decomposition of the energy accumulated
        # below): DRAM joules land on the vault nodes, tile logic on
        # the serving vaults, NoC + CU on the logic-layer node, and
        # rerouted-stripe transport on the carrying server vaults
        energy = mem.energy
        heat_dram = mem.energy
        if time > mem.time:
            e_static = self.device.static_power() * (time - mem.time)
            energy += e_static
            heat_dram += e_static
        heat_tiles = 0.0
        for comp in plan.comps:
            activity = min(
                1.0, compute_times[comp.core.name] / time if time else 0.0)
            e_logic = comp.core.logic_power(
                activity=max(activity, 0.25), tiles=n_serve) * time
            energy += e_logic
            heat_tiles += e_logic
        heat_logic = (noc_power() + CU_POWER) * time
        energy += (noc_power() + CU_POWER) * time + e_reroute
        heat = {"dram": heat_dram, "tiles": heat_tiles,
                "logic": heat_logic, "reroute": e_by_server}
        return ExecResult(time=time, energy=energy), heat

    def _reroute_terms(self, bytes_moved: float,
                       reroutes: Sequence[Tuple[int, int, int]]
                       ) -> Tuple[float, float, Dict[int, float]]:
        """Mesh transport cost of the rerouted vault stripes
        (:attr:`ModelInput.reroutes`).

        Returns ``(time, energy, energy by serving tile)`` — the
        per-server split feeds the thermal model (the carrying tile's
        vault takes the transport heat)."""
        if not reroutes:
            return 0.0, 0.0, {}
        stripe = bytes_moved / self.device.units
        by_server: Dict[int, List[int]] = {}
        for _, server, hops in reroutes:
            by_server.setdefault(server, []).append(hops)
        t_reroute = max(max(hops) * self._hop_latency
                        + stripe * len(hops) / self._link_bw
                        for hops in by_server.values())
        # summed in ascending vault order per server, servers in order
        # of first appearance: the energies stay bit-identical
        e_by_server = {server: sum(h * stripe * self._energy_per_byte_hop
                                   for h in hops)
                       for server, hops in by_server.items()}
        return t_reroute, sum(e_by_server.values()), e_by_server

    def _inject_structural_faults(self) -> Optional[Tuple[int, int]]:
        """Apply this execution's injected tile/link faults.

        Returns the link flapped for just this execution (to restore
        afterwards), if any. Raises :class:`CuHangError` when the
        doorbell draw hangs the CU.
        """
        draw = self.faults.sample_tile_failure()
        if draw is not None:
            healthy = sorted(v for v, t in self.layer.tiles.items()
                             if not t.failed)
            if healthy:
                self.layer.mark_tile_failed(healthy[draw % len(healthy)])
        draw = self.faults.sample_link_failure()
        if draw is not None:
            links = self.noc.healthy_links()
            if links:
                self.noc.fail_link(*links[draw % len(links)])
        flapped: Optional[Tuple[int, int]] = None
        draw = self.faults.sample_link_flap()
        if draw is not None:
            links = self.noc.healthy_links()
            if links:
                flapped = links[draw % len(links)]
                self.noc.fail_link(*flapped)
        return flapped

    def _degradation(self) -> Tuple[Tuple[int, ...],
                                     Tuple[Tuple[int, int, int], ...]]:
        """The current :attr:`ModelInput.serving` and
        :attr:`ModelInput.reroutes`, or raise :class:`TileFailedError`
        when no accelerated execution is possible (every tile dead, or
        a vault unreachable)."""
        serving = tuple(self.layer.serving_tiles())
        if not serving:
            raise TileFailedError(
                f"tiles on vaults {self.layer.failed_tiles()} are all "
                "failed; no tile can serve the descriptor")
        if len(serving) == self._tiles:
            return serving, ()
        reroutes = self.layer.reroute_map()
        unreachable = sorted(v for v, s in reroutes.items() if s is None)
        if unreachable:
            raise TileFailedError(
                f"no serving tile can reach vaults {unreachable} over "
                f"the degraded mesh (failed links: "
                f"{sorted(self.noc.failed_links)})")
        hops: Dict[int, int] = {}
        for server in set(reroutes.values()):
            # batch hop kernel (vectorized XY when the mesh is healthy)
            vaults = [v for v, s in reroutes.items() if s == server]
            hops.update(zip(vaults, self.noc.route_hops_batch(
                vaults, server).tolist()))
        return serving, tuple((v, s, hops[v]) for v, s in reroutes.items())

    def _model(self, plans: Sequence[PassPlan],
               inp: ModelInput) -> DescriptorExecution:
        """The pure model step: decoded plans -> execution record.

        Prices every pass, the reroute, throttle and contention
        stretches, the fetch overhead and (with a governor) the heat
        terms from ``inp`` and the fixed device and geometry alone, so
        the record is exactly what the schedule cache may store under
        ``inp``.
        """
        total = fetch_charge(len(inp.image))
        by_accel: Dict[str, ExecResult] = {}
        rerouted = len(inp.reroutes)
        # vault-bandwidth contention: co-running descriptor streams
        # time-share every vault's TSV bus, so each pass's drain
        # stretches by the layer's slowdown factor (1.0 when alone)
        contend = inp.contention
        overheads: Dict[str, ExecResult] = {}
        if rerouted:
            overheads["reroute"] = ZERO
        if inp.throttled:
            overheads["throttle"] = ZERO
        if contend > 1.0:
            overheads["contention"] = ZERO
        vault_heat: Optional[Dict[int, float]] = None
        logic_heat = 0.0
        if self._heat:
            vault_heat = {v: 0.0 for v in range(self.device.units)}
            logic_heat = total.energy
        for plan in plans:
            pass_result, overhead, heat = self._model_pass(plan, inp)
            throttle_ov = ZERO
            if inp.slowdown < 1.0:
                # frequency-only DVFS: the lockstep drain runs at the
                # slowest serving vault's clock
                throttle_ov = self._static_stretch(
                    pass_result.time, 1.0 / inp.slowdown - 1.0)
            contention_ov = ZERO
            if contend > 1.0:
                # time-shared vault bandwidth: the pass drain takes
                # `contend` times its solo duration. The stretch is
                # ledgered but never added to the returned result: the
                # solo decomposition stays bit-identical whatever the
                # admission width
                contention_ov = self._static_stretch(
                    pass_result.time, contend - 1.0)
            total = total.plus(pass_result).plus(throttle_ov)
            pass_overheads = {"reroute": overhead,
                              "throttle": throttle_ov,
                              "contention": contention_ov}
            for category, acc in overheads.items():
                overheads[category] = acc.plus(pass_overheads[category])
            # attribute the healthy-equivalent share of the pass to its
            # accelerators; the degradation excess is reported
            # separately so the reroute ledger can carry it (and the
            # throttle excess likewise for the throttle category)
            base = ExecResult(pass_result.time - overhead.time,
                              pass_result.energy - overhead.energy)
            share = base.time / max(len(plan.comps), 1)
            for comp in plan.comps:
                prev = by_accel.get(comp.core.name, ZERO)
                frac = ExecResult(time=share,
                                  energy=base.energy / len(plan.comps))
                by_accel[comp.core.name] = prev.plus(frac)
            if vault_heat is not None:
                units = self.device.units
                # DRAM joules interleave over every vault; tile logic
                # heats the serving vaults; NoC + CU heat the logic
                # node; rerouted stripes heat their carriers
                per_vault = heat["dram"] / units
                for v in vault_heat:
                    vault_heat[v] += per_vault
                per_tile = heat["tiles"] / len(inp.serving)
                for v in inp.serving:
                    vault_heat[v] += per_tile
                logic_heat += heat["logic"]
                for server, e_srv in heat["reroute"].items():
                    vault_heat[server] += e_srv
                # the throttle and contention stretches are DRAM static
                # burn: they spread over every vault
                for stretch_ov in (throttle_ov, contention_ov):
                    if stretch_ov.energy > 0.0:
                        per_vault = stretch_ov.energy / units
                        for v in vault_heat:
                            vault_heat[v] += per_vault
        return DescriptorExecution(
            result=total, by_accelerator=by_accel, overheads=overheads,
            rerouted_vaults=rerouted, vault_heat=vault_heat,
            logic_heat=logic_heat)

    def run_descriptor(self, desc_pa: int, desc_bytes: int,
                       functional: bool = True,
                       concurrency: int = 1) -> DescriptorExecution:
        """Execute a descriptor: functional effects + time/energy.

        One path for every call: structural fault sampling, the
        doorbell, the degradation state, fetch and the governor's DVFS
        sample; then decode, the datapath SECDED guard, the pure model
        step (:meth:`_model`) on the :class:`ModelInput` read off the
        layer and governor, the functional run of every plan and the
        throttle bookkeeping. A schedule-cache hit on that input
        supplies the decoded plans and the modelled record and skips
        only decode and model; the guard runs before the model, so a
        retry it forces never models twice.

        A dead tile (or a mesh-isolated one) no longer aborts the
        execution: its vault's data stripe is rerouted over TSV + mesh
        to the surviving tiles and the pass runs degraded, with the
        detour's bandwidth/energy cost reported under ``reroute`` in
        :attr:`DescriptorExecution.overheads`. Raises
        :class:`TileFailedError` only when *no* tile can serve the
        descriptor (all dead, or a vault cut off by link failures),
        :class:`CuHangError` when an injected hang eats the doorbell,
        and :class:`DescriptorError`/:class:`DescriptorIntegrityError`
        when the fetched descriptor image fails validation.

        ``concurrency`` is the number of descriptor streams sharing
        the stack while this one runs (the serving runtime's admission
        width). Each pass's drain stretches by the layer's
        :meth:`~repro.accel.layer.AcceleratorLayer.contention_slowdown`
        and the stretch is priced at static power under ``contention``
        in :attr:`DescriptorExecution.overheads` — the nominal
        decomposition (accelerator shares, reroute, throttle) is never
        repriced, so ``concurrency=1`` is bit-identical to a build
        that predates the knob. It must be an int of at least 1: a
        float or ``bool`` raises :class:`TypeError` and a smaller int
        :class:`ValueError`, both naming the field, before any effect.
        """
        check_int("concurrency", concurrency, 1)
        flapped: Optional[Tuple[int, int]] = None
        if self.faults is not None:
            flapped = self._inject_structural_faults()
        try:
            if self.faults is not None and self.faults.sample_hang():
                raise CuHangError(
                    "configuration unit did not acknowledge the doorbell")
            serving, reroutes = self._degradation()
            image = self.fetch(desc_pa, desc_bytes)
            # DVFS state is sampled once per execution: the governor is
            # only re-polled by the runtime after the thermal step
            slowdown = 1.0
            throttled: Tuple[int, ...] = ()
            if self.governor is not None:
                slowdown = self.governor.pass_slowdown(serving)
                throttled = tuple(self.governor.throttled_vaults(serving))
            inp = ModelInput(image, desc_pa, serving, reroutes, slowdown,
                             throttled,
                             self.layer.contention_slowdown(concurrency))
            cache = self.schedule_cache
            cached = cache.lookup(inp) if cache is not None else None
            execution: Optional[DescriptorExecution] = None
            if cached is not None:
                plans, execution = cached
            else:
                plans = self.plans_from_image(image, desc_pa,
                                              require_start=True)
            self._guard_datapath(plans)
            if execution is None:
                execution = self._model(plans, inp)
                if cache is not None:
                    cache.store(inp, plans, execution)
            if functional:
                for plan in plans:
                    self.run_functional(plan)
            stretch = execution.overheads.get("throttle", ZERO).time
            if stretch > 0.0:
                self.governor.stats.note_throttled(stretch, throttled)
            return execution
        finally:
            if flapped is not None:
                self.noc.restore_link(*flapped)

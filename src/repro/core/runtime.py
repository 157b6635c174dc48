"""MEALib runtime routines (Listing 2 of the paper).

Two families, both backed by the device driver:

* memory management — ``mealib_mem_alloc`` / ``mealib_mem_free``
  allocate physically contiguous, virtually mapped buffers in the data
  space (the compiler substitutes these for malloc/free);
* accelerator control — ``mealib_acc_plan`` lowers a TDL string into an
  accelerator descriptor in the command space, ``mealib_acc_execute``
  flushes caches, rings the doorbell and lets the configuration unit
  run it (functionally and in the timing model), and
  ``mealib_acc_destroy`` releases the descriptor slot.

Plans are reusable: one ``acc_plan``, many ``acc_execute`` — the
software-loop baseline of Fig 12b does exactly that.

``acc_execute`` is *hardened*: a watchdog bounds how long a hung
configuration unit can stall the host, detected faults (corrupted
descriptors, uncorrectable ECC errors, CU hangs) trigger bounded
retries with exponential backoff — re-writing the descriptor from the
host's golden copy and re-ringing the doorbell at the cheaper
warm-retry cost (the setup work of the first delivery is not repeated).
Dead or mesh-isolated accelerator tiles degrade *partially*: the
affected vault's data stripe is rerouted over TSV + mesh to the
surviving tiles (the excess lands in the ``reroute`` ledger category),
and only when no tile at all can serve the descriptor — every tile
dead, or a vault cut off by NoC link failures — does execution degrade
to the host's equivalent ``repro.mkl`` profiles. The call always
returns a numerically correct result. Latent cell flips on the
accelerators' direct-TSV datapath are adjudicated by an in-datapath
SECDED layer at operand fetch, and a background patrol scrubber can
drain them between executes before singles pair into uncorrectable
words. Resilience costs are accounted in dedicated ledger categories
(``fault``, ``retry``, ``fallback``, ``reroute``, ``scrub``); none of
them appear when no fault occurs, so the fault-free path is
bit-for-bit and joule-for-joule identical to the unhardened runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.accel.tile import TileFailedError
from repro.checks import check_int, check_real
from repro.core.config_unit import ConfigurationUnit
from repro.core.descriptor import (CMD_IDLE, CMD_START, COMMAND_OFFSET,
                                   DescriptorError,
                                   DescriptorIntegrityError,
                                   EncodedDescriptor, command_word, encode,
                                   encoded_size, set_command)
from repro.core.invocation import InvocationModel
from repro.core.ledger import REGISTRY, Ledger
from repro.core.tdl import ParamStore, TdlProgram, parse_tdl
from repro.faults.datapath import DatapathEcc
from repro.faults.ecc import UncorrectableEccError
from repro.faults.injector import CuHangError, FaultInjector
from repro.faults.scrub import PatrolScrubber
from repro.memmgmt.addrspace import MappedBuffer, UnifiedAddressSpace
from repro.memmgmt.allocator import ContiguousAllocator
from repro.metrics import ExecResult, ZERO

if TYPE_CHECKING:
    import numpy as np

    from repro.thermal.governor import PowerGovernor
    from repro.thermal.rc import ThermalModel


class MealibRuntimeError(Exception):
    """Raised on invalid runtime usage (destroyed plans, bad sizes) and
    on unrecoverable execution failures when host fallback is off."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the hardened ``acc_execute`` path.

    Attributes:
        max_retries: bounded retry budget per execute (after the first
            attempt) before degrading to host execution.
        watchdog_timeout: host-side watchdog on the doorbell, seconds;
            charged to the ``fault`` ledger when a hang trips it.
        backoff_base: first retry's backoff delay, seconds.
        backoff_factor: exponential growth of the backoff delay.
        host_fallback: degrade to the host ``repro.mkl`` profile when
            no tile can serve the descriptor or retries are exhausted;
            when False, such failures raise
            :class:`MealibRuntimeError` instead.
    """

    max_retries: int = 3
    watchdog_timeout: float = 100e-6
    backoff_base: float = 5e-6
    backoff_factor: float = 2.0
    host_fallback: bool = True

    def __post_init__(self) -> None:
        check_int("max_retries", self.max_retries, 0)
        for name in ("watchdog_timeout", "backoff_base", "backoff_factor"):
            check_real(name, getattr(self, name), least=0.0)
        if not isinstance(self.host_fallback, bool):
            raise TypeError("host_fallback must be a bool, got "
                            f"{type(self.host_fallback).__name__}")

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass
class ResilienceCounters:
    """How often the hardened path had to intervene."""

    executes: int = 0
    retries: int = 0
    watchdog_expiries: int = 0
    fallbacks: int = 0
    ecc_corrections: int = 0
    degraded_executes: int = 0
    rerouted_stripes: int = 0
    scrub_passes: int = 0
    throttled_executes: int = 0
    contended_executes: int = 0     # ran sharing the stack (serving)

    @property
    def availability(self) -> float:
        """Fraction of executes served by the accelerated path
        (degraded executes still count as available — they ran on the
        accelerators, just with rerouted vault stripes)."""
        if not self.executes:
            return 1.0
        return 1.0 - self.fallbacks / self.executes

    @property
    def degraded_fraction(self) -> float:
        """Fraction of executes that ran accelerated but degraded."""
        if not self.executes:
            return 0.0
        return self.degraded_executes / self.executes


@dataclass
class AccPlan:
    """The ``acc_plan`` handle: a lowered descriptor plus bookkeeping."""

    program: TdlProgram
    descriptor: EncodedDescriptor
    working_set_bytes: int
    destroyed: bool = False
    executions: int = 0


def _fault_label(exc: Exception) -> str:
    """Ledger label for one detected fault."""
    if isinstance(exc, CuHangError):
        return "cu-hang"
    if isinstance(exc, UncorrectableEccError):
        return "ecc-uncorrectable"
    if isinstance(exc, DescriptorIntegrityError):
        return "descriptor-integrity"
    if isinstance(exc, DescriptorError):
        return "descriptor-invalid"
    return "tile-failure"


class MealibRuntime:
    """The runtime library a translated program links against."""

    def __init__(self, space: UnifiedAddressSpace,
                 config_unit: ConfigurationUnit,
                 host=None,
                 faults: Optional[FaultInjector] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 datapath: Optional[DatapathEcc] = None,
                 scrubber: Optional[PatrolScrubber] = None,
                 thermal: Optional["ThermalModel"] = None,
                 governor: Optional["PowerGovernor"] = None,
                 vault_of: Optional[
                     Callable[[np.ndarray], np.ndarray]] = None):
        self.space = space
        self.cu = config_unit
        self.invocation = InvocationModel()
        self.host = host                  # CpuModel for degraded execution
        self.faults = faults
        self.datapath = datapath
        self.scrubber = scrubber
        # thermal loop (repro.thermal): the RC model is advanced with
        # each step's attributed heat and the governor re-polled after;
        # vault_of maps physical byte addresses to their vaults for the
        # Arrhenius-thinned latent deposits. All None ⇒ byte-identical
        # to a thermal-free runtime.
        self.thermal = thermal
        self.governor = governor
        self.vault_of = vault_of
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.counters = ResilienceCounters()
        self.ledger = Ledger()
        # descriptor slots live in the command space, after a small
        # reserved header page
        self._command_alloc = ContiguousAllocator(
            base=space.command_pa + 256,
            size=space.command_bytes - 256)

    # -- memory management (mealib_mem_alloc / mealib_mem_free) -------------

    def mem_alloc(self, size: int) -> MappedBuffer:
        return self.space.alloc(size)

    def mem_free(self, buffer: MappedBuffer) -> None:
        self.space.free(buffer)

    # -- accelerator control (mealib_acc_plan / execute / destroy) -----------

    def acc_plan(self, tdl: Union[str, TdlProgram], params: ParamStore,
                 in_size: int, out_size: int) -> AccPlan:
        """Lower TDL text, or a program tree, into a descriptor in the
        command space.

        ``in_size``/``out_size`` describe the I/O buffers (the Listing 2
        signature) and size the coherence flush at execute time.
        """
        for name, size in (("in_size", in_size), ("out_size", out_size)):
            check_int(name, size)
            if size < 0:
                raise MealibRuntimeError(
                    f"{name} must be non-negative, got {size}")
        program = parse_tdl(tdl) if isinstance(tdl, str) else tdl
        slot = self._command_alloc.alloc(encoded_size(program, params),
                                         align=64)
        try:
            descriptor = encode(program, params, base_pa=slot)
            self.space.pa_write(slot, descriptor.data)
        except Exception:
            # don't leak the command-space slot on a failed lowering
            self._command_alloc.free(slot)
            raise
        return AccPlan(program=program, descriptor=descriptor,
                       working_set_bytes=in_size + out_size)

    def acc_execute(self, plan: AccPlan,
                    functional: bool = True,
                    concurrency: int = 1) -> ExecResult:
        """Invoke the accelerators described by ``plan``.

        Charges the host-side invocation overhead (wbinvd, descriptor
        store, doorbell), writes START into the CR, and hands control to
        the configuration unit. Detected faults are retried under
        :attr:`policy`; dead tiles or exhausted retries degrade to host
        execution. Returns the end-to-end cost including any resilience
        overhead; details are accumulated in :attr:`ledger`.

        ``concurrency`` tells the configuration unit how many
        descriptor streams share the stack while this one runs (the
        serving runtime's admission width): the vault-bandwidth
        time-share stretch lands in the ``contention`` ledger
        category. The default (1, a solo stream) is bit-identical to a
        runtime without the knob.
        """
        check_int("concurrency", concurrency, 1)
        if plan.destroyed:
            raise MealibRuntimeError("acc_execute on a destroyed plan")
        overhead = self.invocation.total(plan.descriptor.size,
                                         plan.working_set_bytes)
        self.ledger.log("invocation", "invocation", overhead)
        self.counters.executes += 1
        # one step's worth of latent cell upsets lands before the step
        # runs, outside the retry loop: deposits draw from a dedicated
        # PRNG stream, so the campaign's flip placement is identical
        # whatever the scrub policy or retry count
        if self.faults is not None and self.datapath is not None:
            if self.thermal is not None:
                # Arrhenius coupling: hotter vaults accept more of the
                # (seed-stable) capped candidate stream
                self.faults.deposit_latent_flips(
                    self.datapath.phys.regions(),
                    factors=self.thermal.arrhenius_factors(),
                    cap=self.thermal.config.arrhenius_cap,
                    vault_of=self.vault_of)
            else:
                self.faults.deposit_latent_flips(
                    self.datapath.phys.regions())
        try:
            return self._execute_hardened(plan, functional, overhead,
                                          concurrency)
        finally:
            self._scrub_tick()

    def _execute_hardened(self, plan: AccPlan, functional: bool,
                          overhead: ExecResult,
                          concurrency: int = 1) -> ExecResult:
        total = overhead
        attempt = 0
        while True:
            # (re-)deliver the golden descriptor image and ring START:
            # this is also what repairs in-DRAM descriptor corruption
            self._write_descriptor(plan)
            try:
                execution = self.cu.run_descriptor(
                    plan.descriptor.base_pa, plan.descriptor.size,
                    functional=functional, concurrency=concurrency)
            except (TileFailedError, DescriptorError,
                    UncorrectableEccError, CuHangError) as exc:
                # no tile can serve: straight to the host; a detected
                # fault: retry until the budget is spent
                self._ring_idle(plan)
                total = total.plus(self._drain_correction_costs())
                total = total.plus(self._account_fault(exc))
                if (isinstance(exc, TileFailedError)
                        or attempt >= self.policy.max_retries):
                    fallback = self._degrade_to_host(plan, functional, exc)
                    plan.executions += 1
                    return total.plus(fallback)
                attempt += 1
                total = total.plus(self._account_retry(plan, attempt))
            else:
                self._ring_idle(plan)
                total = total.plus(self._drain_correction_costs())
                for accel_name, share in execution.by_accelerator.items():
                    self.ledger.log("accelerator", accel_name, share)
                counters = self.counters
                counters.rerouted_stripes += execution.rerouted_vaults
                for category, cost in execution.overheads.items():
                    spec = REGISTRY[category]
                    setattr(counters, spec.counter,
                            getattr(counters, spec.counter) + 1)
                    self.ledger.log(category, spec.overhead_label, cost)
                self._thermal_step(execution)
                plan.executions += 1
                return total.plus(execution.result)

    def acc_destroy(self, plan: AccPlan) -> None:
        if plan.destroyed:
            raise MealibRuntimeError("plan already destroyed")
        self._command_alloc.free(plan.descriptor.base_pa)
        plan.destroyed = True

    # -- hardened-execution internals ----------------------------------------

    def _write_descriptor(self, plan: AccPlan) -> None:
        """Store the full golden descriptor image with START in its CR
        (descriptor delivery + doorbell)."""
        buf = bytearray(plan.descriptor.data)
        set_command(buf, CMD_START)
        self.space.pa_write(plan.descriptor.base_pa, bytes(buf))

    def _ring_idle(self, plan: AccPlan) -> None:
        """Return the CR to IDLE: only the command word changes; the
        next START delivers the whole image again."""
        self.space.pa_write(plan.descriptor.base_pa + COMMAND_OFFSET,
                            command_word(CMD_IDLE))

    def _drain_correction_costs(self) -> ExecResult:
        """Charge ECC costs accumulated since the last drain to the
        ``fault`` ledger: correct-and-writeback events (per-read model,
        datapath layer and patrol repairs alike) plus the datapath
        layer's re-decode drain of dirty codewords."""
        total = ZERO
        if self.faults is not None:
            cost, corrections = self.faults.drain_correction_cost()
            if corrections:
                self.counters.ecc_corrections += corrections
                self.ledger.log("fault", "ecc-correction", cost)
                total = total.plus(cost)
        if self.datapath is not None:
            stream = self.datapath.drain_stream_overhead()
            if stream.time or stream.energy:
                self.ledger.log("fault", "ecc-stream", stream)
                total = total.plus(stream)
        return total

    def _scrub_tick(self) -> None:
        """Account one completed execute with the patrol scrubber.

        A due patrol runs between steps and its cost is ledgered under
        ``scrub`` — background maintenance, never part of the execute's
        returned cost. Inert (and free) without a scrubber or with
        ``interval=0``, preserving the golden baselines.
        """
        if self.scrubber is None:
            return
        cost = self.scrubber.tick()
        if cost is not None:
            self.counters.scrub_passes += 1
            self.ledger.log("scrub", "patrol", cost)
            if self.thermal is not None and cost.time > 0.0:
                # the patrol is a thermal actor too: its streaming and
                # correction joules heat the vaults it walked
                heat = self.scrubber.last_vault_energy
                vault_power = [heat.get(v, 0.0) / cost.time
                               for v in range(self.thermal.vaults)]
                self.thermal.advance(cost.time, vault_power)
                if self.governor is not None:
                    self.governor.poll()

    def _thermal_step(self, execution) -> None:
        """Advance the RC network by one accelerated execute's heat and
        re-poll the envelope governor. Inert without a thermal model."""
        if self.thermal is None:
            return
        duration = execution.result.time
        if duration > 0.0:
            if execution.vault_heat is not None:
                vault_power = [
                    execution.vault_heat.get(v, 0.0) / duration
                    for v in range(self.thermal.vaults)]
                self.thermal.advance(duration, vault_power,
                                     execution.logic_heat / duration)
            else:
                self.thermal.advance(duration)
        if self.governor is not None:
            self.governor.poll()

    def _thermal_idle(self, duration: float) -> None:
        """Advance the RC network with the stack idle (host fallback
        runs deposit no heat on the vaults — they just cool)."""
        if self.thermal is None or duration <= 0.0:
            return
        self.thermal.advance(duration)
        if self.governor is not None:
            self.governor.poll()

    def _account_fault(self, exc: Exception) -> ExecResult:
        """Ledger one detected fault; hangs pay the watchdog timeout."""
        if isinstance(exc, CuHangError):
            self.counters.watchdog_expiries += 1
            t = self.policy.watchdog_timeout
            penalty = ExecResult(time=t,
                                 energy=t * self.invocation.host_power)
        else:
            penalty = ZERO                 # detection itself is in-line
        self.ledger.log("fault", _fault_label(exc), penalty)
        return penalty

    def _account_retry(self, plan: AccPlan, attempt: int) -> ExecResult:
        """Cost of one retry: backoff wait + *warm* descriptor
        re-delivery + a fresh doorbell.

        A re-ring after an in-DRAM repair does not repeat the cold
        invocation's setup (runtime bookkeeping, fences, translation
        are already done); it pays only the calibrated warm-retry
        overhead, which is strictly cheaper than the cold descriptor
        delivery."""
        self.counters.retries += 1
        backoff = self.policy.backoff(attempt)
        cost = ExecResult(time=backoff,
                          energy=backoff * self.invocation.host_power)
        cost = cost.plus(
            self.invocation.warm_retry_cost(plan.descriptor.size))
        cost = cost.plus(self.invocation.doorbell_cost())
        self.ledger.log("retry", f"attempt-{attempt}", cost)
        return cost

    def _host_model(self):
        if self.host is None:
            from repro.host.platforms import haswell
            self.host = haswell()
        return self.host

    def _degrade_to_host(self, plan: AccPlan, functional: bool,
                         cause: Exception) -> ExecResult:
        """Execute the plan's work on the host CPU (graceful fallback).

        Decodes the *golden* (host-side) descriptor bytes — DRAM state
        is untrusted at this point — runs the same numerics the
        accelerators would have, and charges each COMP's ``repro.mkl``
        profile on the host model under the ``fallback`` category.
        """
        if not self.policy.host_fallback:
            raise MealibRuntimeError(
                f"accelerated execution failed without fallback: "
                f"{cause}") from cause
        self.counters.fallbacks += 1
        host = self._host_model()
        plans = self.cu.plans_from_image(plan.descriptor.data,
                                         plan.descriptor.base_pa)
        cost = ZERO
        for p in plans:
            if functional:
                self.cu.run_functional(p)
            for comp in p.comps:
                profile = comp.core.profile(comp.params)
                share = host.run_profile(profile).repeated(p.count)
                self.ledger.log("fallback", comp.core.name, share)
                cost = cost.plus(share)
        self._thermal_idle(cost.time)
        return cost

    # -- host-side accounting ---------------------------------------------

    def log_host(self, label: str, result: ExecResult) -> None:
        """Record host-executed (compute-bounded) library work."""
        self.ledger.log("host", label, result)

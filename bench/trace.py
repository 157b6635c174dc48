"""Span tracer that wraps each layer's entry points from outside.

:class:`Tracer` replaces the functions in :data:`PATCHES` with wrappers
that record a span (name, start, end, parent, op id) in memory. Nothing
in the program changes; the wrappers are installed for the traced phase
only and removed afterwards. A layer's *self time* is its spans'
duration minus the time covered by their child spans. Spans are written
out at the end as Chrome trace-event JSON (stdlib only), which Perfetto
and ``chrome://tracing`` open.

Some callers import a function by name, so a function is also patched
in every module listed as a call site.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: Span: (id, layer, start, end, parent id or -1, op id)
Span = Tuple[int, str, float, float, int, int]

OP = "bench.op"
TRACER = "bench.tracer"


def _streams_probe(tracer: "Tracer", args, kwargs) -> None:
    streams = args[1] if len(args) > 1 else kwargs["streams"]
    tracer.note("memsys.trace", hash(tuple(streams)), 0)


def _drain_probe(tracer: "Tracer", args, kwargs) -> None:
    banks, rows, writes = args[1:4]
    start = args[4] if len(args) > 4 else kwargs.get("start", 0.0)
    key = hash((tuple(banks), tuple(rows), tuple(writes), start))
    tracer.note("memsys.vault", key, len(banks))


#: (layer, defining module, attribute, call-site modules, probe)
PATCHES: Sequence[Tuple[str, str, str, Tuple[str, ...],
                        Optional[Callable]]] = (
    ("memsys.trace", "repro.memsys.trace", "simulate_streams",
     ("repro.core.config_unit", "repro.accel.base"), _streams_probe),
    ("memsys.device", "repro.memsys.device",
     "MemoryDevice.run_trace_arrays", (), None),
    ("memsys.vault", "repro.memsys.vault",
     "VaultController.service_arrays", (), _drain_probe),
    ("core.runtime", "repro.core.runtime", "MealibRuntime.acc_execute",
     (), None),
    ("core.runtime.plan", "repro.core.runtime", "MealibRuntime.acc_plan",
     (), None),
    ("core.config_unit", "repro.core.config_unit",
     "ConfigurationUnit.run_descriptor", (), None),
    ("core.config_unit.decode", "repro.core.config_unit",
     "ConfigurationUnit.plans_from_image", (), None),
    ("accel.functional", "repro.core.config_unit",
     "ConfigurationUnit.run_functional", (), None),
    ("accel.noc", "repro.accel.noc", "MeshNoc.route_hops_batch", (), None),
    ("faults.datapath.guard", "repro.faults.datapath", "DatapathEcc.guard",
     (), None),
    ("faults.injector.deposit", "repro.faults.injector",
     "FaultInjector.deposit_latent_flips", (), None),
    ("faults.scrub.tick", "repro.faults.scrub", "PatrolScrubber.tick",
     (), None),
    ("thermal.rc.advance", "repro.thermal.rc", "ThermalModel.advance",
     (), None),
    ("thermal.governor.poll", "repro.thermal.governor", "PowerGovernor.poll",
     (), None),
    ("serving.scheduler", "repro.serving.runtime", "ServingRuntime.run",
     (), None),
    ("serving.batching.coalesce", "repro.serving.batching", "coalesce",
     ("repro.serving.runtime",), None),
    ("compiler.parse", "repro.compiler.cparser", "parse_source",
     ("repro.compiler.translate",), None),
    ("compiler.recognize", "repro.compiler.recognizer", "recognize",
     ("repro.compiler.translate",), None),
    ("compiler.analyze", "repro.compiler.analysis.rules", "check_program",
     (), None),
    ("compiler.certify", "repro.compiler.analysis.certificates",
     "certify_schedule", (), None),
    ("compiler.rewrite", "repro.compiler.rewrite", "rewrite_schedule",
     (), None),
    ("compiler.lower", "repro.compiler.passes", "optimize",
     ("repro.compiler.translate",), None),
    ("compiler.interp", "repro.compiler.interp", "TranslatedRunner.run",
     (), None),
)


class Tracer:
    """In-memory span recorder for the traced phase of one workload."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: layer -> [(group, key, size)] from the probes
        self.notes: Dict[str, List[Tuple[int, int, int]]] = defaultdict(list)
        self.op = -1
        self._stack: List[Tuple[int, str]] = []
        self._next = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> Tuple[int, int]:
        parent = self._stack[-1][0] if self._stack else -1
        sid = self._next
        self._next += 1
        self._stack.append((sid, name))
        return sid, parent

    def call(self, name: str, fn: Callable, args, kwargs,
             probe: Optional[Callable]):
        sid, parent = self._open(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op))
            if probe is not None:
                # the probe's own cost is a child span of the caller, so
                # it never lands in any layer's self time
                probe(self, args, kwargs)
                self.spans.append((self._next, TRACER, t1,
                                   time.perf_counter(), parent, self.op))
                self._next += 1

    def note(self, layer: str, key: int, size: int) -> None:
        """Record one probed call, grouped by its enclosing execute."""
        group = -1 - self.op
        for sid, name in reversed(self._stack):
            if name == "core.runtime":
                group = sid
                break
        self.notes[layer].append((group, key, size))

    def untraced(self, fn: Callable[[], None]) -> None:
        """Run benchmark work inside a traced call (the host-speed
        calibration) as a span of its own, outside every layer."""
        if not self._saved:
            fn()
            return
        parent = self._stack[-1][0] if self._stack else -1
        t0 = time.perf_counter()
        fn()
        self.spans.append((self._next, TRACER, t0, time.perf_counter(),
                           parent, self.op))
        self._next += 1

    @contextlib.contextmanager
    def op_span(self, op: int) -> Iterator[None]:
        """One workload unit as a root span."""
        self.op = op
        sid, parent = self._open(OP)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, OP, t0, t1, parent, op))

    # -- patching -------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, probe: Optional[Callable]):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer, fn, args, kwargs, probe)

        return traced

    def install(self) -> None:
        for layer, module, attr, sites, probe in PATCHES:
            mod = importlib.import_module(module)
            owner: object = mod
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[name]
            else:
                original = getattr(mod, name)
            wrapper = self._wrap(layer, original, probe)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)
            for site in sites:
                site_mod = importlib.import_module(site)
                if getattr(site_mod, name) is original:
                    self._saved.append((site_mod, name, original))
                    setattr(site_mod, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return {sid: (t1 - t0) - covered[sid]
                for sid, _, t0, t1, _, _ in self.spans}

    def layer_self(self) -> Dict[str, float]:
        """Layer -> total self time, s."""
        own = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for sid, name, *_ in self.spans:
            out[name] += own[sid]
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for _, name, *_ in self.spans:
            out[name] += 1
        return out

    def chrome_trace(self, max_events: int = 100_000) -> Dict[str, object]:
        """Chrome trace-event JSON (complete events, microseconds)."""
        spans = sorted(self.spans, key=lambda s: s[2])[:max_events]
        base = spans[0][2] if spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                   "args": {"id": sid, "parent": parent, "op": op}}
                  for sid, name, t0, t1, parent, op in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans": len(self.spans),
                              "written": len(events)}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _unique_frac(notes: List[Tuple[int, int, int]]) -> float:
    """Distinct keys within each group, over all notes."""
    if not notes:
        return 0.0
    distinct = {(group, key) for group, key, _ in notes}
    return len(distinct) / len(notes)


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, seconds: float,
                  counters: Dict[str, int], overhead_frac: float,
                  scale: float) -> Dict[str, float]:
    """The per-layer metrics of one traced phase of ``ops`` operations
    that spent ``seconds`` in the program: self times in ms per op
    (multiplied by the host-speed ``scale``), counts per op, and
    ratios."""
    own = tracer.layer_self()
    n = tracer.counts()

    def ms(layer: str) -> float:
        return own.get(layer, 0.0) * 1e3 / ops * scale

    trace_notes = tracer.notes["memsys.trace"]
    vault_notes = tracer.notes["memsys.vault"]
    executes = counters.get("executes", 0)
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    return {
        "memsys.trace.self_ms": ms("memsys.trace"),
        "memsys.trace.calls": n["memsys.trace"] / ops,
        "memsys.trace.unique_frac": _unique_frac(
            [(0, key, size) for _, key, size in trace_notes]),
        "memsys.device.self_ms": ms("memsys.device"),
        "memsys.vault.self_ms": ms("memsys.vault"),
        "memsys.vault.drains": n["memsys.vault"] / ops,
        "memsys.vault.requests": sum(s for _, _, s in vault_notes) / ops,
        "memsys.vault.unique_frac": _unique_frac(vault_notes),
        "core.runtime.self_ms": ms("core.runtime"),
        "core.runtime.plan_ms": ms("core.runtime.plan"),
        "core.config_unit.self_ms": ms("core.config_unit"),
        "core.config_unit.decode_ms": ms("core.config_unit.decode"),
        "core.schedule_cache.hit_frac": _frac(counters.get("cache_hits", 0),
                                              lookups),
        "core.runtime.retries": counters.get("retries", 0) / ops,
        "core.runtime.degraded_frac": _frac(
            counters.get("degraded_executes", 0), executes),
        "core.runtime.fallback_frac": _frac(counters.get("fallbacks", 0),
                                            executes),
        "accel.functional.self_ms": ms("accel.functional"),
        "accel.noc.self_ms": ms("accel.noc"),
        "faults.datapath.guard_ms": ms("faults.datapath.guard"),
        "faults.injector.deposit_ms": ms("faults.injector.deposit"),
        "faults.scrub.tick_ms": ms("faults.scrub.tick"),
        "faults.ecc_corrections": counters.get("ecc_corrections", 0) / ops,
        "thermal.rc.advance_ms": ms("thermal.rc.advance"),
        "thermal.governor.poll_ms": ms("thermal.governor.poll"),
        "thermal.throttled_frac": _frac(
            counters.get("throttled_executes", 0), executes),
        "serving.scheduler.self_ms": ms("serving.scheduler"),
        "serving.batching.coalesce_ms": ms("serving.batching.coalesce"),
        "serving.batch_frac": _frac(counters.get("batched", 0),
                                    counters.get("completed", 0)),
        "compiler.parse_ms": ms("compiler.parse"),
        "compiler.recognize_ms": ms("compiler.recognize"),
        "compiler.analyze_ms": ms("compiler.analyze"),
        "compiler.certify_ms": ms("compiler.certify"),
        "compiler.rewrite_ms": ms("compiler.rewrite"),
        "compiler.lower_ms": ms("compiler.lower"),
        "compiler.interp.self_ms": ms("compiler.interp"),
        "bench.op_ms": seconds * 1e3 / ops * scale,
        "bench.trace_overhead_frac": overhead_frac,
    }

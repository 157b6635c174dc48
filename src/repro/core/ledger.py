"""The cost ledger: every modelled time and energy, by category and label.

One registry (:data:`REGISTRY`) declares the categories, in breakdown
order: what each prices, whether its entries fold into the returned
cost of the call that logged them, and, for the per-execution excesses
the configuration unit prices, the label they are ledgered under and
the :class:`~repro.core.runtime.ResilienceCounters` field that counts
them. :class:`Ledger` stores entries as columns — two ``array('d')``
(time, energy), one byte of category code and two bytes of label code
per entry, about 40 bytes per execute — and :attr:`Ledger.entries` is
a read-only sequence view that builds each :class:`LedgerEntry` when it
is read. :func:`verify_ledger` is the one checker of its invariants.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from repro.core.config_unit import fetch_charge
from repro.metrics import ExecResult


@dataclass
class LedgerEntry:
    category: str
    label: str
    result: ExecResult


@dataclass(frozen=True)
class LedgerCategory:
    """One ledger category.

    Attributes:
        meaning: what its entries price.
        folds: whether an entry is part of the returned cost of the
            call that logged it. ``scrub`` (background maintenance) and
            ``contention`` (charged to serving latency) never are.
        overhead_label: for the per-execution excesses a
            :class:`~repro.core.config_unit.DescriptorExecution` carries
            in ``overheads``, the label the runtime ledgers them under.
        counter: the :class:`~repro.core.runtime.ResilienceCounters`
            field counting executes that carried that excess.
    """

    meaning: str
    folds: bool = True
    overhead_label: Optional[str] = None
    counter: Optional[str] = None


#: The ledger categories, in breakdown order. An entry's category code
#: is its category's position here.
REGISTRY: Dict[str, LedgerCategory] = {
    "host": LedgerCategory(
        "compute-bounded library calls on the host CPU"),
    "invocation": LedgerCategory(
        "per-execute host overhead (flush, descriptor, doorbell)"),
    "accelerator": LedgerCategory(
        "descriptor execution, per accelerator"),
    "fault": LedgerCategory(
        "detection/correction, incl. the datapath re-decode drain"),
    "retry": LedgerCategory("descriptor re-delivery and backoff"),
    "reroute": LedgerCategory(
        "excess of running degraded: detours, rerouted stripes",
        overhead_label="vault-stripe", counter="degraded_executes"),
    "fallback": LedgerCategory(
        "host execution when no tile can serve the work"),
    "scrub": LedgerCategory(
        "patrol passes draining latent flips", folds=False),
    "throttle": LedgerCategory(
        "DVFS stretch of hot vaults, priced at static power",
        overhead_label="dvfs-stretch", counter="throttled_executes"),
    "contention": LedgerCategory(
        "vault-bus time-share with co-runners", folds=False,
        overhead_label="vault-share", counter="contended_executes"),
}

CATEGORIES = tuple(REGISTRY)

_CODES = {name: code for code, name in enumerate(CATEGORIES)}
_FOLDS = tuple(REGISTRY[name].folds for name in CATEGORIES)
_HOST = _CODES["host"]
_INVOCATION = _CODES["invocation"]
_ACCELERATOR = _CODES["accelerator"]

#: Distinct labels one ledger can hold: label codes are ``array('H')``.
MAX_LABELS = 1 << 16

#: Rounding slack of an execute's fold check, in units in the last
#: place of the returned cost per summed term. The returned cost and
#: the ledgered shares round differently (shares are split per
#: accelerator, the degradation excess is split off, passes are summed
#: per accelerator); the gap measured at most 0.35 ulps per term over
#: every Table 2 op, degraded, faulty and throttled systems and
#: coalesced batches of up to 8 members. A missing fetch charge
#: (~200 ns) or entry is millions of ulps.
FOLD_ULPS = 4


class Ledger:
    """Accumulates time/energy by category (:data:`CATEGORIES`) for the
    breakdown figures. ``host``, ``accelerator`` and ``invocation`` are
    the Fig 14 split; the rest price resilience, thermal throttling and
    serving contention, and none of them appear on a fault-free solo
    run, so the ledger there is identical to the unhardened runtime's.
    """

    __slots__ = ("_time", "_energy", "_category", "_label", "_labels",
                 "_label_codes", "_view")

    def __init__(self) -> None:
        self._time = array("d")
        self._energy = array("d")
        self._category = array("B")
        self._label = array("H")
        self._labels: List[str] = []
        self._label_codes: Dict[str, int] = {}
        self._view = LedgerView(self)

    @property
    def entries(self) -> "LedgerView":
        """The entries, in log order, as a read-only sequence."""
        return self._view

    def __len__(self) -> int:
        return len(self._time)

    def log(self, category: str, label: str, result: ExecResult) -> None:
        code = _CODES.get(category)
        if code is None:
            raise _unknown(category)
        if not isinstance(result, ExecResult):
            raise TypeError(f"ledger result must be an ExecResult, got "
                            f"{type(result).__name__}")
        label_code = self._label_codes.get(label)
        if label_code is None:
            label_code = self._add_label(label)
        self._time.append(result.time)
        self._energy.append(result.energy)
        self._category.append(code)
        self._label.append(label_code)

    def _add_label(self, label: str) -> int:
        # a known label is a str already: only a new one needs the check
        if not isinstance(label, str):
            raise TypeError(f"ledger label must be a str, got "
                            f"{type(label).__name__}")
        code = len(self._labels)
        if code >= MAX_LABELS:
            raise ValueError(f"ledger holds {MAX_LABELS} distinct labels "
                             f"already; cannot add {label!r}")
        self._labels.append(label)
        self._label_codes[label] = code
        return code

    def total(self, category: Optional[str] = None) -> ExecResult:
        """Sum of the entries of one category, or of all, added left to
        right in log order."""
        time = 0.0
        energy = 0.0
        if category is None:
            for t in self._time:
                time += t
            for e in self._energy:
                energy += e
        else:
            code = _code(category)
            for c, t, e in zip(self._category, self._time, self._energy):
                if c == code:
                    time += t
                    energy += e
        return ExecResult(time, energy)

    def span_time(self, category: str, start: int, stop: int) -> float:
        """Time of one category's entries in ``[start, stop)``, added
        left to right (a short span, read without building entries)."""
        code = _code(category)
        cats = self._category
        times = self._time
        time = 0.0
        for i in range(start, stop):
            if cats[i] == code:
                time += times[i]
        return time

    def by_label(self, category: str) -> Dict[str, ExecResult]:
        """Per-label sums of one category, labels in first-logged
        order, each added left to right in log order."""
        code = _code(category)
        sums: Dict[int, List[float]] = {}
        for c, lab, t, e in zip(self._category, self._label, self._time,
                                self._energy):
            if c == code:
                acc = sums.get(lab)
                if acc is None:
                    acc = sums[lab] = [0.0, 0.0]
                acc[0] += t
                acc[1] += e
        labels = self._labels
        return {labels[lab]: ExecResult(t, e)
                for lab, (t, e) in sums.items()}

    def select(self, spans: Iterable[Tuple[int, int]]) -> "Ledger":
        """A new ledger holding the entries of each ``[start, stop)``
        span, in the order given."""
        out = Ledger()
        out._labels = list(self._labels)
        out._label_codes = dict(self._label_codes)
        for start, stop in spans:
            out._time.extend(self._time[start:stop])
            out._energy.extend(self._energy[start:stop])
            out._category.extend(self._category[start:stop])
            out._label.extend(self._label[start:stop])
        return out

    def clear(self) -> None:
        for column in (self._time, self._energy, self._category,
                       self._label):
            del column[:]
        self._labels.clear()
        self._label_codes.clear()

    def _entry(self, i: int) -> LedgerEntry:
        return LedgerEntry(CATEGORIES[self._category[i]],
                           self._labels[self._label[i]],
                           ExecResult(self._time[i], self._energy[i]))


def _unknown(category: object) -> ValueError:
    return ValueError(f"unknown ledger category {category!r}; "
                      f"expected one of {CATEGORIES}")


def _code(category: str) -> int:
    code = _CODES.get(category)
    if code is None:
        raise _unknown(category)
    return code


class LedgerView(Sequence):
    """Read-only sequence view of a ledger's entries: indexing,
    slicing and iteration build each :class:`LedgerEntry` when it is
    read (a slice is a list). Compares equal to a list of the same
    entries and to a view of a ledger holding them."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: Ledger) -> None:
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger._time)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[LedgerEntry, List[LedgerEntry]]:
        ledger = self._ledger
        positions = range(len(ledger._time))
        if isinstance(index, slice):
            return [ledger._entry(i) for i in positions[index]]
        return ledger._entry(positions[index])

    def __iter__(self) -> Iterator[LedgerEntry]:
        ledger = self._ledger
        labels = ledger._labels
        for c, lab, t, e in zip(ledger._category, ledger._label,
                                ledger._time, ledger._energy):
            yield LedgerEntry(CATEGORIES[c], labels[lab], ExecResult(t, e))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LedgerView, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LedgerView({list(self)!r})"


#: One execute to check the fold of: its first entry index, its
#: descriptor's size in bytes (the configuration unit's fetch charge
#: depends on it) and the cost ``acc_execute`` returned.
Execute = Tuple[int, int, ExecResult]


def verify_ledger(ledger: Ledger, executes: Iterable[Execute] = ()
                  ) -> None:
    """Machine-check the ledger's invariants.

    1. Every category code names a :data:`REGISTRY` category and every
       label code a recorded label.
    2. Every time and energy is finite and non-negative.
    3. For each named execute, its entries run from its ``invocation``
       entry up to the next ``invocation`` or ``host`` entry. The
       folding entries among them, plus the configuration unit's
       descriptor fetch charge when the execute ran accelerated (it
       has ``accelerator`` entries), add up to the returned cost
       within :data:`FOLD_ULPS` ulps per term, in time and in energy.
       The fetch charge is priced into the returned cost but ledgered
       under no category.

    Raises :class:`AssertionError` on any violation.
    """
    for i, c in enumerate(ledger._category):
        if c >= len(CATEGORIES):
            raise AssertionError(
                f"ledger entry {i}: category code {c} names no category")
    for i, lab in enumerate(ledger._label):
        if lab >= len(ledger._labels):
            raise AssertionError(
                f"ledger entry {i}: label code {lab} names no label")
    for name, column in (("time", ledger._time),
                         ("energy", ledger._energy)):
        for i, x in enumerate(column):
            if not 0.0 <= x < math.inf:
                raise AssertionError(
                    f"ledger entry {i}: {name} {x!r} is not finite and "
                    "non-negative")
    for first, descriptor_bytes, result in executes:
        _verify_fold(ledger, first, descriptor_bytes, result)


def _verify_fold(ledger: Ledger, first: int, descriptor_bytes: int,
                 result: ExecResult) -> None:
    cats = ledger._category
    n = len(cats)
    if not 0 <= first < n or cats[first] != _INVOCATION:
        raise AssertionError(
            f"ledger entry {first} does not start an execute")
    stop = first + 1
    while stop < n and cats[stop] != _INVOCATION and cats[stop] != _HOST:
        stop += 1
    folded = [i for i in range(first, stop) if _FOLDS[cats[i]]]
    times = [ledger._time[i] for i in folded]
    energies = [ledger._energy[i] for i in folded]
    if _ACCELERATOR in cats[first:stop]:
        fetch = fetch_charge(descriptor_bytes)
        times.append(fetch.time)
        energies.append(fetch.energy)
    for name, parts, returned in (("time", times, result.time),
                                  ("energy", energies, result.energy)):
        error = math.fsum(parts + [-returned])
        slack = FOLD_ULPS * len(parts) * math.ulp(returned)
        if not abs(error) <= slack:
            raise AssertionError(
                f"execute at ledger entry {first}: entries "
                f"[{first}, {stop}) fold to {math.fsum(parts)!r} {name}, "
                f"returned {returned!r} (off by {error!r}, more than "
                f"{FOLD_ULPS} ulps per term)")

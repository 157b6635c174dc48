"""Vectorized-vs-scalar differential battery for the memsys hot paths.

Every numpy'd kernel is pinned against a scalar reference implemented
here from the retained per-element primitives (`StreamSpec.element_addr`,
`AddressMapping.decompose`, and the reference `Bank.access` FSM in
`tests/memsys/helpers.py`): randomized inputs, exact (bit-identical)
equality. The reference FR-FCFS drain over that FSM lives only here;
the library keeps one drain loop.
Floats are compared with ``==`` on purpose — the vectorized paths must
perform the same IEEE operations in the same order, not merely
approximate them.
"""

import numpy as np
import pytest

from repro.accel.layer import ACCELERATOR_TYPES
from repro.eval.workloads import TABLE2
from repro.memsys import StackedDram, haswell_memory
from repro.memsys.address import AddressMapping
from repro.memsys.device import MemoryDevice
from repro.memsys.energy import HMC_ENERGY
from repro.memsys.result import BankStats
from repro.memsys.timing import DDR3_1600_CHANNEL, HMC_VAULT, DramTiming
from repro.memsys.trace import (DEFAULT_WINDOW_ELEMS, GANG_ELEMS,
                                StreamSpec, _element_addrs,
                                _emit_window_array, _merge_window_arrays)
from repro.memsys.vault import VaultController
from tests.memsys.helpers import (Bank, emit_stream_window, merge_streams,
                                  reference_merge_arrays,
                                  reference_window_array, run_trace,
                                  service)

RNG_SEED = 987654321


def random_stream(rng, kind=None) -> StreamSpec:
    kind = kind or ("seq", "strided", "gather",
                    "blocked")[int(rng.integers(4))]
    elem_bytes = int(rng.choice([2, 4, 8, 16]))
    n = int(rng.integers(1, 4000))
    base = int(rng.integers(0, 1 << 28)) & ~7
    if kind == "seq":
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem_bytes,
                          is_write=bool(rng.integers(2)))
    if kind == "strided":
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem_bytes,
                          stride=int(rng.integers(0, 9)) * elem_bytes,
                          kind="strided",
                          is_write=bool(rng.integers(2)))
    if kind == "gather":
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem_bytes,
                          region_bytes=int(rng.integers(1, 1 << 22)),
                          kind="gather", is_write=bool(rng.integers(2)))
    return StreamSpec(base=base, n_elems=n, elem_bytes=elem_bytes,
                      block_elems=int(rng.integers(1, 200)),
                      block_stride=int(rng.integers(1, 1 << 16)),
                      kind="blocked", is_write=bool(rng.integers(2)))


# -- element address generation ------------------------------------------------


@pytest.mark.parametrize("kind", ["seq", "strided", "gather", "blocked"])
def test_element_addrs_match_scalar(kind):
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        s = random_stream(rng, kind)
        n = min(s.n_elems, 1500)
        got = _element_addrs(s, n)
        want = [s.element_addr(i) for i in range(n)]
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_gather_lcg_exact_at_large_indices():
    # the uint64 LCG must wrap mod 2**64 exactly like Python's
    # arbitrary-precision arithmetic masked to 63 bits
    s = StreamSpec(base=64, n_elems=1 << 20, elem_bytes=8,
                   region_bytes=1 << 24, kind="gather")
    idx = [0, 1, 2, 65535, (1 << 20) - 1]
    got = _element_addrs(s, 1 << 20)
    for i in idx:
        assert int(got[i]) == s.element_addr(i)


def test_element_addrs_empty_window():
    s = random_stream(np.random.default_rng(0), "seq")
    assert _element_addrs(s, 0).size == 0


# -- burst coalescing ----------------------------------------------------------


def reference_emit(stream, n_sample, burst_bytes):
    """The scalar burst coalescer: consecutive same-block touches fold
    into one request; gathers never coalesce."""
    out = []
    last_block = -1
    for i in range(n_sample):
        block = stream.element_addr(i) // burst_bytes
        if stream.kind == "gather" or block != last_block:
            out.append((block * burst_bytes, stream.is_write))
        last_block = block
    return out


def test_emit_window_matches_scalar_reference():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(60):
        s = random_stream(rng)
        n = min(s.n_elems, 1200)
        burst = int(rng.choice([32, 64, 128]))
        assert emit_stream_window(s, n, burst) == reference_emit(
            s, n, burst)


# -- proportional round-robin merge --------------------------------------------


def reference_merge(streams, n_samples, burst_bytes):
    """Scalar merge: the stream least far through its window (by exact
    float fraction) issues the next gang of requests."""
    windows = [reference_emit(s, n, burst_bytes)
               for s, n in zip(streams, n_samples)]
    cursors = [0] * len(windows)
    out = []
    while any(c < len(w) for c, w in zip(cursors, windows)):
        best, best_frac = -1, 2.0
        for idx, w in enumerate(windows):
            if cursors[idx] >= len(w):
                continue
            frac = cursors[idx] / len(w)
            if frac < best_frac:
                best_frac = frac
                best = idx
        take = min(GANG_ELEMS, len(windows[best]) - cursors[best])
        out.extend(windows[best][cursors[best]:cursors[best] + take])
        cursors[best] += take
    return out


def test_merge_streams_matches_scalar_reference():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        streams = [random_stream(rng) for _ in range(k)]
        n_samples = [min(s.n_elems, int(rng.integers(1, 700)))
                     for s in streams]
        burst = 64
        assert merge_streams(streams, n_samples, burst) == \
            reference_merge(streams, n_samples, burst)


# -- closed-form windows and sort merge vs the element path --------------------


def battery_stream(rng, burst):
    """A stream from the edges of the closed-form window rules:
    unaligned bases, ``elem_bytes >= burst``, strides of 0, ``burst``
    and ``burst +- elem_bytes`` (negative for wide elements), every
    kind."""
    kind = ("seq", "strided", "gather", "blocked")[int(rng.integers(4))]
    elem = int(rng.choice([1, 2, 4, 8, 16, 32, 64, 128, 256]))
    n = int(rng.choice([1, GANG_ELEMS - 1, GANG_ELEMS, GANG_ELEMS + 1,
                        3 * GANG_ELEMS, int(rng.integers(1, 1500))]))
    base = (1 << 30) + int(rng.integers(0, 1 << 20))
    if kind == "strided":
        stride = int(rng.choice([0, burst, burst - elem, burst + elem,
                                 elem, 3 * elem, -elem]))
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem,
                          stride=stride, kind=kind,
                          is_write=bool(rng.integers(2)))
    if kind == "gather":
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem,
                          region_bytes=int(rng.integers(1, 1 << 16)),
                          kind=kind, is_write=bool(rng.integers(2)))
    if kind == "blocked":
        return StreamSpec(base=base, n_elems=n, elem_bytes=elem,
                          block_elems=int(rng.integers(1, 40)),
                          block_stride=int(rng.integers(1, 1 << 12)),
                          kind=kind, is_write=bool(rng.integers(2)))
    return StreamSpec(base=base, n_elems=n, elem_bytes=elem,
                      is_write=bool(rng.integers(2)))


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_window_and_merge_match_element_path_byte_for_byte():
    rng = np.random.default_rng(RNG_SEED + 10)
    sizes = set()
    for _ in range(1000):
        burst = int(rng.choice([32, 64]))
        streams = [battery_stream(rng, burst)
                   for _ in range(int(rng.integers(1, 7)))]
        n_samples = [s.n_elems if rng.integers(2) else
                     int(rng.integers(1, s.n_elems + 1)) for s in streams]
        for s, n in zip(streams, n_samples):
            want = reference_window_array(s, n, burst)
            assert_same_array(_emit_window_array(s, n, burst), want)
            sizes.add(want.size)
        got = _merge_window_arrays(streams, n_samples, burst)
        want = reference_merge_arrays(streams, n_samples, burst)
        for g, w in zip(got, want):
            assert_same_array(g, w)
    # windows shorter than, equal to, a multiple of and not a multiple
    # of a gang all occurred
    assert 1 in sizes and GANG_ELEMS in sizes
    assert any(size > GANG_ELEMS and size % GANG_ELEMS == 0
               for size in sizes)
    assert any(size > GANG_ELEMS and size % GANG_ELEMS for size in sizes)


def test_merge_of_no_streams_is_empty():
    addrs, writes = _merge_window_arrays([], [], 64)
    assert addrs.dtype == np.int64 and writes.dtype == bool
    assert addrs.size == writes.size == 0
    assert merge_streams([], [], 64) == []


# -- address decomposition -----------------------------------------------------


def test_decompose_batch_matches_scalar():
    rng = np.random.default_rng(RNG_SEED + 3)
    mapping = AddressMapping(interleave_bytes=256, units=16, banks=8,
                             row_bytes=2048)
    addrs = rng.integers(0, 1 << 40, size=5000)
    units, banks, rows, cols = mapping.decompose_batch(addrs)
    for i in range(0, 5000, 7):
        assert ((int(units[i]), int(banks[i]), int(rows[i]),
                 int(cols[i])) == mapping.decompose(int(addrs[i])))


def test_decompose_batch_rejects_negative():
    mapping = AddressMapping(interleave_bytes=256, units=4, banks=8,
                             row_bytes=2048)
    with pytest.raises(ValueError):
        mapping.decompose_batch(np.array([0, -8], dtype=np.int64))


# -- vault controller drain ----------------------------------------------------


def reference_service(timing, window, requests):
    """The reference FR-FCFS drain over the scalar :class:`Bank` FSM,
    from quiescent banks and bus: among the oldest ``window`` pending
    requests, prefer a row hit, fall back to the oldest (swap-deferring
    the displaced head)."""
    banks = [Bank(timing) for _ in range(timing.banks)]
    pending = list(requests)
    now = bus = finish = 0.0
    head = 0
    while head < len(pending):
        limit = min(head + window, len(pending))
        pick = head
        for i in range(head, limit):
            if banks[pending[i][0]].row_is_open(pending[i][1]):
                pick = i
                break
        bank, row, is_write = pending[pick]
        if pick != head:
            pending[pick] = pending[head]
        head += 1
        done = banks[bank].access(row, is_write, now, bus)
        bus = done
        if done > finish:
            finish = done
    stats = BankStats()
    for b in banks:
        stats.merge(b.stats)
    return finish, stats


def random_requests(rng, timing, n):
    return [(int(rng.integers(timing.banks)), int(rng.integers(64)),
             bool(rng.integers(2))) for _ in range(n)]


@pytest.mark.parametrize("timing", [HMC_VAULT, DDR3_1600_CHANNEL])
@pytest.mark.parametrize("window", [1, 4, 8])
def test_vault_drain_matches_bank_fsm_reference(timing, window):
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        reqs = random_requests(rng, timing, int(rng.integers(1, 600)))
        vc = VaultController(timing, window=window)
        got = service(vc, reqs)
        finish, stats = reference_service(timing, window, reqs)
        assert got.finish_time == finish
        assert got.stats == stats


def test_drain_holds_no_state():
    """A drain is a pure function of its columns: a controller that has
    drained other columns in between drains A exactly as a fresh one
    does, and an empty drain finishes at 0."""
    timing = HMC_VAULT
    rng = np.random.default_rng(RNG_SEED + 5)
    a = random_requests(rng, timing, 300)
    b = random_requests(rng, timing, 200)
    fresh = service(VaultController(timing), a)
    vc = VaultController(timing)
    first = service(vc, a)
    service(vc, b)
    again = service(vc, a)
    assert first == fresh
    assert again == fresh
    assert service(vc, []) == service(VaultController(timing), [])
    assert service(vc, []).finish_time == 0.0


def test_service_arrays_accepts_numpy_columns():
    timing = HMC_VAULT
    rng = np.random.default_rng(RNG_SEED + 6)
    reqs = random_requests(rng, timing, 300)
    a = service(VaultController(timing), reqs)
    b = VaultController(timing).service_arrays(
        np.array([r[0] for r in reqs]), np.array([r[1] for r in reqs]),
        np.array([r[2] for r in reqs]))
    assert a.finish_time == b.finish_time
    assert a.stats == b.stats


# -- lean drain edge cases -----------------------------------------------------


def drain_columns(reqs, form):
    """``reqs`` as (bank, row, is_write) columns in one input form."""
    banks = [r[0] for r in reqs]
    rows = [r[1] for r in reqs]
    writes = [r[2] for r in reqs]
    if form == "list":
        return banks, rows, writes
    dtype = np.int64 if form == "int64" else np.int32
    return (np.array(banks, dtype=dtype), np.array(rows, dtype=dtype),
            np.array(writes, dtype=bool))


@pytest.mark.parametrize("form", ["int64", "int32", "list"])
@pytest.mark.parametrize("window", [1, 2, 8, 16, 10_000])
@pytest.mark.parametrize("timing", [HMC_VAULT, DDR3_1600_CHANNEL])
def test_lean_drain_windows_and_column_forms(timing, window, form):
    # few rows per bank, so head hits, window-scan hits and misses all
    # occur; the largest window is longer than every trace
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(4):
        reqs = [(int(rng.integers(timing.banks)), int(rng.integers(4)),
                 bool(rng.integers(2)))
                for _ in range(int(rng.integers(1, 400)))]
        got = VaultController(timing, window=window).service_arrays(
            *drain_columns(reqs, form))
        finish, stats = reference_service(timing, window, reqs)
        assert got.finish_time == finish
        assert got.stats == stats


#: Delays the random-timing battery draws from, in ns: zeros and repeats
#: make ties between the bank's ready times and the bus common.
RANDOM_DELAYS_NS = (0.0, 0.5, 1.0, 2.0, 5.0, 13.75, 27.5)


def random_timing(rng) -> DramTiming:
    """A :class:`DramTiming` with every delay drawn independently from
    :data:`RANDOM_DELAYS_NS`, 1-8 banks and a 0.2-5 ns burst."""
    delays = {name: float(rng.choice(RANDOM_DELAYS_NS)) * 1e-9
              for name in ("t_rcd", "t_cas", "t_rp", "t_ras", "t_wr",
                           "t_ccd")}
    return DramTiming(clock_hz=float(rng.choice([0.2e9, 1e9, 1.25e9])),
                      bytes_per_cycle=int(rng.choice([16, 26, 32])),
                      burst_bytes=int(rng.choice([32, 64])),
                      row_bytes=2048, banks=int(rng.integers(1, 9)),
                      **delays)


def test_drain_matches_bank_fsm_under_random_timings():
    # every delay may be 0 or equal to another, so each term of the
    # precharge bound (t_ras after the activate, a read's column time, a
    # write's recovery after its burst) gets to be the one that binds
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(600):
        timing = random_timing(rng)
        window = int(rng.integers(1, 17))
        rows = int(rng.integers(1, 5))
        reqs = [(int(rng.integers(timing.banks)), int(rng.integers(rows)),
                 bool(rng.random() < 0.3))
                for _ in range(int(rng.integers(1, 60)))]
        got = VaultController(timing, window=window).service_arrays(
            *drain_columns(reqs, "int64"))
        finish, stats = reference_service(timing, window, reqs)
        assert got.finish_time.hex() == finish.hex(), (timing, window,
                                                       reqs)
        assert got.stats == stats


# -- whole-device drain --------------------------------------------------------


def reference_run_trace(device, requests):
    """Scalar device drain: per-address decompose, per-unit reference
    FR-FCFS drain, identical energy assembly."""
    finish = 0.0
    stats = BankStats()
    per_unit = {}
    for addr, is_write in requests:
        unit, bank, row, _ = device.mapping.decompose(addr)
        per_unit.setdefault(unit, []).append((bank, row, is_write))
    for unit in range(device.units):
        if unit not in per_unit:
            continue
        t, s = reference_service(device.timing, device.reorder_window,
                                 per_unit[unit])
        finish = max(finish, t)
        stats.merge(s)
    bytes_moved = len(requests) * device.request_bytes
    dynamic = (stats.activates * device.energy.e_activate
               + stats.accesses * device.energy.burst_energy(
                   device.request_bytes))
    total = dynamic + device.static_power() * finish
    return finish, total, bytes_moved, stats


def test_device_run_trace_matches_scalar_reference():
    device = MemoryDevice(HMC_VAULT, HMC_ENERGY, units=8,
                          interleave_bytes=256)
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(6):
        n = int(rng.integers(1, 3000))
        reqs = [(int(rng.integers(0, 1 << 30)) & ~31,
                 bool(rng.integers(2))) for _ in range(n)]
        got = run_trace(device, reqs)
        finish, energy, bytes_moved, stats = reference_run_trace(
            device, reqs)
        assert got.time == finish
        assert got.energy == energy
        assert got.bytes_moved == bytes_moved
        assert got.stats == stats


def test_device_run_trace_empty():
    device = MemoryDevice(HMC_VAULT, HMC_ENERGY, units=4,
                          interleave_bytes=256)
    got = run_trace(device, [])
    assert got.time == 0.0 and got.energy == 0.0
    assert got.bytes_moved == 0


# -- per-call drain dedup ------------------------------------------------------

CORES = {core.name: core for core in (t() for t in ACCELERATOR_TYPES)}


def table2_window(op, scale, device):
    """The merged request window ``simulate_streams`` drains for one
    Table 2 op."""
    streams = [s for s in CORES[op].streams(TABLE2[op].params(scale))
               if s.n_elems > 0]
    total = sum(s.n_elems for s in streams)
    fraction = min(1.0, DEFAULT_WINDOW_ELEMS / total)
    n_samples = [max(1, int(round(s.n_elems * fraction))) for s in streams]
    return _merge_window_arrays(streams, n_samples, device.request_bytes)


@pytest.mark.parametrize("make_device, deduped", [
    (StackedDram, {"FFT", "GEMV"}),
    (haswell_memory, {"FFT"}),
], ids=["stack", "ddr"])
@pytest.mark.parametrize("scale", [0.004, 0.02])
def test_device_drain_dedup_matches_reference(make_device, deduped, scale,
                                              monkeypatch):
    """Units whose request sequences repeat drain once per call, with
    results bit-identical to draining every unit."""
    device = make_device()
    drains = []
    real = VaultController.service_arrays

    def counting(self, *args, **kwargs):
        drains.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(VaultController, "service_arrays", counting)
    for op in TABLE2:
        addrs, writes = table2_window(op, scale, device)
        drains.clear()
        got = device.run_trace_arrays(addrs, writes)
        finish, energy, bytes_moved, stats = reference_run_trace(
            device, list(zip(addrs.tolist(), writes.tolist())))
        assert got.time == finish
        assert got.energy == energy
        assert got.bytes_moved == bytes_moved
        assert got.stats == stats
        busy = np.unique(device.mapping.decompose_batch(addrs)[0]).size
        assert len(drains) <= busy
        if op in deduped:
            assert len(drains) < busy, op

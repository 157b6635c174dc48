"""Common machinery for multi-unit memory devices.

A *device* is a set of parallel units (HMC vaults or DDR channels), each a
:class:`~repro.memsys.vault.VaultController`. A request trace is split by
the address mapping across units, each unit drains its share concurrently
from a quiescent vault (a drain holds no state), and the device-level
drain time is the slowest unit. Energy is assembled from the drains'
event counters plus static power over the drain time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.checks import check_int
from repro.memsys.address import AddressMapping
from repro.memsys.energy import DramEnergy
from repro.memsys.result import BankStats, MemResult
from repro.memsys.timing import DramTiming
from repro.memsys.vault import VaultController, VaultResult


class MemoryDevice:
    """A memory device made of parallel vaults/channels."""

    def __init__(self, timing: DramTiming, energy: DramEnergy, units: int,
                 interleave_bytes: int, reorder_window: int = 8,
                 name: str = "dram", ecc=None):
        check_int("reorder_window", reorder_window, 1)
        self.timing = timing
        self.energy = energy
        self.units = units
        self.name = name
        self.reorder_window = reorder_window
        # Optional SECDED model (repro.faults.ecc.SecdedModel). When
        # attached, every drained trace pays the ECC decode-pipeline
        # overhead; None (the default) leaves the timing untouched.
        self.ecc: Optional[object] = ecc
        self.mapping = AddressMapping(
            interleave_bytes=interleave_bytes,
            units=units,
            banks=timing.banks,
            row_bytes=timing.row_bytes,
        )

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate peak bandwidth in bytes/second."""
        return self.units * self.timing.peak_bandwidth

    @property
    def request_bytes(self) -> int:
        """Payload granularity of one request (one burst)."""
        return self.timing.burst_bytes

    @property
    def total_banks(self) -> int:
        return self.units * self.timing.banks

    def static_power(self) -> float:
        """Background power of the whole device in watts."""
        return self.total_banks * self.energy.p_static_per_bank

    def stretch_for_tiles(self, mem: MemResult, tiles: int) -> MemResult:
        """``mem`` as reached by ``tiles`` accelerator tiles.

        A tile only drives its own unit's bus, so fewer tiles than units
        stretch the drain time by ``units / tiles``, and the stretch is
        priced at static power. The result carries no event counters.
        """
        if tiles >= self.units:
            return mem
        stretched = mem.time * self.units / tiles
        return MemResult(
            time=stretched,
            energy=mem.energy + self.static_power() * (stretched - mem.time),
            bytes_moved=mem.bytes_moved)

    def run_trace_arrays(self, addrs: np.ndarray,
                         writes: np.ndarray) -> MemResult:
        """Drain a trace of parallel (address, is_write) arrays and
        report time/energy/bandwidth.

        Each request moves ``request_bytes`` of payload. The batch
        decompose and the per-unit split are vectorized (one stable
        argsort of the unit column keeps the trace order within each
        unit, a ``bincount`` sizes each unit's share). A drain is a pure
        function of its columns (it models one operation executing from
        a quiescent device), so units whose (bank, row, is_write)
        columns are byte-identical drain to the same result: each
        distinct column triple is drained once, keyed in a dict that
        lives only for this call. Results are
        element-for-element identical to the scalar reference walk
        (``tests/memsys/test_vectorized_diff.py``).
        """
        count = int(addrs.size)
        finish = 0.0
        stats = BankStats()
        if count:
            units, banks, rows, _ = self.mapping.decompose_batch(addrs)
            narrow = units.astype(np.min_scalar_type(self.units - 1))
            order = np.argsort(narrow, kind="stable")
            banks, rows, writes = banks[order], rows[order], writes[order]
            controller = VaultController(self.timing, self.reorder_window)
            drained: Dict[Tuple[bytes, ...], VaultResult] = {}
            stop = 0
            for size in np.bincount(units, minlength=self.units).tolist():
                begin, stop = stop, stop + size
                if not size:
                    continue
                columns = (banks[begin:stop], rows[begin:stop],
                           writes[begin:stop])
                key = tuple(c.tobytes() for c in columns)
                result = drained.get(key)
                if result is None:
                    result = controller.service_arrays(*columns)
                    drained[key] = result
                finish = max(finish, result.finish_time)
                stats.merge(result.stats)
        bytes_moved = count * self.request_bytes
        dynamic = (stats.activates * self.energy.e_activate
                   + stats.accesses * self.energy.burst_energy(
                       self.request_bytes))
        total_energy = dynamic + self.static_power() * finish
        if self.ecc is not None and bytes_moved:
            overhead = self.ecc.stream_overhead(bytes_moved)
            finish += overhead.time
            total_energy += overhead.energy
        return MemResult(time=finish, energy=total_energy,
                         bytes_moved=bytes_moved, stats=stats)

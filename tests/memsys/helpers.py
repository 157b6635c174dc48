"""Request-tuple front ends to the memsys array paths, for tests.

The library drains traces only as parallel columns
(:meth:`VaultController.service_arrays`,
:meth:`MemoryDevice.run_trace_arrays`); tests that build short traces
by hand as tuples go through these wrappers.
"""

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.memsys.device import MemoryDevice, Request
from repro.memsys.result import MemResult
from repro.memsys.vault import VaultController, VaultResult


def service(controller: VaultController,
            requests: Sequence[Tuple[int, int, bool]],
            start: float = 0.0) -> VaultResult:
    """Drain (bank, row, is_write) tuples on ``controller``."""
    return controller.service_arrays([r[0] for r in requests],
                                     [r[1] for r in requests],
                                     [r[2] for r in requests], start)


def run_trace(device: MemoryDevice,
              requests: Iterable[Request]) -> MemResult:
    """Drain (address, is_write) tuples on ``device``."""
    reqs = list(requests)
    addrs = np.fromiter((r[0] for r in reqs), dtype=np.int64,
                        count=len(reqs))
    writes = np.fromiter((r[1] for r in reqs), dtype=bool, count=len(reqs))
    return device.run_trace_arrays(addrs, writes)

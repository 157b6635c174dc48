"""Sweep-size windows through the closed-form emit and the gang merge.

The randomized battery in ``test_vectorized_diff.py`` caps windows at
1500 elements. Here every window is up to ``DEFAULT_WINDOW_ELEMS``
elements, the size ``simulate_streams`` samples, and each must equal
the element-path references in ``tests/memsys/helpers.py`` byte for
byte: blocked walks whose block stride is below, equal to and above a
block's span, elements wider than a burst, partial last blocks, and
merges of five or more streams of unequal window sizes.
"""

import numpy as np
import pytest

from repro.memsys.trace import (DEFAULT_WINDOW_ELEMS, GANG_ELEMS,
                                StreamSpec, _emit_window_array,
                                _merge_window_arrays)
from tests.memsys.helpers import (reference_merge_arrays,
                                  reference_window_array)

BASE = (1 << 30) + 4100


def blocked(elem, per, stride, n, base=BASE, is_write=False):
    return StreamSpec(base=base, n_elems=n, elem_bytes=elem,
                      block_elems=per, block_stride=stride, kind="blocked",
                      is_write=is_write)


#: (stream, burst) pairs; n_elems is the window size
WINDOWS = [
    # stride below the span: consecutive blocks overlap
    (blocked(4, 256, 600, DEFAULT_WINDOW_ELEMS), 32),
    # stride equal to the span: one dense run, a partial last block
    (blocked(8, 100, 800, DEFAULT_WINDOW_ELEMS - 37), 64),
    # stride above the span, a partial last block
    (blocked(4, 64, 2088, 40_001), 32),
    (blocked(8, 256, 2048, DEFAULT_WINDOW_ELEMS), 32),
    # blocks within one burst: runs emptied by the boundary rule
    (blocked(1, 3, 1, DEFAULT_WINDOW_ELEMS - 1, base=BASE + 7), 32),
    (blocked(2, 5, 12, 50_000), 64),
    # elements wider than a burst, touching across block boundaries
    (blocked(64, 7, 40, 30_001), 32),
    (blocked(128, 3, 4096, DEFAULT_WINDOW_ELEMS), 64),
    (blocked(32, 9, 288, 20_000), 32),
    (StreamSpec(base=BASE, n_elems=DEFAULT_WINDOW_ELEMS, elem_bytes=128),
     32),
    (StreamSpec(base=BASE, n_elems=DEFAULT_WINDOW_ELEMS, elem_bytes=4,
                stride=-4, kind="strided"), 32),
    (StreamSpec(base=BASE, n_elems=DEFAULT_WINDOW_ELEMS, elem_bytes=4,
                region_bytes=1 << 22, kind="gather"), 32),
]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stream, burst", WINDOWS)
def test_sweep_size_window_matches_element_path(stream, burst):
    want = reference_window_array(stream, stream.n_elems, burst)
    assert_same_array(_emit_window_array(stream, stream.n_elems, burst),
                      want)


def test_sweep_size_merges_match_gang_loop():
    rng = np.random.default_rng(20150)
    seen = set()
    for trial in range(6):
        k = 5 + trial % 3
        picks = rng.choice(len(WINDOWS), size=k, replace=False)
        streams = [WINDOWS[i][0] for i in picks]
        burst = 32
        # unequal windows summing to about DEFAULT_WINDOW_ELEMS
        weights = rng.random(k) + 0.05
        n_samples = [max(1, min(s.n_elems, int(DEFAULT_WINDOW_ELEMS * w
                                               / weights.sum())))
                     for s, w in zip(streams, weights)]
        got = _merge_window_arrays(streams, n_samples, burst)
        want = reference_merge_arrays(streams, n_samples, burst)
        for g, w in zip(got, want):
            assert_same_array(g, w)
        sizes = [reference_window_array(s, n, burst).size
                 for s, n in zip(streams, n_samples)]
        assert len(set(sizes)) == k
        seen.update(size % GANG_ELEMS != 0 for size in sizes)
    # windows ending on a short gang and on a whole one both occurred
    assert seen == {True, False}

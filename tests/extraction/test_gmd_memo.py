"""The GMD memo against the per-unique-key implementation it replaced.

``_ReferenceMemo.grouped`` keeps the earlier ``_gmd_grouped`` verbatim
(``np.unique(axis=0)`` over the quantized keys, one tuple key and one
``OrderedDict`` move per unique key) with its own cache, so every
property below compares the memo with it call for call: values bit for
bit, both counters, the cache size and the least-recently-used order,
which decides what a full cache evicts.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.extraction.inductance as inductance
from repro.extraction.inductance import (
    _gmd_grouped,
    clear_gmd_cache,
    gmd_cache_size,
    gmd_rectangles,
)
from repro.pipeline.profiling import collect


class _ReferenceMemo:
    """The earlier ``_gmd_grouped``, with its cache and bound as fields."""

    def __init__(self, capacity):
        self.cache = OrderedDict()
        self.capacity = capacity

    def grouped(self, width_a, thickness_a, width_b, thickness_b, off_w, off_t):
        q = inductance._GMD_KEY_QUANTUM
        sa_w = np.round(width_a * q).astype(np.int64)
        sa_t = np.round(thickness_a * q).astype(np.int64)
        sb_w = np.round(width_b * q).astype(np.int64)
        sb_t = np.round(thickness_b * q).astype(np.int64)
        swap = (sa_w > sb_w) | ((sa_w == sb_w) & (sa_t > sb_t))
        lo_w = np.where(swap, sb_w, sa_w)
        lo_t = np.where(swap, sb_t, sa_t)
        hi_w = np.where(swap, sa_w, sb_w)
        hi_t = np.where(swap, sa_t, sb_t)
        keys = np.stack(
            [
                lo_w,
                lo_t,
                hi_w,
                hi_t,
                np.round(off_w * q).astype(np.int64),
                np.round(off_t * q).astype(np.int64),
            ],
            axis=1,
        )
        _, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        unique_values = np.empty(first.size)
        misses = 0
        for slot, rep in enumerate(first):
            key = tuple(int(v) for v in keys[rep])
            value = self.cache.get(key)
            if value is None:
                value = gmd_rectangles(
                    float(width_a[rep]),
                    float(thickness_a[rep]),
                    float(width_b[rep]),
                    float(thickness_b[rep]),
                    float(off_w[rep]),
                    float(off_t[rep]),
                )
                if len(self.cache) >= self.capacity:
                    self.cache.popitem(last=False)
                self.cache[key] = value
                misses += 1
            else:
                self.cache.move_to_end(key)
            unique_values[slot] = value
        values = unique_values[np.asarray(inverse).ravel()]
        return values, misses, keys.shape[0] - misses


def _memo_keys():
    """The memo's keys as integer tuples, least recently used first."""
    if not inductance._GMD_CACHE:
        return []
    raw = np.frombuffer(b"".join(inductance._GMD_CACHE), dtype=">u8")
    flipped = raw.astype(np.uint64) ^ np.uint64(1 << 63)
    return [tuple(int(v) for v in row) for row in flipped.view(np.int64).reshape(-1, 6)]


def _bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


#: Cross sections (width, thickness) and offsets, meters: few enough to
#: repeat keys within and across calls.  Every offset keeps the two
#: rectangles apart, and negative offsets exercise the key order of
#: negative integers.
_SECTIONS = [(1e-6, 1e-6), (2e-6, 0.5e-6), (0.5e-6, 2e-6), (2e-6, 1e-6)]
_OFF_W = [2.5e-6, 3e-6, 4.5e-6, -3e-6]
_OFF_T = [0.0, 1e-6, -2e-6]
#: Displacements below half the key quantum: the same key, another
#: exact geometry -- so the value shows which pair represented the key.
_JITTER = [0.0, 1e-13, -2e-13, 3e-13]

_pairs = st.tuples(
    st.integers(0, len(_SECTIONS) - 1),
    st.integers(0, len(_SECTIONS) - 1),
    st.integers(0, len(_OFF_W) - 1),
    st.integers(0, len(_OFF_T) - 1),
    st.integers(0, len(_JITTER) - 1),
)


def _arrays(pairs):
    sa = np.array([_SECTIONS[p[0]] for p in pairs])
    sb = np.array([_SECTIONS[p[1]] for p in pairs])
    off_w = np.array([_OFF_W[p[2]] + _JITTER[p[4]] for p in pairs])
    off_t = np.array([_OFF_T[p[3]] for p in pairs])
    return sa[:, 0], sa[:, 1], sb[:, 0], sb[:, 1], off_w, off_t


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_gmd_cache()
    yield
    clear_gmd_cache()


def _replay(calls, capacity):
    """Run ``calls`` through both memos from cold, comparing after every call."""
    clear_gmd_cache()
    reference = _ReferenceMemo(capacity)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inductance, "_GMD_CACHE_MAX", capacity)
        for pairs in calls:
            arrays = _arrays(pairs)
            with collect() as profile:
                got = _gmd_grouped(*arrays)
            want, misses, hits = reference.grouped(*arrays)
            assert _bitwise(got, want)
            assert profile.counters["gmd_unique_evals"] == misses
            assert profile.counters["gmd_cache_hits"] == hits
            assert gmd_cache_size() == len(reference.cache)
            assert _memo_keys() == list(reference.cache)


class TestMemoMatchesReference:
    @given(
        st.lists(st.lists(_pairs, min_size=1, max_size=40), min_size=1, max_size=6),
        st.sampled_from([1, 2, 3, 5, 8, 65536]),
    )
    @settings(max_examples=150)
    def test_calls_replay_identically(self, calls, capacity):
        _replay(calls, capacity)

    def test_first_pair_represents_a_shared_key(self):
        # Two exact geometries 2e-13 m apart quantize to one key: the
        # quadrature runs once, on the geometry of the first pair.
        near = [(0, 1, 0, 1, 0), (0, 1, 0, 1, 2)]
        values = _gmd_grouped(*_arrays(near))
        assert values[0] == values[1]
        w_a, t_a, w_b, t_b, off_w, off_t = _arrays(near)
        first = gmd_rectangles(w_a[0], t_a[0], w_b[0], t_b[0], off_w[0], off_t[0])
        other = gmd_rectangles(w_a[1], t_a[1], w_b[1], t_b[1], off_w[1], off_t[1])
        assert first != other
        assert values[0] == first
        clear_gmd_cache()
        assert _gmd_grouped(*_arrays(near[::-1]))[0] == other
        _replay([near, near[::-1]], 65536)

    def test_swapped_sections_share_one_evaluation(self):
        swapped = [(0, 1, 1, 2, 0), (1, 0, 1, 2, 0)]
        with collect() as profile:
            values = _gmd_grouped(*_arrays(swapped))
        assert values[0] == values[1]
        assert profile.counters["gmd_unique_evals"] == 1
        assert profile.counters["gmd_cache_hits"] == 1
        assert gmd_cache_size() == 1
        _replay([swapped, swapped[::-1]], 65536)

    def test_full_cache_evicts_in_the_reference_order(self):
        # Three keys through a two-entry cache: within one call a miss
        # may evict a key the same call touches later, which must then
        # be evaluated again.
        a, b, c = (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 2, 0, 0)
        _replay([[a, b], [c], [a, b, c], [c, a], [b, b, a]], 2)
        _replay([[a, b, c, a]], 1)

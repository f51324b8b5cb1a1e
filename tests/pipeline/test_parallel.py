"""``parallel_map``: ordering, chunking, and the serial threshold."""

import os
import signal
import time

import pytest

from repro.health import WorkerLostError
from repro.pipeline.parallel import (
    DEFAULT_SERIAL_THRESHOLD,
    default_jobs,
    parallel_map,
)


def _identify(item):
    """Module-level (hence picklable) probe: value plus worker pid."""
    return item, os.getpid()


def _die_on_three(item):
    """A worker that is killed under item 3 (as by the OOM killer)."""
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(abs, [-3, 1, -2], jobs=1) == [3, 1, 2]

    def test_pool_preserves_order(self):
        items = list(range(-20, 0))
        assert parallel_map(abs, items, jobs=2) == [abs(i) for i in items]

    def test_chunksize_does_not_change_results(self):
        items = list(range(-20, 0))
        chunked = parallel_map(abs, items, jobs=2, chunksize=7)
        assert chunked == parallel_map(abs, items, jobs=1)

    def test_default_threshold_serializes_single_items(self):
        assert DEFAULT_SERIAL_THRESHOLD == 2
        (_, pid), = parallel_map(_identify, [41], jobs=4)
        assert pid == os.getpid()

    def test_zero_threshold_forces_the_pool(self):
        # Silently serializing small maps hides pool-only bugs; the
        # shared-memory assembly passes 0 so its tests exercise real
        # workers even on one-chunk plans.
        (_, pid), = parallel_map(_identify, [41], jobs=2, serial_threshold=0)
        assert pid != os.getpid()

    def test_high_threshold_keeps_small_maps_serial(self):
        results = parallel_map(
            _identify, [1, 2, 3], jobs=4, serial_threshold=10
        )
        assert [value for value, _ in results] == [1, 2, 3]
        assert all(pid == os.getpid() for _, pid in results)

    def test_empty_items(self):
        assert parallel_map(abs, [], jobs=4) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            parallel_map(abs, [1], jobs=0)
        with pytest.raises(ValueError, match="chunksize"):
            parallel_map(abs, [1], chunksize=0)
        assert default_jobs() >= 1

    def test_dead_worker_raises_worker_lost(self):
        begin = time.monotonic()
        with pytest.raises(WorkerLostError, match="_die_on_three") as caught:
            parallel_map(_die_on_three, range(6), jobs=2, serial_threshold=0)
        assert time.monotonic() - begin < 60.0
        assert caught.value.context["item"] == "_die_on_three"
        # The broken pool was that call's own: the next call succeeds.
        assert parallel_map(abs, [-1, -2], jobs=2, serial_threshold=0) == [1, 2]

"""Process-pool fan-out with deterministic result ordering.

Independent model specs and sweep points are embarrassingly parallel:
each worker builds its geometry, extracts (or loads from the shared
on-disk cache), builds the model, and simulates -- no shared mutable
state.  Results come back in *input order* regardless of completion
order (``ProcessPoolExecutor.map`` preserves ordering), so a parallel
run is reproducible and byte-identical to the serial run of the same
job list; the equivalence tests assert exactly that.

Work functions must be module-level (picklable); per-call configuration
travels via ``functools.partial``.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count used for ``jobs=None``: the CPU count (min 1)."""
    return max(os.cpu_count() or 1, 1)


#: Below this many items a pool is not worth its start-up cost.  The
#: historical behaviour (serialize single-item maps) is the default;
#: callers that *need* the pool exercised at small N (pool regression
#: tests, shared-memory assembly) pass ``serial_threshold=0``.
DEFAULT_SERIAL_THRESHOLD = 2


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
    chunksize: int = 1,
    serial_threshold: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving input order.

    Parameters
    ----------
    fn:
        A picklable (module-level or ``functools.partial``-wrapped)
        callable.
    items:
        The work list; each item is shipped to one worker.
    jobs:
        Worker processes.  ``None`` uses :func:`default_jobs`; ``1``
        runs serially in-process, which keeps small runs free of pool
        start-up cost and makes the serial path the natural baseline
        for the equivalence tests.
    chunksize:
        Items shipped per worker round-trip (forwarded to
        ``ProcessPoolExecutor.map``).  Large fine-grained work lists
        amortize pickling with ``chunksize > 1``; result order is
        input order either way.
    serial_threshold:
        Work lists shorter than this run serially in-process even when
        ``jobs > 1``.  ``None`` keeps the historical default
        (:data:`DEFAULT_SERIAL_THRESHOLD`: only single-item maps
        serialize); pass ``0`` to force the pool even for one item --
        silently serializing small N hides pool bugs (unpicklable work
        functions, shared-memory attach failures) from small tests.

    A worker that dies under an item (killed, out of memory) raises
    :class:`~repro.health.errors.WorkerLostError`; the pool is that
    call's own, so the next call starts a fresh one.
    """
    items = list(items)
    workers = default_jobs() if jobs is None else int(jobs)
    if workers < 1:
        raise ValueError("jobs must be >= 1")
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    threshold = (
        DEFAULT_SERIAL_THRESHOLD if serial_threshold is None else int(serial_threshold)
    )
    if not items:
        return []
    if workers == 1 or len(items) < threshold:
        return [fn(item) for item in items]
    workers = min(workers, max(len(items), 1))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            return list(pool.map(fn, items, chunksize=chunksize))
        except BrokenExecutor as error:
            # Imported here: repro.health imports repro.pipeline.
            from repro.health.errors import WorkerLostError

            name = getattr(fn, "__name__", repr(fn))
            raise WorkerLostError(
                f"a worker process died under {name}",
                context={"item": name},
            ) from error

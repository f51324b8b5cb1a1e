"""Shared-memory columnar store: zero-copy model handoff to workers.

The on-disk content-addressed cache (:mod:`repro.pipeline.cache`) makes
repeated *runs* cheap; a long-running service wants repeated *jobs*
cheap, without one pickle round-trip per job per worker.  This module
promotes cached artifacts to POSIX shared memory:

- :class:`SharedColumnBlock` -- one ``multiprocessing.shared_memory``
  segment laid out as a small pickled *meta* blob plus a directory of
  named, 64-byte-aligned numpy columns.  Attaching reconstructs the
  columns as read-only array views over the segment buffer -- no copy,
  no deserialization of the numeric payload.
- :class:`SharedParasiticsStore` -- a content-addressed registry of
  extracted :class:`~repro.extraction.parasitics.Parasitics`, keyed by
  the same keys as the disk cache.  The service process *owns* the
  segments (creates and eventually unlinks them); workers attach by
  segment name, which travels inside the job payload.
- :func:`attach_parasitics` -- the worker-side entry point, with a
  per-process attachment cache so a pool worker maps each segment once
  and reuses the mapping across jobs.

Lifecycle: the owner unlinks every segment in :meth:`close` (and the
service calls that from its own shutdown path); workers only ever
``close`` their mappings.  Column views pin their mapping through a
real buffer export, so a close racing live views defers (leaking the
mapping) instead of unmapping memory under a reader, and the
worker-side attachment cache is locked so thread-mode workers map
each segment exactly once.  Python < 3.13 registers attached segments
with the resource tracker too, but the tracker process is shared by
the whole (forked) pool and its cache is a per-name set, so worker
registrations collapse into the owner's and the owner's ``unlink``
retires the entry exactly once; a crashed service leaves the tracker
to unlink the leftovers.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.extraction.hierarchical import LazyInductance
from repro.extraction.parasitics import Parasitics
from repro.geometry.filament import Axis
from repro.pipeline.profiling import add_counter

#: Byte alignment of every column payload inside a segment.
_ALIGN = 64

#: Fixed-size little-endian length prefix of the pickled directory.
_HEADER_BYTES = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: Segments whose close was refused by live buffer exports.  Holding
#: them here keeps ``SharedMemory.__del__`` from re-attempting the
#: close (an unraisable ``BufferError``) and pins the mapping for the
#: remaining views; the cost is one leaked mapping per deferral.
_DEFERRED_SEGMENTS: List[shared_memory.SharedMemory] = []


@dataclass
class ShmStats:
    """Owner-side tallies of one :class:`SharedParasiticsStore`."""

    blocks: int = 0
    payload_bytes: int = 0
    hits: int = 0
    misses: int = 0


class SharedColumnBlock:
    """One shared-memory segment of named numpy columns plus metadata.

    Layout: ``[8-byte directory length][pickled directory][aligned
    column payloads]``.  The directory holds the meta blob and, per
    column, ``(name, dtype string, shape, offset)``.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        meta: Any,
        directory: List[Tuple[str, str, Tuple[int, ...], int]],
        owner: bool,
    ) -> None:
        self._segment = segment
        self._meta = meta
        self._directory = directory
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        meta: Any,
        arrays: Mapping[str, np.ndarray],
        name: Optional[str] = None,
    ) -> "SharedColumnBlock":
        """Create a segment holding ``meta`` plus the given columns."""
        packed = {
            key: np.ascontiguousarray(value) for key, value in arrays.items()
        }
        # Two-pass layout: the directory length depends on the offsets,
        # which depend on the directory length.  Fix the directory size
        # by computing offsets against a worst-case header, then pad.
        trial_directory = [
            (key, array.dtype.str, array.shape, 0)
            for key, array in packed.items()
        ]
        header_room = _aligned(
            _HEADER_BYTES + len(pickle.dumps((meta, trial_directory))) + 512
        )
        directory = []
        offset = header_room
        for key, array in packed.items():
            directory.append((key, array.dtype.str, array.shape, offset))
            offset = _aligned(offset + array.nbytes)
        header = pickle.dumps((meta, directory))
        if _HEADER_BYTES + len(header) > header_room:  # pragma: no cover
            raise ValueError("shared-memory directory exceeded its padding")
        segment = shared_memory.SharedMemory(
            create=True, size=max(offset, header_room + 1), name=name
        )
        buffer = segment.buf
        buffer[:_HEADER_BYTES] = len(header).to_bytes(_HEADER_BYTES, "little")
        buffer[_HEADER_BYTES:_HEADER_BYTES + len(header)] = header
        for key, dtype, shape, start in directory:
            array = packed[key]
            buffer[start:start + array.nbytes] = array.tobytes()
        return cls(segment, meta, directory, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedColumnBlock":
        """Map an existing segment (read-only views, never unlinks)."""
        segment = shared_memory.SharedMemory(name=name)
        buffer = segment.buf
        header_length = int.from_bytes(buffer[:_HEADER_BYTES], "little")
        meta, directory = pickle.loads(
            bytes(buffer[_HEADER_BYTES:_HEADER_BYTES + header_length])
        )
        return cls(segment, meta, directory, owner=False)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def meta(self) -> Any:
        return self._meta

    @property
    def nbytes(self) -> int:
        return self._segment.size

    def array(self, key: str) -> np.ndarray:
        """A read-only zero-copy view of one column.

        Views are built with :func:`numpy.frombuffer`, which holds a
        real buffer export on the mapping -- not just an object
        reference -- so closing the segment while a view is alive
        raises ``BufferError`` instead of silently unmapping the
        memory under the view (``np.ndarray(buffer=...)`` does *not*
        pin the export, turning that mistake into a segfault).
        """
        for entry_key, dtype, shape, start in self._directory:
            if entry_key == key:
                typed = np.dtype(dtype)
                count = int(np.prod(shape, dtype=np.int64))
                view: np.ndarray = np.frombuffer(
                    self._segment.buf, dtype=typed, count=count, offset=start
                ).reshape(shape)
                view.flags.writeable = False
                return view
        raise KeyError(f"no column {key!r} in segment {self.name}")

    def arrays(self) -> Dict[str, np.ndarray]:
        return {key: self.array(key) for key, _, _, _ in self._directory}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (owner keeps the segment alive).

        If column views still reference the mapping, unmapping it
        would leave them pointing at unmapped memory; the buffer
        export (see :meth:`array`) makes that attempt raise
        ``BufferError``.  We then *leak the mapping deliberately*:
        the segment object is parked in a module-level registry so
        its ``__del__`` never retries (and never warns), and the
        views stay valid for the life of the process.
        """
        if not self._closed:
            self._closed = True
            try:
                self._segment.close()
            except BufferError:
                _DEFERRED_SEGMENTS.append(self._segment)

    def unlink(self) -> None:
        """Destroy the segment (owner only); mappings elsewhere go stale."""
        if self._owner:
            self._segment.unlink()

    def __enter__(self) -> "SharedColumnBlock":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SharedArrayPool:
    """One flat, *writable* shared-memory array (an assembly scratch pool).

    Where :class:`SharedColumnBlock` publishes finished, read-only
    columns, a pool is the in-progress counterpart: the owner
    preallocates ``capacity`` elements, hands the segment *name* to
    worker processes, and each worker attaches and writes its assigned
    slices in place.  The parallel hierarchical-inductance builder uses
    two of these (near-field dense entries, ACA factors) so factor data
    never rides through pickle on the way back from the pool workers.

    Layout: ``[8-byte element count][aligned float payload]``.  Fresh
    POSIX segments are zero pages, so reserved-but-unwritten tails read
    as zeros (tmpfs allocates pages lazily -- a generous reservation
    costs address space, not resident memory, until written).

    Lifecycle mirrors the column block: the owner eventually ``close``
    + ``unlink``\\ s; workers only ``close``.  A close refused by live
    views (``BufferError``) parks the segment in the same deferred
    registry, so an owner tearing down while zero-copy views are still
    referenced leaks one mapping instead of crashing or unmapping
    memory under a reader.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        count: int,
        dtype: np.dtype,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._count = count
        self._dtype = dtype
        self._owner = owner
        self._closed = False

    @classmethod
    def create(
        cls,
        capacity: int,
        dtype: "np.dtype | type" = np.float64,
        name: Optional[str] = None,
    ) -> "SharedArrayPool":
        """Preallocate a zero-filled pool of ``capacity`` elements."""
        typed = np.dtype(dtype)
        payload = _aligned(_HEADER_BYTES) + max(int(capacity), 1) * typed.itemsize
        segment = shared_memory.SharedMemory(create=True, size=payload, name=name)
        segment.buf[:_HEADER_BYTES] = int(capacity).to_bytes(_HEADER_BYTES, "little")
        return cls(segment, int(capacity), typed, owner=True)

    @classmethod
    def attach(
        cls, name: str, dtype: "np.dtype | type" = np.float64
    ) -> "SharedArrayPool":
        """Map an existing pool for in-place writes (never unlinks)."""
        segment = shared_memory.SharedMemory(name=name)
        count = int.from_bytes(segment.buf[:_HEADER_BYTES], "little")
        return cls(segment, count, np.dtype(dtype), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def capacity(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        return self._segment.size

    @property
    def data(self) -> np.ndarray:
        """The full writable pool view (zero-copy, pins the mapping)."""
        return self.view(0, self._count)

    def view(self, offset: int, count: int) -> np.ndarray:
        """A writable zero-copy slice ``[offset, offset + count)``.

        Like the column views, built with :func:`numpy.frombuffer` so
        the mapping is pinned by a real buffer export; unlike them it
        stays writable -- that is the point of a pool.
        """
        if offset < 0 or count < 0 or offset + count > self._count:
            raise ValueError(
                f"pool slice [{offset}, {offset + count}) outside "
                f"capacity {self._count}"
            )
        return np.frombuffer(
            self._segment.buf,
            dtype=self._dtype,
            count=count,
            offset=_aligned(_HEADER_BYTES) + offset * self._dtype.itemsize,
        )

    def close(self) -> None:
        """Drop this mapping; defer (leak it) if live views pin it."""
        if not self._closed:
            self._closed = True
            try:
                self._segment.close()
            except BufferError:
                _DEFERRED_SEGMENTS.append(self._segment)

    def unlink(self) -> None:
        """Destroy the segment (owner only)."""
        if self._owner:
            self._segment.unlink()

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Parasitics <-> columns
# ----------------------------------------------------------------------
def parasitics_columns(
    parasitics: Parasitics,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Split parasitics into a small meta blob plus pure-array columns.

    Everything numeric -- the per-axis blocks and their index lists, R,
    Cg, and the coupling dict flattened to pair/value arrays -- becomes
    a column; the geometry (small frozen dataclasses), axis ordering,
    and block kinds ride in the meta blob.  The full L matrix is *not*
    stored: it is a derived view of the blocks (the single-axis common
    case aliases its block with zero copy on reconstruction), so
    shipping it would double every segment.  Hierarchical operator
    blocks contribute their flat storage arrays as prefixed columns and
    reattach zero-copy on the worker side.
    """
    pairs = sorted(parasitics.coupling_capacitance)
    arrays: Dict[str, np.ndarray] = {
        "resistance": parasitics.resistance,
        "ground_capacitance": parasitics.ground_capacitance,
        "coupling_pairs": np.asarray(pairs, dtype=np.int64).reshape(
            len(pairs), 2
        ),
        "coupling_values": np.asarray(
            [parasitics.coupling_capacitance[pair] for pair in pairs],
            dtype=np.float64,
        ),
    }
    axes = []
    block_meta: Dict[str, Any] = {}
    for axis, (indices, block) in parasitics.inductance_blocks.items():
        axes.append(axis.name)
        arrays[f"block_index_{axis.name}"] = np.asarray(
            indices, dtype=np.int64
        )
        if isinstance(block, LazyInductance):
            hier_meta, hier_arrays = block.columns()
            block_meta[axis.name] = {"kind": "hierarchical", "meta": hier_meta}
            for name, array in hier_arrays.items():
                arrays[f"hier_{axis.name}_{name}"] = array
        else:
            block_meta[axis.name] = {"kind": "dense"}
            arrays[f"block_{axis.name}"] = block
    meta = {"system": parasitics.system, "axes": axes, "blocks": block_meta}
    return meta, arrays


def parasitics_from_block(block: SharedColumnBlock) -> Parasitics:
    """Reconstruct parasitics whose arrays are views into the segment.

    The block stays referenced by the returned object's arrays (their
    ``base`` chain holds the mapped buffer), so the mapping lives as
    long as the parasitics do.
    """
    meta = block.meta
    columns = block.arrays()
    block_meta = meta.get("blocks", {})
    blocks: Dict[Axis, Tuple[List[int], Any]] = {}
    for name in meta["axes"]:
        indices = columns[f"block_index_{name}"].tolist()
        info = block_meta.get(name, {"kind": "dense"})
        if info["kind"] == "hierarchical":
            prefix = f"hier_{name}_"
            hier_arrays = {
                key[len(prefix):]: array
                for key, array in columns.items()
                if key.startswith(prefix)
            }
            blocks[Axis[name]] = (
                indices,
                LazyInductance.from_columns(info["meta"], hier_arrays),
            )
        else:
            blocks[Axis[name]] = (indices, columns[f"block_{name}"])
    pairs = columns["coupling_pairs"]
    values = columns["coupling_values"]
    coupling = {
        (int(pairs[i, 0]), int(pairs[i, 1])): float(values[i])
        for i in range(pairs.shape[0])
    }
    return Parasitics(
        system=meta["system"],
        inductance_blocks=blocks,
        resistance=columns["resistance"],
        ground_capacitance=columns["ground_capacitance"],
        coupling_capacitance=coupling,
    )


# ----------------------------------------------------------------------
# Owner-side store and worker-side attachment cache
# ----------------------------------------------------------------------
@dataclass
class SharedParasiticsStore:
    """Content-addressed shared-memory cache of extracted parasitics.

    The creating process owns every segment; :meth:`close` unlinks them
    all.  Keys are the disk cache's content hashes, so an entry is
    valid for exactly the requests the disk cache would serve.
    """

    prefix: str = field(
        default_factory=lambda: f"repro{os.getpid() % 0xFFFF:04x}"
        f"{secrets.token_hex(3)}"
    )
    stats: ShmStats = field(default_factory=ShmStats)
    _blocks: Dict[str, SharedColumnBlock] = field(default_factory=dict)
    _closed: bool = False

    def __post_init__(self) -> None:
        # Start the resource tracker *now*, before any worker fork.  A
        # worker forked while the tracker is down spawns its own, whose
        # exit-time cleanup would unlink our segments out from under us
        # (see the module docstring); forked after this point, workers
        # inherit this process's tracker and registrations collapse.
        resource_tracker.ensure_running()

    def segment_name(self, key: str) -> Optional[str]:
        """The segment holding ``key``, or ``None``."""
        block = self._blocks.get(key)
        if block is None:
            self.stats.misses += 1
            add_counter("shm_misses")
            return None
        self.stats.hits += 1
        add_counter("shm_hits")
        return block.name

    def put(self, key: str, parasitics: Parasitics) -> str:
        """Publish parasitics under ``key``; returns the segment name."""
        if self._closed:
            raise RuntimeError("shared-memory store is closed")
        block = self._blocks.get(key)
        if block is not None:
            return block.name
        meta, arrays = parasitics_columns(parasitics)
        block = SharedColumnBlock.create(
            meta, arrays, name=f"{self.prefix}-{key[:16]}"
        )
        self._blocks[key] = block
        self.stats.blocks += 1
        self.stats.payload_bytes += block.nbytes
        add_counter("shm_blocks_created")
        return block.name

    def get(self, key: str) -> Optional[Parasitics]:
        """Owner-side zero-copy view of a stored entry."""
        block = self._blocks.get(key)
        if block is None:
            return None
        return parasitics_from_block(block)

    def __len__(self) -> int:
        return len(self._blocks)

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for block in self._blocks.values():
            block.close()
            block.unlink()
        self._blocks.clear()


#: Worker-process attachment cache: each pool worker maps a segment
#: once and reuses the mapping for every later job that names it.
#: Guarded by a lock: in thread mode the "workers" share this process,
#: and a racy first touch would map the segment twice -- the loser's
#: mapping is garbage-collected (unmapped) while its caller still
#: holds views into it.
_ATTACHED: Dict[str, SharedColumnBlock] = {}
_ATTACH_LOCK = threading.Lock()


def attach_parasitics(segment_name: str) -> Parasitics:
    """Worker-side zero-copy reconstruction of published parasitics."""
    with _ATTACH_LOCK:
        block = _ATTACHED.get(segment_name)
        if block is None:
            block = SharedColumnBlock.attach(segment_name)
            _ATTACHED[segment_name] = block
            add_counter("shm_worker_attaches")
    return parasitics_from_block(block)


def detach_all() -> None:
    """Drop this process's cached attachments (tests / worker shutdown)."""
    with _ATTACH_LOCK:
        for block in _ATTACHED.values():
            block.close()
        _ATTACHED.clear()

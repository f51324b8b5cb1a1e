"""Hierarchical block low-rank partial inductance (the 100k+ scale path).

The dense assembly in :mod:`repro.extraction.inductance` evaluates (or
at least stores) every pair, which caps end-to-end runs at a few
thousand filaments: O(N^2) memory for the block and O(N^2) pair work on
irregular geometries.  This module replaces the dense per-axis block
with a *hierarchical block low-rank* operator that is never
materialized:

- filaments are clustered by an axis-aligned bounding-box tree over
  their centerlines (recursive median bisection of the widest box
  dimension, so the tree is deterministic for a given geometry);
- *near-field* cluster pairs -- not well separated -- are evaluated
  exactly with the same Neumann/GMD kernels as the dense path, one
  dense block per leaf pair;
- *far-field* pairs satisfying the admissibility condition
  ``max(diam_a, diam_b) <= eta * dist(box_a, box_b)`` are compressed
  with partially pivoted adaptive cross approximation (ACA) under a
  user-set relative cutoff; blocks that refuse to compress fall back to
  dense evaluation, so the cutoff bounds the error but never the
  correctness.

Storage and build cost are O(N b^2 + N log N) instead of O(N^2); the
118k-filament runs in ``BENCH_extraction_scale.json`` fit in a few
hundred MB where the dense block alone would need tens of GB.

The result is exposed as a :class:`LazyInductance` operator with a
``gather(rows, cols)`` interface returning exact dense submatrices:
near-field entries verbatim (bit-identical to the pairwise dense path),
far-field entries re-expanded from their low-rank factors on demand.
``repro.vpec.windowing`` feeds its window solves and ``repro.noise``
its screening tier straight from the tree, so the full matrix never
exists at any point of the extract -> wVPEC -> noise-scan flow.

The operator is a plain bundle of flat numpy arrays (tree nodes, block
directory, two data pools), so it pickles compactly for the pipeline
cache and maps zero-copy through the shared-memory parasitics store.
"""

from __future__ import annotations

import atexit
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.extraction.inductance import (
    _COLLINEAR_TOL,
    _GMD_CUTOFF,
    _gmd_grouped,
    _mutual_collinear_vec,
    _mutual_parallel_vec,
    axis_geometry,
    self_inductance_bar,
)
from repro.geometry.filament import Axis
from repro.geometry.system import FilamentSystem
from repro.pipeline.parallel import parallel_map
from repro.pipeline.profiling import (
    active_profile,
    add_counter,
    collect,
    stage,
)

#: Block kinds in the block directory (column 2 of ``block_table``).
#: ``_KIND_DENSE_SPILL`` is a dense block that lives in the *factor*
#: pool: an admissible pair whose ACA refused to converge.  The
#: parallel builder reserves factor-pool space per admissible block
#: before the workers run, so a fallback block lands in the reservation
#: it already owns (or, when even that is too small, rides back to the
#: owner and is appended during compaction) instead of fighting the
#: dense pool's precomputed layout.
_KIND_DENSE = 0
_KIND_LOWRANK = 1
_KIND_DENSE_SPILL = 2

#: Entries per pass of :meth:`LazyInductance.gather_stack`: bounds the
#: gather's per-entry scratch (a handful of int64/float64 arrays).
_GATHER_CHUNK_PAIRS = 1 << 16


@dataclass(frozen=True)
class HierarchicalConfig:
    """Tuning knobs of the hierarchical builder: cluster-tree / ACA
    parameters; ``cutoff=0`` disables compression and reproduces the
    dense entries bit for bit.

    ``leaf_size`` bounds cluster leaves (near-field dense blocks are at
    most ``leaf_size`` square).  ``eta`` is the admissibility parameter:
    a cluster pair is compressible when ``max(diam) <= eta * dist``;
    larger values compress more aggressively, smaller values keep more
    of the matrix exact.  ``cutoff`` is the relative Frobenius tolerance
    of the ACA factorization (``0`` disables compression entirely --
    every block is then evaluated exactly and ``gather`` is
    bit-identical to the dense pairwise path).  ``max_rank`` caps the
    ACA rank; a block that has not converged by then is stored dense.
    """

    leaf_size: int = 64
    eta: float = 2.0
    cutoff: float = 1e-8
    max_rank: int = 64

    def __post_init__(self) -> None:
        if self.leaf_size < 2:
            raise ValueError("leaf_size must be >= 2")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")

    @property
    def compress(self) -> bool:
        return self.cutoff > 0.0


DEFAULT_CONFIG = HierarchicalConfig()


# ----------------------------------------------------------------------
# Exact pairwise evaluator (bit-identical to the dense general path)
# ----------------------------------------------------------------------
class _PairEvaluator:
    """Exact Neumann/GMD entries for arbitrary index pairs of one axis.

    Works in *tree* coordinates (the arrays are permuted into cluster
    order up front); ``orig`` maps tree slots back to axis-local
    positions so each unordered pair is canonicalized exactly the way
    ``_general_block`` orders its upper triangle (low axis-local index
    first).  Every float operation -- ``hypot`` distance, GMD cutoff
    test, the shared GMD LRU, the Neumann/collinear kernels -- is the
    same elementwise sequence as the dense path, so entries agree bit
    for bit with the general (non-lattice) dense assembly.
    """

    __slots__ = (
        "lengths",
        "widths",
        "thicknesses",
        "starts",
        "center_w",
        "center_t",
        "orig",
        "dims",
        "diagonal",
        "gmd_correction",
    )

    def __init__(
        self,
        lengths: np.ndarray,
        widths: np.ndarray,
        thicknesses: np.ndarray,
        starts: np.ndarray,
        centers: np.ndarray,
        orig: np.ndarray,
        gmd_correction: bool,
    ) -> None:
        self.lengths = lengths
        self.widths = widths
        self.thicknesses = thicknesses
        self.starts = starts
        self.center_w = np.ascontiguousarray(centers[:, 0])
        self.center_t = np.ascontiguousarray(centers[:, 1])
        self.orig = orig
        self.dims = np.maximum(widths, thicknesses)
        self.diagonal = np.asarray(
            self_inductance_bar(lengths, widths, thicknesses), dtype=float
        ).reshape(lengths.size)
        self.gmd_correction = gmd_correction

    def entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``L`` entries of pairs ``(i, j)`` (tree coordinates)."""
        add_counter("hier_kernel_calls")
        i = np.asarray(i, dtype=np.intp)
        j = np.asarray(j, dtype=np.intp)
        diag = i == j
        if not diag.any():
            return self._off_diagonal(i, j)
        values = np.empty(i.size)
        values[diag] = self.diagonal[i[diag]]
        off = np.nonzero(~diag)[0]
        if off.size:
            values[off] = self._off_diagonal(i[off], j[off])
        return values

    def _off_diagonal(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # Canonical pair order: low axis-local position first, exactly
        # like the upper-triangle enumeration of the dense path.
        swap = self.orig[i] > self.orig[j]
        a = np.where(swap, j, i)
        b = np.where(swap, i, j)
        dy = self.center_w[a] - self.center_w[b]
        dz = self.center_t[a] - self.center_t[b]
        distance = np.hypot(dy, dz)
        offset = self.starts[b] - self.starts[a]
        len_a = self.lengths[a]
        len_b = self.lengths[b]

        lateral = distance > _COLLINEAR_TOL
        eff = distance.copy()
        if self.gmd_correction:
            pair_dim = np.maximum(self.dims[a], self.dims[b])
            close = lateral & (distance < _GMD_CUTOFF * pair_dim)
            sel = np.nonzero(close)[0]
            if sel.size:
                eff[sel] = _gmd_grouped(
                    self.widths[a[sel]],
                    self.thicknesses[a[sel]],
                    self.widths[b[sel]],
                    self.thicknesses[b[sel]],
                    np.abs(dy[sel]),
                    np.abs(dz[sel]),
                )

        if lateral.all():
            return _mutual_parallel_vec(len_a, len_b, eff, offset)
        values = np.zeros(a.size)
        lat = np.nonzero(lateral)[0]
        if lat.size:
            values[lat] = _mutual_parallel_vec(
                len_a[lat], len_b[lat], eff[lat], offset[lat]
            )
        col = np.nonzero(~lateral)[0]
        values[col] = _mutual_collinear_vec(len_a[col], len_b[col], offset[col])
        return values

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), len(cols))`` block (tree coordinates)."""
        ii = np.repeat(np.asarray(rows, dtype=np.intp), len(cols))
        jj = np.tile(np.asarray(cols, dtype=np.intp), len(rows))
        return self.batch_entries(ii, jj).reshape(len(rows), len(cols))

    def batch_entries(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """One :meth:`entries` call that counts its kernel entries: a
        dense block, or the pivot rows or columns of an ACA round."""
        values = self.entries(i, j)
        add_counter("hier_kernel_entries", values.size)
        return values


# ----------------------------------------------------------------------
# Cluster tree
# ----------------------------------------------------------------------
def _build_cluster_tree(
    box_min: np.ndarray, box_max: np.ndarray, leaf_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Median-bisection AABB tree over per-filament boxes.

    Returns ``(perm, node_lo, node_hi, node_left, node_right,
    node_box_min, node_box_max)``: ``perm[p]`` is the axis-local
    position stored at tree slot ``p``; each node covers the contiguous
    slot range ``[lo, hi)``; ``left/right`` are child node ids (-1 for
    leaves); the node boxes are unions of the member filament boxes.
    Splits bisect the widest dimension of the member centers at the
    median slot, with a stable argsort so the tree is deterministic.
    """
    n = box_min.shape[0]
    points = (box_min + box_max) / 2.0
    perm = np.arange(n, dtype=np.int64)
    lo_list: List[int] = []
    hi_list: List[int] = []
    left_list: List[int] = []
    right_list: List[int] = []
    # (lo, hi) ranges to process; parents patched once children exist.
    pending: List[Tuple[int, int, int]] = [(0, n, -1)]
    while pending:
        lo, hi, parent_slot = pending.pop()
        node = len(lo_list)
        lo_list.append(lo)
        hi_list.append(hi)
        left_list.append(-1)
        right_list.append(-1)
        if parent_slot >= 0:
            if left_list[parent_slot] == -1:
                left_list[parent_slot] = node
            else:
                right_list[parent_slot] = node
        if hi - lo <= leaf_size:
            continue
        members = perm[lo:hi]
        spread = np.ptp(points[members], axis=0)
        dim = int(np.argmax(spread))
        order = np.argsort(points[members, dim], kind="stable")
        perm[lo:hi] = members[order]
        mid = lo + (hi - lo) // 2
        # LIFO stack: push right first so the left child is numbered
        # first (pre-order), keeping the layout deterministic.
        pending.append((mid, hi, node))
        pending.append((lo, mid, node))
    node_lo = np.asarray(lo_list, dtype=np.int64)
    node_hi = np.asarray(hi_list, dtype=np.int64)
    node_left = np.asarray(left_list, dtype=np.int64)
    node_right = np.asarray(right_list, dtype=np.int64)
    m = node_lo.size
    node_box_min = np.empty((m, 3))
    node_box_max = np.empty((m, 3))
    sorted_min = box_min[perm]
    sorted_max = box_max[perm]
    # Children are numbered after their parent (pre-order), so a reverse
    # sweep can union child boxes; leaves reduce over their slot range.
    for node in range(m - 1, -1, -1):
        if node_left[node] == -1:
            node_box_min[node] = sorted_min[node_lo[node]:node_hi[node]].min(axis=0)
            node_box_max[node] = sorted_max[node_lo[node]:node_hi[node]].max(axis=0)
        else:
            left, right = node_left[node], node_right[node]
            node_box_min[node] = np.minimum(node_box_min[left], node_box_min[right])
            node_box_max[node] = np.maximum(node_box_max[left], node_box_max[right])
    return perm, node_lo, node_hi, node_left, node_right, node_box_min, node_box_max


def _box_distance(
    min_a: np.ndarray, max_a: np.ndarray, min_b: np.ndarray, max_b: np.ndarray
) -> float:
    gap = np.maximum(0.0, np.maximum(min_b - max_a, min_a - max_b))
    return float(np.sqrt(np.sum(gap * gap)))


def _box_diameter(min_box: np.ndarray, max_box: np.ndarray) -> float:
    extent = max_box - min_box
    return float(np.sqrt(np.sum(extent * extent)))


# ----------------------------------------------------------------------
# Adaptive cross approximation, in lockstep over groups of blocks
# ----------------------------------------------------------------------
#: Admissible blocks compressed together.  Every round of a group sends
#: each live block's pivot row through one kernel call and each pivot
#: column through one more, so kernel calls scale with a group's rounds
#: (its largest rank), not with the sum of its blocks' ranks.  The bound
#: caps the factors held in flight: a block's factors stay in its shape
#: class only until it finishes.
_ACA_GROUP = 64

#: Factor rows per storage chunk of an :class:`_AcaClass`: a new factor
#: never copies the old ones, and dropping finished blocks copies one
#: chunk at a time, so a class's storage outgrows its factors by less
#: than one chunk.
_ACA_CHUNK = 8


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products ``a[..., :] @ b[..., :]``.

    ``matmul`` of a ``(1, n)`` by an ``(n, 1)`` item calls BLAS ``ddot``,
    as ``a[k] @ b[k]`` does on one pair of vectors, so every product is
    the bits a per-block loop computes (``einsum`` sums in another
    order).
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class _AcaClass:
    """Partially pivoted ACA of the blocks of one shape ``(m, n, cap)``
    that hold the same number of factors, stepped together.

    Builds ``U (k, m)`` and ``V (k, n)`` factor rows per block with an
    estimated relative Frobenius error ``||A - U^T V||_F <= tol
    ||A||_F``, doing per step the arithmetic of the single-block loop
    over arrays that hold every block of the class: the residual and
    column updates subtract the factors one at a time, left to right;
    the dots are BLAS ``ddot`` per row (:func:`_dots`); the cross term
    of the Frobenius estimate is summed left to right from ``0.0``.
    The factors therefore do not depend on the group or class a block
    ran in.  Factor rows live in chunks of :data:`_ACA_CHUNK` rows.

    A block whose pivot row is exactly zero gains no factor in that
    step, so it leaves for a class of its own (:meth:`split`): within a
    class every block always holds ``k`` factors.
    """

    __slots__ = (
        "index",
        "row_lo",
        "col_lo",
        "m",
        "n",
        "cap",
        "us",
        "vs",
        "k",
        "used",
        "pivot_row",
        "pivot_col",
        "frob2",
    )

    def __init__(
        self,
        index: np.ndarray,
        row_lo: np.ndarray,
        col_lo: np.ndarray,
        m: int,
        n: int,
        cap: int,
    ) -> None:
        self.index = index
        self.row_lo = row_lo
        self.col_lo = col_lo
        self.m = m
        self.n = n
        self.cap = cap
        self.us: List[np.ndarray] = []
        self.vs: List[np.ndarray] = []
        self.k = 0
        self.used = np.zeros((index.size, m), dtype=bool)
        self.pivot_row = np.zeros(index.size, dtype=np.intp)
        self.pivot_col = np.zeros(index.size, dtype=np.intp)
        self.frob2 = np.zeros(index.size)

    #: Attributes that hold one entry per block.
    _PER_BLOCK = (
        "index", "row_lo", "col_lo", "used", "pivot_row", "pivot_col", "frob2"
    )

    def keep(self, mask: np.ndarray) -> None:
        """Drop the blocks outside ``mask``, one chunk at a time."""
        for name in self._PER_BLOCK:
            setattr(self, name, getattr(self, name)[mask])
        for chunks in (self.us, self.vs):
            for c, chunk in enumerate(chunks):
                chunks[c] = chunk[mask]

    def split(self, mask: np.ndarray) -> "_AcaClass":
        """Move the blocks of ``mask`` to a new class; keep the rest."""
        part = object.__new__(_AcaClass)
        part.m, part.n, part.cap, part.k = self.m, self.n, self.cap, self.k
        for name in self._PER_BLOCK:
            setattr(part, name, getattr(self, name)[mask])
        part.us = [chunk[mask] for chunk in self.us]
        part.vs = [chunk[mask] for chunk in self.vs]
        self.keep(~mask)
        return part

    def factors(self, block: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(k, m)`` and ``(k, n)`` factor rows of one block."""
        u = np.concatenate([chunk[block] for chunk in self.us])
        v = np.concatenate([chunk[block] for chunk in self.vs])
        return u[: self.k], v[: self.k]

    def _rows(self, chunks: List[np.ndarray]) -> Iterator[Tuple[np.ndarray, int]]:
        """The filled part of each chunk: ``(chunk, rows)``."""
        for c, chunk in enumerate(chunks):
            rows = min(_ACA_CHUNK, self.k - c * _ACA_CHUNK)
            if rows > 0:
                yield chunk, rows

    def _subtract(
        self,
        x: np.ndarray,
        coefficients: List[np.ndarray],
        at: np.ndarray,
        rows: List[np.ndarray],
    ) -> None:
        """``x - c_0 b_0 - c_1 b_1 - ...`` in place, left to right, with
        ``c_t = coefficients[t][at]`` and ``b_t = rows[t]`` per block."""
        blocks = np.arange(x.shape[0])
        for (coef, count), (row, _) in zip(self._rows(coefficients), self._rows(rows)):
            picked = coef[blocks, :count, at]
            for t in range(count):
                x -= picked[:, t, None] * row[:, t]

    def _slot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the factor row ``k``, adding a chunk when it is full."""
        c, r = divmod(self.k, _ACA_CHUNK)
        if c == len(self.us):
            self.us.append(np.empty((self.index.size, _ACA_CHUNK, self.m)))
            self.vs.append(np.empty((self.index.size, _ACA_CHUNK, self.n)))
        return self.us[c][:, r], self.vs[c][:, r]

    def take_rows(
        self, x: np.ndarray, step: int
    ) -> Tuple[Optional["_AcaClass"], List["_Finished"]]:
        """Consume the pivot rows ``x (blocks, n)`` of round ``step``.

        Blocks with a nonzero pivot stay, their scaled residual rows in
        factor slot ``k``; they need their pivot columns.  Returns the
        class of the blocks whose residual row was exactly zero (each
        re-picked to its first unused row; ``None`` when there are none)
        and the blocks that finished.
        """
        self._subtract(x, self.us, self.pivot_row, self.vs)
        blocks = np.arange(x.shape[0])
        self.used[blocks, self.pivot_row] = True
        pivot_col = np.argmax(np.abs(x), axis=1)
        pivot = x[blocks, pivot_col]
        zero = pivot == 0.0
        finished: List[_Finished] = []
        stalled = None
        if zero.any():
            stalled = self.split(zero)
            x, pivot_col, pivot = x[~zero], pivot_col[~zero], pivot[~zero]
            done = np.zeros(stalled.index.size, dtype=bool)
            for b in range(done.size):
                remaining = np.flatnonzero(~stalled.used[b])
                if remaining.size == 0:
                    # Every row used and the residual zero: converged.
                    finished.append(stalled._finish(b, True))
                    done[b] = True
                    continue
                stalled.pivot_row[b] = remaining[0]
                if step >= self.cap + self.m:
                    finished.append(stalled._finish(b, False))
                    done[b] = True
            stalled.keep(~done)
        self.pivot_col = pivot_col
        if self.index.size:
            np.divide(x, pivot[:, None], out=self._slot()[1])
        return stalled, finished

    def take_cols(self, u: np.ndarray, step: int, tol: float) -> List["_Finished"]:
        """Consume the pivot columns ``u (blocks, m)`` and finish the
        step; returns the blocks that finished."""
        self._subtract(u, self.vs, self.pivot_col, self.us)
        u_new, v_new = self._slot()
        u_new[...] = u
        norm_u2 = _dots(u_new, u_new)
        norm_v2 = _dots(v_new, v_new)
        # The cross terms (u . u_t)(v . v_t), summed left to right from
        # 0.0 down the leading axis: ``accumulate`` never reorders a sum
        # (a reduction along a contiguous axis sums pairwise).
        terms = np.zeros((self.k + 1, self.index.size))
        row = 1
        for (u_rows, count), (v_rows, _) in zip(
            self._rows(self.us), self._rows(self.vs)
        ):
            terms[row:row + count] = (
                _dots(u_rows[:, :count], u_new[:, None])
                * _dots(v_rows[:, :count], v_new[:, None])
            ).T
            row += count
        cross = np.add.accumulate(terms, axis=0)[-1]
        prod = norm_u2 * norm_v2
        estimate = self.frob2 + prod + 2.0 * cross
        # Python's max(estimate, prod).
        self.frob2 = np.where(prod > estimate, prod, estimate)
        self.k += 1
        converged = prod <= tol * tol * self.frob2
        done = converged | (self.k >= self.cap) | (step >= self.cap + self.m)
        candidates = np.abs(u_new)
        candidates[self.used] = -1.0
        self.pivot_row = np.argmax(candidates, axis=1)
        finished = [self._finish(b, bool(converged[b])) for b in np.flatnonzero(done)]
        if finished:
            self.keep(~done)
        return finished

    def _finish(self, block: int, converged: bool) -> "_Finished":
        """``(plan row, factor rows)`` of a finished block; the factors
        are ``None`` when it refused to converge within ``cap`` or they
        would not be smaller than the dense block."""
        stored = converged and 0 < self.k * (self.m + self.n) < self.m * self.n
        return int(self.index[block]), self.factors(block) if stored else None


#: A finished block: its plan row and its ``(k, m)``/``(k, n)`` factor
#: rows, ``None`` for a block stored dense.
_Finished = Tuple[int, Optional[Tuple[np.ndarray, np.ndarray]]]


def _lockstep_entries(
    evaluator: _PairEvaluator, classes: List[_AcaClass], rows: bool
) -> List[np.ndarray]:
    """One kernel call for the pivot rows (``rows``) or the pivot
    columns of every block of ``classes``, requested in plan order;
    returns each class's ``(blocks, n)`` rows or ``(blocks, m)``
    columns."""
    index = np.concatenate([c.index for c in classes])
    if rows:
        fixed = [c.row_lo + c.pivot_row for c in classes]
        starts = [c.col_lo for c in classes]
        widths = [c.n for c in classes]
    else:
        fixed = [c.col_lo + c.pivot_col for c in classes]
        starts = [c.row_lo for c in classes]
        widths = [c.m for c in classes]
    width = np.repeat(widths, [c.index.size for c in classes])
    order = np.argsort(index)
    sizes = width[order]
    offsets = np.cumsum(sizes) - sizes
    pivots = np.repeat(np.concatenate(fixed)[order], sizes)
    spans = np.arange(sizes.sum()) + np.repeat(
        np.concatenate(starts)[order] - offsets, sizes
    )
    values = evaluator.batch_entries(*((pivots, spans) if rows else (spans, pivots)))
    where = np.empty_like(offsets)
    where[order] = offsets
    out = []
    lo = 0
    for cls, size in zip(classes, widths):
        hi = lo + cls.index.size
        out.append(values[where[lo:hi, None] + np.arange(size)])
        lo = hi
    return out


def _aca_group(
    evaluator: _PairEvaluator,
    index: np.ndarray,
    row_lo: np.ndarray,
    col_lo: np.ndarray,
    shapes: np.ndarray,
    tol: float,
) -> Iterator[_Finished]:
    """Run a group of ACA blocks in lockstep; yield each as it finishes.

    Block ``k`` is plan row ``index[k]`` over tree slots ``row_lo[k] +
    range(m)`` by ``col_lo[k] + range(n)``, with ``shapes[k] = (m, n,
    cap)``.  A round evaluates every live block's pivot row in one
    kernel call, then the pivot columns of the blocks that found a
    nonzero pivot in one more, both in plan order.  Between the calls
    each shape class steps all its blocks at once (:class:`_AcaClass`).
    Blocks that finish in a round are yielded at its end, in plan order,
    so their factors can go to storage right away.
    """
    keys, member = np.unique(shapes, axis=0, return_inverse=True)
    member = member.ravel()
    classes = []
    for c, (m, n, cap) in enumerate(keys.tolist()):
        sel = member == c
        classes.append(_AcaClass(index[sel], row_lo[sel], col_lo[sel], m, n, cap))
    step = 0
    while classes:
        step += 1
        finished: List[_Finished] = []
        pending: List[_AcaClass] = []
        stalled: List[_AcaClass] = []
        for cls, x in zip(classes, _lockstep_entries(evaluator, classes, True)):
            part, done = cls.take_rows(x, step)
            finished += done
            if cls.index.size:
                pending.append(cls)
            if part is not None and part.index.size:
                stalled.append(part)
        if pending:
            for cls, u in zip(pending, _lockstep_entries(evaluator, pending, False)):
                finished += cls.take_cols(u, step, tol)
        finished.sort(key=lambda item: item[0])
        yield from finished
        classes = [cls for cls in pending + stalled if cls.index.size]


# ----------------------------------------------------------------------
# The operator
# ----------------------------------------------------------------------
class LazyInductance:
    """Hierarchical block low-rank view of one per-axis ``L`` block:
    ``gather(rows, cols)`` / ``gather_stack(windows)`` return exact dense
    submatrices, plus ``diagonal()``, ``wire_sums(wire_of, num_wires)``,
    ``toarray()`` and ``compression_stats()``; picklable and
    shared-memory-columnable.

    Semantically a symmetric ``(n, n)`` matrix in the axis group's local
    index space, stored as a cluster tree plus a directory of dense
    near-field blocks and low-rank far-field factors over flat float
    pools -- the full matrix is never materialized unless
    :meth:`toarray` is explicitly asked for it.

    Everything lives in six flat numpy arrays plus a small config blob
    (see :meth:`columns`), which is what makes the operator pickle
    compactly for the pipeline cache and reconstruct zero-copy from
    shared-memory segments.
    """

    def __init__(
        self,
        n: int,
        perm: np.ndarray,
        node_lo: np.ndarray,
        node_hi: np.ndarray,
        node_left: np.ndarray,
        node_right: np.ndarray,
        block_table: np.ndarray,
        dense_data: np.ndarray,
        lr_data: np.ndarray,
        config: HierarchicalConfig,
    ) -> None:
        self.n = int(n)
        self.perm = perm
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.node_left = node_left
        self.node_right = node_right
        self.block_table = block_table
        self.dense_data = dense_data
        self.lr_data = lr_data
        self.config = config
        self._rebuild_views()

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _rebuild_views(self) -> None:
        self.inv_perm = np.empty(self.n, dtype=np.int64)
        self.inv_perm[self.perm] = np.arange(self.n, dtype=np.int64)
        self._blocks: Dict[Tuple[int, int], Tuple[int, Any, Any]] = {}
        for row in range(self.block_table.shape[0]):
            a, b, kind, offset, rank = (
                int(v) for v in self.block_table[row, :5]
            )
            ra = int(self.node_hi[a] - self.node_lo[a])
            rb = int(self.node_hi[b] - self.node_lo[b])
            if kind == _KIND_DENSE:
                data = self.dense_data[offset:offset + ra * rb]
                self._blocks[(a, b)] = (kind, data.reshape(ra, rb), None)
            elif kind == _KIND_DENSE_SPILL:
                # Dense payload stored in the factor pool; downstream
                # consumers only ever see the normalized dense kind.
                data = self.lr_data[offset:offset + ra * rb]
                self._blocks[(a, b)] = (
                    _KIND_DENSE,
                    data.reshape(ra, rb),
                    None,
                )
            else:
                u = self.lr_data[offset:offset + ra * rank]
                v = self.lr_data[offset + ra * rank:offset + ra * rank + rank * rb]
                self._blocks[(a, b)] = (
                    kind,
                    u.reshape(ra, rank),
                    v.reshape(rank, rb),
                )
        # The gather's block cover: leaves ranked in slot order, the leaf
        # rank of every tree slot, and one sorted key per (leaf row,
        # block) -- ``row * leaves + first leaf column`` -- whose block
        # covers that leaf row from that column on.  Stored blocks put
        # the earlier node first and tile the slot matrix, so each leaf
        # row's keys partition the columns from the diagonal rightwards.
        leaves = np.flatnonzero(self.node_left == -1)
        leaf_lo = np.sort(self.node_lo[leaves])
        self._num_leaves = leaf_lo.size
        self._slot_leaf = np.searchsorted(leaf_lo, np.arange(self.n), "right") - 1
        first = np.searchsorted(leaf_lo, self.node_lo)
        end = np.searchsorted(leaf_lo, self.node_hi)
        row_node = self.block_table[:, 0]
        spans = end[row_node] - first[row_node]
        owner = np.repeat(np.arange(spans.size), spans)
        leaf_row = (
            np.arange(owner.size)
            - np.repeat(np.cumsum(spans) - spans, spans)
            + first[row_node][owner]
        )
        keys = leaf_row * self._num_leaves + first[self.block_table[owner, 1]]
        order = np.argsort(keys)
        self._cover_keys = keys[order]
        self._cover_block = owner[order]

    # ------------------------------------------------------------------
    # Shape protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        stats = self.compression_stats()
        return (
            f"LazyInductance(n={self.n}, blocks={len(self._blocks)}, "
            f"stored={stats['stored_bytes'] / 1e6:.1f}MB, "
            f"dense={stats['dense_bytes'] / 1e6:.1f}MB, "
            f"ratio={stats['compression_ratio']:.1f}x)"
        )

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def gather(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Exact dense submatrix ``L[rows, cols]`` (axis-local indices).

        Near-field entries come verbatim from the stored dense blocks;
        far-field entries are re-expanded from their low-rank factors.
        Cost is proportional to the requested entries, not to ``n``.
        """
        rows_t = self.inv_perm[np.asarray(rows, dtype=np.int64)]
        cols_t = self.inv_perm[np.asarray(cols, dtype=np.int64)]
        values = self._entries(
            np.repeat(rows_t, cols_t.size), np.tile(cols_t, rows_t.size)
        )
        return values.reshape(rows_t.size, cols_t.size)

    def gather_stack(self, windows: np.ndarray) -> np.ndarray:
        """Symmetric gathers of many windows: ``(K, w, w)`` stack.

        Entry for entry the same values as ``gather(w, w)`` per window;
        windows go through the one gather path in chunks of at most
        :data:`_GATHER_CHUNK_PAIRS` entries, so its scratch stays small
        however many windows are stacked.
        """
        windows = np.asarray(windows, dtype=np.int64)
        count, width = windows.shape
        out = np.empty((count, width, width))
        step = max(1, _GATHER_CHUNK_PAIRS // max(width * width, 1))
        for lo in range(0, count, step):
            slots = self.inv_perm[windows[lo:lo + step]]
            values = self._entries(
                np.repeat(slots, width, axis=1).ravel(),
                np.tile(slots, (1, width)).ravel(),
            )
            out[lo:lo + step] = values.reshape(len(slots), width, width)
        return out

    def _entries(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``L`` at the tree-slot pairs ``(r[k], c[k])``: the one gather path.

        ``L`` is symmetric, so every pair is first put in the stored
        orientation (earlier leaf as the row).  Pairs are then grouped
        by their (leaf, leaf) pair, and each group's covering block is
        looked up once in the cover directory.  Dense groups -- near
        field and ACA fallbacks alike -- are copied verbatim from their
        pool by one fancy index, so they are exact; each low-rank group
        is one row-wise expansion of its block's factors.
        """
        leaf_r = self._slot_leaf[r]
        leaf_c = self._slot_leaf[c]
        swap = leaf_r > leaf_c
        r, c = np.where(swap, c, r), np.where(swap, r, c)
        pair_ids, group = np.unique(
            np.minimum(leaf_r, leaf_c) * self._num_leaves
            + np.maximum(leaf_r, leaf_c),
            return_inverse=True,
        )
        cover = np.searchsorted(self._cover_keys, pair_ids, "right") - 1
        table = self.block_table[self._cover_block[cover]]
        col_lo = self.node_lo[table[:, 1]]
        width = self.node_hi[table[:, 1]] - col_lo
        local_r = r - self.node_lo[table[:, 0]][group]
        local_c = c - col_lo[group]
        kind = table[group, 2]
        flat = table[group, 3] + local_r * width[group] + local_c
        out = np.empty(r.size)
        for stored, pool in (
            (_KIND_DENSE, self.dense_data),
            (_KIND_DENSE_SPILL, self.lr_data),
        ):
            sel = kind == stored
            out[sel] = pool[flat[sel]]
        lowrank = np.flatnonzero(kind == _KIND_LOWRANK)
        if lowrank.size:
            add_counter("hier_gather_lowrank_entries", lowrank.size)
            lowrank = lowrank[np.argsort(group[lowrank], kind="stable")]
            bounds = np.flatnonzero(np.diff(group[lowrank])) + 1
            for members in np.split(lowrank, bounds):
                a, b = table[group[members[0]], :2]
                _, u, v = self._blocks[(int(a), int(b))]
                out[members] = (
                    u[local_r[members]] * v.T[local_c[members]]
                ).sum(axis=1)
        return out

    # ------------------------------------------------------------------
    # Whole-matrix views
    # ------------------------------------------------------------------
    def toarray(self) -> np.ndarray:
        """Materialize the dense block (compat path for small systems)."""
        tree = np.zeros((self.n, self.n))
        for (a, b), (kind, first, second) in self._blocks.items():
            lo_a, hi_a = self.node_lo[a], self.node_hi[a]
            lo_b, hi_b = self.node_lo[b], self.node_hi[b]
            values = first if kind == _KIND_DENSE else first @ second
            tree[lo_a:hi_a, lo_b:hi_b] = values
            if a != b:
                tree[lo_b:hi_b, lo_a:hi_a] = values.T
        out = np.empty((self.n, self.n))
        out[np.ix_(self.perm, self.perm)] = tree
        return out

    def __array__(self, dtype: Optional[np.dtype] = None, copy: Optional[bool] = None) -> np.ndarray:
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype)

    def diagonal(self) -> np.ndarray:
        """The partial self inductances, axis-local order."""
        tree_diag = np.empty(self.n)
        for (a, b), (kind, first, _) in self._blocks.items():
            if a == b and kind == _KIND_DENSE:
                lo, hi = self.node_lo[a], self.node_hi[a]
                tree_diag[lo:hi] = np.diagonal(first)
        out = np.empty(self.n)
        out[self.perm] = tree_diag
        return out

    def wire_sums(self, wire_of: np.ndarray, num_wires: int) -> np.ndarray:
        """Wire-aggregated inductance ``sum_{i in w1, j in w2} L[i, j]``.

        Equivalent to ``G @ L @ G.T`` with the 0/1 wire gather matrix
        ``G``, computed block by block without materializing either the
        matrix or the gather: dense blocks scatter-add row then column
        sums, low-rank blocks aggregate their factors first (exact for
        the factorization, so no extra approximation enters).
        """
        wire_of = np.asarray(wire_of, dtype=np.int64)
        wire_tree = wire_of[self.perm]
        out = np.zeros((num_wires, num_wires))
        # Per-block scratch stays block-sized: a block touches at most
        # as many wires as it has rows/columns, so aggregation happens
        # over the block's *local* wire sets and only the final
        # scatter-add touches the (num_wires, num_wires) output.
        for (a, b), (kind, first, second) in self._blocks.items():
            wr = wire_tree[self.node_lo[a]:self.node_hi[a]]
            wc = wire_tree[self.node_lo[b]:self.node_hi[b]]
            local_r, inv_r = np.unique(wr, return_inverse=True)
            local_c, inv_c = np.unique(wc, return_inverse=True)
            if kind == _KIND_DENSE:
                row_agg = np.zeros((local_r.size, wc.size))
                np.add.at(row_agg, inv_r, first)
                contribution = np.zeros((local_c.size, local_r.size))
                np.add.at(contribution, inv_c, row_agg.T)
                contribution = contribution.T
            else:
                u_agg = np.zeros((local_r.size, first.shape[1]))
                np.add.at(u_agg, inv_r, first)
                v_agg = np.zeros((local_c.size, second.shape[0]))
                np.add.at(v_agg, inv_c, second.T)
                contribution = u_agg @ v_agg.T
            out[np.ix_(local_r, local_c)] += contribution
            if a != b:
                out[np.ix_(local_c, local_r)] += contribution.T
        return out

    # ------------------------------------------------------------------
    # Introspection / health
    # ------------------------------------------------------------------
    def compression_stats(self) -> Dict[str, Any]:
        kinds = self.block_table[:, 2] if self.block_table.size else np.zeros(0)
        stored = (
            self.dense_data.nbytes
            + self.lr_data.nbytes
            + self.block_table.nbytes
            + self.perm.nbytes
            + self.node_lo.nbytes * 4
        )
        dense = 8 * self.n * self.n
        return {
            "n": self.n,
            "blocks": int(self.block_table.shape[0]),
            "dense_blocks": int(
                np.sum((kinds == _KIND_DENSE) | (kinds == _KIND_DENSE_SPILL))
            ),
            "lowrank_blocks": int(np.sum(kinds == _KIND_LOWRANK)),
            "spill_blocks": int(np.sum(kinds == _KIND_DENSE_SPILL)),
            "stored_bytes": int(stored),
            "dense_bytes": int(dense),
            "compression_ratio": dense / max(stored, 1),
        }

    def validate_finite(self, name: str) -> None:
        """Raise the health taxonomy's non-finite error on bad factors."""
        from repro.health.solvers import require_finite

        require_finite(self.dense_data, name=f"{name} (near-field blocks)")
        require_finite(self.lr_data, name=f"{name} (low-rank factors)")

    def fingerprint_payload(self) -> Tuple[Any, ...]:
        """Content identity for :func:`stable_hash` (no materialization)."""
        return (
            "hierarchical",
            self.n,
            self.perm,
            self.node_lo,
            self.node_hi,
            self.node_left,
            self.node_right,
            self.block_table,
            self.dense_data,
            self.lr_data,
            self.config,
        )

    # ------------------------------------------------------------------
    # Serialization (pickle + shared-memory columns)
    # ------------------------------------------------------------------
    def columns(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """``(meta, arrays)`` split for the shared-memory column store."""
        meta = {
            "n": self.n,
            "config": {
                "leaf_size": self.config.leaf_size,
                "eta": self.config.eta,
                "cutoff": self.config.cutoff,
                "max_rank": self.config.max_rank,
            },
        }
        arrays = {
            "perm": self.perm,
            "node_lo": self.node_lo,
            "node_hi": self.node_hi,
            "node_left": self.node_left,
            "node_right": self.node_right,
            "block_table": self.block_table,
            "dense_data": self.dense_data,
            "lr_data": self.lr_data,
        }
        return meta, arrays

    @classmethod
    def from_columns(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "LazyInductance":
        return cls(
            n=meta["n"],
            perm=arrays["perm"],
            node_lo=arrays["node_lo"],
            node_hi=arrays["node_hi"],
            node_left=arrays["node_left"],
            node_right=arrays["node_right"],
            block_table=arrays["block_table"],
            dense_data=arrays["dense_data"],
            lr_data=arrays["lr_data"],
            config=HierarchicalConfig(**meta["config"]),
        )

    def __getstate__(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return self.columns()

    def __setstate__(
        self, state: Tuple[Dict[str, Any], Dict[str, np.ndarray]]
    ) -> None:
        meta, arrays = state
        rebuilt = LazyInductance.from_columns(meta, arrays)
        self.__dict__.update(rebuilt.__dict__)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def _filament_boxes(
    lengths: np.ndarray,
    widths: np.ndarray,
    thicknesses: np.ndarray,
    starts: np.ndarray,
    centers: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-filament AABBs in (width dir, thickness dir, axial) space."""
    n = lengths.size
    box_min = np.empty((n, 3))
    box_max = np.empty((n, 3))
    box_min[:, 0] = centers[:, 0] - widths / 2.0
    box_max[:, 0] = centers[:, 0] + widths / 2.0
    box_min[:, 1] = centers[:, 1] - thicknesses / 2.0
    box_max[:, 1] = centers[:, 1] + thicknesses / 2.0
    box_min[:, 2] = starts
    box_max[:, 2] = starts + lengths
    return box_min, box_max


#: Plan-row kinds (column 2 of a *plan* row, before evaluation): the
#: planner decides dense vs admissible; only the executed table knows
#: whether an admissible block actually compressed.
_PLAN_DENSE = 0
_PLAN_LOWRANK = 1


def _plan_blocks(
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    nbox_min: np.ndarray,
    nbox_max: np.ndarray,
    diam: np.ndarray,
    config: HierarchicalConfig,
) -> Tuple[np.ndarray, int, int]:
    """The geometry-only half of the build: the block list with offsets.

    Traverses the cluster tree exactly like the original single-pass
    builder, but evaluates *nothing* -- it only decides, per emitted
    pair, dense (near field) or admissible (far field), and assigns
    every block its pool offset up front:

    - dense blocks get exact ``ra * rb`` slices of the dense pool;
    - admissible blocks get a ``cap * (ra + rb)`` *reservation* in the
      factor pool, where ``cap = min(max_rank, ra, rb)`` is the largest
      rank ACA may return.

    With offsets fixed before any kernel work, evaluation of the rows
    is embarrassingly parallel: workers write disjoint slices of two
    preallocated pools and never ship block payloads back.  Returns
    ``(plan, dense_total, lr_total)`` with plan rows
    ``(a, b, plan_kind, offset, cap)``.
    """
    rows: List[Tuple[int, int, int, int, int]] = []
    dense_total = 0
    lr_total = 0
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        a, b = stack.pop()
        size_a = int(node_hi[a] - node_lo[a])
        size_b = int(node_hi[b] - node_lo[b])
        leaf_a = node_left[a] == -1
        leaf_b = node_left[b] == -1
        if a == b:
            if leaf_a:
                rows.append((a, a, _PLAN_DENSE, dense_total, 0))
                dense_total += size_a * size_a
            else:
                left, right = int(node_left[a]), int(node_right[a])
                stack.append((left, left))
                stack.append((left, right))
                stack.append((right, right))
            continue
        admissible = False
        if config.compress and min(size_a, size_b) >= 8:
            dist = _box_distance(
                nbox_min[a], nbox_max[a], nbox_min[b], nbox_max[b]
            )
            admissible = max(diam[a], diam[b]) <= config.eta * dist
        if admissible:
            cap = min(config.max_rank, size_a, size_b)
            rows.append((a, b, _PLAN_LOWRANK, lr_total, cap))
            lr_total += cap * (size_a + size_b)
            continue
        if leaf_a and leaf_b:
            rows.append((a, b, _PLAN_DENSE, dense_total, 0))
            dense_total += size_a * size_b
            continue
        kids_a = [a] if leaf_a else [int(node_left[a]), int(node_right[a])]
        kids_b = [b] if leaf_b else [int(node_left[b]), int(node_right[b])]
        # Only split the larger side when both have children, keeping
        # block counts (and descent work) low for unbalanced pairs.
        if not leaf_a and not leaf_b:
            if size_a >= size_b:
                kids_b = [b]
            else:
                kids_a = [a]
        for ka in kids_a:
            for kb in kids_b:
                stack.append((ka, kb) if node_lo[ka] <= node_lo[kb] else (kb, ka))
    plan = np.asarray(rows, dtype=np.int64).reshape(len(rows), 5)
    return plan, dense_total, lr_total


def _execute_plan_rows(
    evaluator: _PairEvaluator,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    plan: np.ndarray,
    dense_data: np.ndarray,
    lr_data: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """Evaluate the blocks of ``plan`` into their preassigned slices.

    The one evaluation routine shared by the serial path (private
    arrays) and the pool workers (shared-memory pool views), which is
    what makes serial- and parallel-built operators bit-identical: every
    entry is the same elementwise kernel value and every block's ACA
    the same arithmetic, whichever process and group run it.  Dense
    rows are evaluated first, one kernel call each; the admissible rows
    then compress in plan order, :data:`_ACA_GROUP` blocks at a time in
    lockstep (:func:`_aca_group`), each written to its reservation as
    soon as it finishes.

    Returns ``(kinds, ranks, spills)`` per plan row.  ``kinds`` uses
    the final block-table vocabulary; an admissible block whose ACA did
    not converge becomes :data:`_KIND_DENSE_SPILL` -- written into its
    factor-pool reservation when it fits (``ra * rb <= cap * (ra +
    rb)``, i.e. whenever ``min(ra, rb) <= cap``), otherwise returned in
    ``spills`` for the owner to append at compaction time.
    """
    count = plan.shape[0]
    kinds = np.empty(count, dtype=np.int64)
    ranks = np.zeros(count, dtype=np.int64)
    spills: Dict[int, np.ndarray] = {}

    def slots(idx: int) -> Tuple[np.ndarray, np.ndarray]:
        a, b = plan[idx, :2]
        return np.arange(node_lo[a], node_hi[a]), np.arange(node_lo[b], node_hi[b])

    for idx in np.flatnonzero(plan[:, 2] == _PLAN_DENSE):
        offset = int(plan[idx, 3])
        block = evaluator.block(*slots(idx))
        dense_data[offset:offset + block.size] = block.ravel()
        kinds[idx] = _KIND_DENSE
        add_counter("hier_dense_blocks")
    admissible = np.flatnonzero(plan[:, 2] == _PLAN_LOWRANK)
    row_lo = node_lo[plan[:, 0]]
    col_lo = node_lo[plan[:, 1]]
    shapes = np.stack(
        [node_hi[plan[:, 0]] - row_lo, node_hi[plan[:, 1]] - col_lo, plan[:, 4]],
        axis=1,
    )
    for lo in range(0, admissible.size, _ACA_GROUP):
        group = admissible[lo:lo + _ACA_GROUP]
        finished = _aca_group(
            evaluator, group, row_lo[group], col_lo[group], shapes[group], tol
        )
        for idx, factors in finished:
            offset, cap = int(plan[idx, 3]), int(plan[idx, 4])
            if factors is not None:
                u, v = factors
                rank, m = u.shape
                lr_data[offset:offset + u.size].reshape(m, rank)[...] = u.T
                lr_data[offset + u.size:offset + u.size + v.size] = v.ravel()
                kinds[idx] = _KIND_LOWRANK
                ranks[idx] = rank
                add_counter("hier_lowrank_blocks")
                continue
            add_counter("hier_aca_fallbacks")
            rows, cols = slots(idx)
            block = evaluator.block(rows, cols)
            kinds[idx] = _KIND_DENSE_SPILL
            if block.size <= cap * (rows.size + cols.size):
                lr_data[offset:offset + block.size] = block.ravel()
            else:
                spills[idx] = block
                add_counter("hier_spill_blocks")
            add_counter("hier_dense_blocks")
    return kinds, ranks, spills


def _assemble_operator(
    n: int,
    perm: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    config: HierarchicalConfig,
    plan: np.ndarray,
    kinds: np.ndarray,
    ranks: np.ndarray,
    spills: Dict[int, np.ndarray],
    dense_data: np.ndarray,
    lr_scratch: np.ndarray,
) -> LazyInductance:
    """Compact the executed plan into the final operator.

    The dense pool's planned layout is already exact, so ``dense_data``
    is adopted as-is (in the parallel path that is a zero-copy
    shared-memory view).  The factor pool is *reserved* per admissible
    block, so actual ranks leave gaps; those are squeezed out here into
    a tightly packed ``lr_data`` -- fingerprints hash the pools, and
    reservation gaps would otherwise hash nondeterministic garbage.
    Spilled dense fallbacks are appended in plan order.

    A private scratch (one that owns its buffer, i.e. not a shared
    pool view) with no spills is compacted *in place* and shrunk: every
    block's packed slot starts at or before its reservation, and plan
    order visits them front to back, so no copy overwrites unread
    factors, and the build never holds the reservation and a packed
    copy at once.  The caller must hold no view of the scratch.
    """
    count = plan.shape[0]
    sizes_a = node_hi[plan[:, 0]] - node_lo[plan[:, 0]]
    sizes_b = node_hi[plan[:, 1]] - node_lo[plan[:, 1]]
    lr_sizes = np.where(
        kinds == _KIND_LOWRANK,
        ranks * (sizes_a + sizes_b),
        np.where(kinds == _KIND_DENSE_SPILL, sizes_a * sizes_b, 0),
    )
    lr_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(lr_sizes)]
    )
    packed = int(lr_offsets[-1])
    in_place = bool(lr_scratch.flags.owndata) and not spills
    lr_data = lr_scratch if in_place else np.empty(packed)
    block_table = np.zeros((count, 5), dtype=np.int64)
    block_table[:, 0] = plan[:, 0]
    block_table[:, 1] = plan[:, 1]
    block_table[:, 2] = kinds
    block_table[:, 4] = np.where(kinds == _KIND_LOWRANK, ranks, 0)
    for idx in range(count):
        if kinds[idx] == _KIND_DENSE:
            block_table[idx, 3] = plan[idx, 3]
            continue
        out_offset = int(lr_offsets[idx])
        size = int(lr_sizes[idx])
        block_table[idx, 3] = out_offset
        spilled = spills.get(idx)
        if spilled is not None:
            lr_data[out_offset:out_offset + size] = spilled.ravel()
        else:
            src = int(plan[idx, 3])
            lr_data[out_offset:out_offset + size] = lr_scratch[src:src + size]
    if in_place:
        # No reference check: the caller's own name for the scratch is
        # the same object, and the views above are gone.
        lr_data.resize(packed, refcheck=False)
    return LazyInductance(
        n=n,
        perm=perm,
        node_lo=node_lo,
        node_hi=node_hi,
        node_left=node_left,
        node_right=node_right,
        block_table=block_table,
        dense_data=dense_data,
        lr_data=lr_data,
        config=config,
    )


# ----------------------------------------------------------------------
# Parallel assembly through shared-memory pools
# ----------------------------------------------------------------------
#: Per-worker attachment cache, keyed by segment name: a pool worker
#: maps the geometry segment (and builds its evaluator) once, then
#: reuses both across every chunk it executes.  Flushed through the
#: deferred-close-safe ``close`` paths at interpreter exit so a worker
#: shutting down with live evaluator views never trips an unraisable
#: ``BufferError`` out of ``SharedMemory.__del__``.
_ASSEMBLY_CACHE: Dict[str, Any] = {}


def _clear_assembly_cache() -> None:
    for entry in _ASSEMBLY_CACHE.values():
        target = entry[0] if isinstance(entry, tuple) else entry
        target.close()
    _ASSEMBLY_CACHE.clear()


atexit.register(_clear_assembly_cache)


def _attach_geometry(name: str) -> Tuple[Any, np.ndarray, np.ndarray, float]:
    entry = _ASSEMBLY_CACHE.get(name)
    if entry is None:
        from repro.service.shm import SharedColumnBlock

        block = SharedColumnBlock.attach(name)
        columns = block.arrays()
        evaluator = _PairEvaluator(
            columns["lengths"],
            columns["widths"],
            columns["thicknesses"],
            columns["starts"],
            columns["centers"],
            columns["orig"],
            bool(block.meta["gmd_correction"]),
        )
        entry = (
            block,
            evaluator,
            columns["node_lo"],
            columns["node_hi"],
            float(block.meta["cutoff"]),
        )
        _ASSEMBLY_CACHE[name] = entry
    _, evaluator, node_lo, node_hi, tol = entry
    return evaluator, node_lo, node_hi, tol


def _attach_pool(name: str) -> Any:
    pool = _ASSEMBLY_CACHE.get(name)
    if pool is None:
        from repro.service.shm import SharedArrayPool

        pool = SharedArrayPool.attach(name)
        _ASSEMBLY_CACHE[name] = pool
    return pool


def _assembly_chunk_worker(
    task: Tuple[str, str, str, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, np.ndarray], Any]:
    """Evaluate one chunk of plan rows (module-level, hence picklable).

    Everything bulky travels by name: the worker attaches the geometry
    segment and both pools, evaluates its rows *in place* into the
    pools' shared mappings, and returns only the per-row outcome
    vectors (kind, rank), rare oversized spill blocks, and its stage
    profile -- never the factor payloads themselves.
    """
    geometry_name, dense_name, lr_name, indices, rows = task
    evaluator, node_lo, node_hi, tol = _attach_geometry(geometry_name)
    dense_pool = _attach_pool(dense_name)
    lr_pool = _attach_pool(lr_name)
    with collect() as profile:
        with stage("hier_build_workers"):
            kinds, ranks, spills = _execute_plan_rows(
                evaluator,
                node_lo,
                node_hi,
                rows,
                dense_pool.data,
                lr_pool.data,
                tol,
            )
    return indices, kinds, ranks, spills, profile


def _balanced_chunks(
    plan: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    pieces: int,
) -> List[np.ndarray]:
    """Split plan rows into contiguous chunks of roughly equal cost.

    Cost model: a dense block evaluates ``ra * rb`` kernel entries; an
    admissible block's ACA touches about ``2 * cap * (ra + rb)`` (rows
    plus columns, with recompression overhead).  Contiguous splits keep
    the executor's pool writes sequential per worker.
    """
    count = plan.shape[0]
    if count == 0:
        return []
    sizes_a = (node_hi[plan[:, 0]] - node_lo[plan[:, 0]]).astype(float)
    sizes_b = (node_hi[plan[:, 1]] - node_lo[plan[:, 1]]).astype(float)
    cost = np.where(
        plan[:, 2] == _PLAN_LOWRANK,
        2.0 * plan[:, 4] * (sizes_a + sizes_b),
        sizes_a * sizes_b,
    )
    cumulative = np.cumsum(cost)
    pieces = max(1, min(int(pieces), count))
    targets = cumulative[-1] * np.arange(1, pieces) / pieces
    cuts = np.searchsorted(cumulative, targets) + 1
    edges = np.unique(np.concatenate([[0], cuts, [count]]))
    return [
        np.arange(edges[i], edges[i + 1])
        for i in range(edges.size - 1)
        if edges[i + 1] > edges[i]
    ]


def _release_pool(pool: Any) -> None:
    pool.close()
    pool.unlink()


def _parallel_assemble(
    evaluator_arrays: Dict[str, np.ndarray],
    gmd_correction: bool,
    n: int,
    perm: np.ndarray,
    node_lo: np.ndarray,
    node_hi: np.ndarray,
    node_left: np.ndarray,
    node_right: np.ndarray,
    config: HierarchicalConfig,
    plan: np.ndarray,
    dense_total: int,
    lr_total: int,
    jobs: int,
) -> LazyInductance:
    """Fan the plan out over a process pool writing shared-memory pools.

    The owner publishes the (tree-ordered) geometry as a read-only
    column segment and preallocates the two data pools at their planned
    sizes; workers attach by name and write their rows' factors
    straight into the pools, so with ``10^5+`` blocks nothing block-
    sized is ever pickled in either direction.  The owner then adopts
    the dense pool zero-copy as the operator's near-field storage (the
    segment is released when the operator is garbage-collected) and
    compacts the reserved factor pool into a private array.
    """
    from repro.service.shm import SharedArrayPool, SharedColumnBlock

    geometry = SharedColumnBlock.create(
        meta={"gmd_correction": gmd_correction, "cutoff": config.cutoff},
        arrays=evaluator_arrays,
    )
    dense_pool = SharedArrayPool.create(dense_total)
    lr_pool = SharedArrayPool.create(lr_total)
    try:
        chunks = _balanced_chunks(plan, node_lo, node_hi, jobs * 4)
        tasks = [
            (geometry.name, dense_pool.name, lr_pool.name, chunk, plan[chunk])
            for chunk in chunks
        ]
        results = parallel_map(
            _assembly_chunk_worker, tasks, jobs=jobs, serial_threshold=0
        )
        count = plan.shape[0]
        kinds = np.empty(count, dtype=np.int64)
        ranks = np.zeros(count, dtype=np.int64)
        spills: Dict[int, np.ndarray] = {}
        profiles = []
        for indices, chunk_kinds, chunk_ranks, chunk_spills, profile in results:
            kinds[indices] = chunk_kinds
            ranks[indices] = chunk_ranks
            for local, block in chunk_spills.items():
                spills[int(indices[local])] = block
            profiles.append(profile)
        owner_profile = active_profile()
        if owner_profile is not None:
            owner_profile.merge_workers(profiles)
        add_counter("hier_parallel_chunks", len(tasks))
        dense_view = dense_pool.data
        dense_view.flags.writeable = False
        lr_scratch = lr_pool.data
        operator = _assemble_operator(
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            kinds,
            ranks,
            spills,
            dense_view,
            lr_scratch,
        )
        del lr_scratch
        # The operator's near-field blocks are views into the dense
        # pool; tie the segment's lifetime to the operator (the close
        # defers -- leaking one mapping -- if views somehow outlive it).
        weakref.finalize(operator, _release_pool, dense_pool)
    except BaseException:
        dense_pool.close()
        dense_pool.unlink()
        raise
    finally:
        geometry.close()
        geometry.unlink()
        lr_pool.close()
        lr_pool.unlink()
    return operator


def build_axis_operator(
    system: FilamentSystem,
    indices: List[int],
    axis: Axis,
    gmd_correction: bool = True,
    config: HierarchicalConfig = DEFAULT_CONFIG,
    jobs: Optional[int] = None,
) -> LazyInductance:
    """The hierarchical operator of one axis group.

    ``jobs`` controls block assembly: ``None`` or ``1`` evaluates the
    plan serially in-process; ``jobs > 1`` fans the plan out over a
    process pool writing shared-memory pools (see
    :func:`_parallel_assemble`).  Both paths execute the identical
    plan, so the resulting operators are bit-identical -- the
    equivalence tests assert exactly that.
    """
    lengths, widths, thicknesses, starts, centers = axis_geometry(
        system, indices, axis
    )
    n = lengths.size
    box_min, box_max = _filament_boxes(
        lengths, widths, thicknesses, starts, centers
    )
    (
        perm,
        node_lo,
        node_hi,
        node_left,
        node_right,
        nbox_min,
        nbox_max,
    ) = _build_cluster_tree(box_min, box_max, config.leaf_size)
    diam = np.array(
        [_box_diameter(nbox_min[k], nbox_max[k]) for k in range(node_lo.size)]
    )
    plan, dense_total, lr_total = _plan_blocks(
        node_lo, node_hi, node_left, node_right, nbox_min, nbox_max, diam, config
    )
    workers = 1 if jobs is None else max(int(jobs), 1)
    if workers > 1 and plan.shape[0] > 1:
        operator = _parallel_assemble(
            {
                "lengths": lengths[perm],
                "widths": widths[perm],
                "thicknesses": thicknesses[perm],
                "starts": starts[perm],
                "centers": centers[perm],
                "orig": perm,
                "node_lo": node_lo,
                "node_hi": node_hi,
            },
            gmd_correction,
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            dense_total,
            lr_total,
            workers,
        )
    else:
        evaluator = _PairEvaluator(
            lengths[perm],
            widths[perm],
            thicknesses[perm],
            starts[perm],
            centers[perm],
            perm,
            gmd_correction,
        )
        dense_data = np.empty(dense_total)
        lr_scratch = np.empty(lr_total)
        kinds, ranks, spills = _execute_plan_rows(
            evaluator, node_lo, node_hi, plan, dense_data, lr_scratch,
            config.cutoff,
        )
        operator = _assemble_operator(
            n,
            perm,
            node_lo,
            node_hi,
            node_left,
            node_right,
            config,
            plan,
            kinds,
            ranks,
            spills,
            dense_data,
            lr_scratch,
        )
    stats = operator.compression_stats()
    add_counter("hier_stored_bytes", stats["stored_bytes"])
    return operator


def hierarchical_blocks(
    system: FilamentSystem,
    gmd_correction: bool = True,
    config: HierarchicalConfig = DEFAULT_CONFIG,
    jobs: Optional[int] = None,
) -> Dict[Axis, Tuple[List[int], LazyInductance]]:
    """Per-direction hierarchical operators ``{axis: (indices, op)}``,
    the lazy counterpart of ``inductance_blocks``; ``jobs`` fans the
    plan's kernel evaluation over the process pool through shared-memory
    pools (content-identical to the serial build).

    Same axis grouping and index lists as
    :func:`repro.extraction.inductance.inductance_blocks`, for systems
    too large to hold dense, but each block is a :class:`LazyInductance`
    instead of an ndarray.
    """
    with stage("hier_build"):
        blocks: Dict[Axis, Tuple[List[int], LazyInductance]] = {}
        for axis, indices in system.indices_by_axis().items():
            blocks[axis] = (
                indices,
                build_axis_operator(
                    system, indices, axis, gmd_correction, config, jobs=jobs
                ),
            )
        return blocks


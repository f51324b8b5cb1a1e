"""Window-based sparsification: the wVPEC model (Section V).

Truncation (Section IV) needs the full ``O(N^3)`` inversion first.  The
windowed model avoids it: for each aggressor ``m`` a small coupling
window ``W(m)`` is chosen, the submatrix system ``L[W, W] s = e_m`` is
solved (``O(b^3)`` each, ``O(N b^3)`` total), and the per-aggressor
columns are merged into one sparse approximate inverse ``S'`` with the
symmetric selection heuristic of eq. 18::

    S'_mn = S'_nm = max(s^(m)_n, s^(n)_m)

(off-diagonal entries are negative, so the max picks the smaller
magnitude), which keeps ``S'`` symmetric and diagonally dominant
(eq. 19) and therefore the model passive.

Window selection comes in the paper's two flavors:

- *geometric* (``gwVPEC``): the ``b`` nearest filaments of the same
  direction -- the uniform window the aligned bus admits;
- *numerical* (``nwVPEC``): all filaments whose ``L``-row coupling
  strength ``|L_mn| / L_mm`` reaches a threshold -- per-wire windows for
  irregular layouts like the spiral inductor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.extraction.hierarchical import LazyInductance
from repro.extraction.parasitics import Parasitics
from repro.geometry.system import FilamentSystem
from repro.health.solvers import (
    DEFAULT_POLICY,
    FallbackPolicy,
    dense_solve,
    require_finite,
)
from repro.pipeline.profiling import add_counter
from repro.vpec.effective import VpecNetwork


#: Group size above which window selection is one KD-tree query of the
#: ``b`` nearest per row.  Up to this size the selection equals the
#: exact all-pairs scan (:func:`_nearest_exact`) window for window,
#: ties included (:func:`_nearest`); above it the O(n^2) scan a tie
#: would need is too slow to keep as the reference.
_DENSE_KNN_LIMIT = 4096

#: Scratch budget of one block of window-layer work.  The exact scan
#: holds a few ``(rows, n)`` float64 distance blocks of this size, so
#: its memory is O(block * n) instead of the O(n^2) all-pairs matrix;
#: and :func:`windowed_inverse` gathers and factors an index set once
#: when the per-aggressor submatrix stack of the aggressors sharing it
#: would exceed this size.
_SELECT_BLOCK_BYTES = 4 << 20

#: Relative margin by which a row's ``b``-th candidate distance must
#: undercut the KD-tree's candidate radius (see :func:`_nearest`).  The
#: tree prunes against bounds it updates incrementally, so it can miss a
#: point within a few ulps of the radius; the margin is far above that
#: rounding and far below any spacing a layout resolves.
_RADIUS_SLACK = 1e-9


def _nearest_exact(
    centers: np.ndarray, b: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise ``argpartition`` of all-pairs center distances, streamed.

    Each block of rows evaluates ``sqrt(dx*dx + dy*dy + dz*dz)`` --
    the same left-to-right sum ``np.sum(delta * delta, axis=2)`` forms
    over the coordinate axis -- and ``argpartition`` treats every row
    on its own, so the result equals the all-pairs selection index for
    index, ties included.  ``rows`` restricts the scan to those rows
    (all rows by default); the result has one row per scanned row.
    """
    n = centers.shape[0]
    if rows is None:
        rows = np.arange(n)
    step = max(1, _SELECT_BLOCK_BYTES // (8 * n))
    nearest = np.empty((rows.size, b), dtype=np.intp)
    for lo in range(0, rows.size, step):
        block = centers[rows[lo:lo + step]]
        distance = np.subtract.outer(block[:, 0], centers[:, 0])
        distance *= distance
        for axis in (1, 2):
            delta = np.subtract.outer(block[:, axis], centers[:, axis])
            delta *= delta
            distance += delta
        np.sqrt(distance, out=distance)
        nearest[lo:lo + step] = np.argpartition(distance, b - 1, axis=1)[:, :b]
    return nearest


def _nearest(centers: np.ndarray, b: int) -> np.ndarray:
    """The exact scan's nearest-``b`` sets, from ``2b`` KD-tree candidates.

    The tree proposes each row's ``2b`` nearest centers; they are
    re-ranked with the scan's own distance formula.  A row whose ``b``-th
    distance is below its ``(b+1)``-th and inside the candidate radius
    (the ``2b``-th distance, less :data:`_RADIUS_SLACK`) has exactly one
    nearest-``b`` set, every point of it among the candidates -- the set
    the scan's ``argpartition`` returns.  Every other row (a tie at the
    ``b``-th distance, or a set that may reach past the candidates) is
    scanned exactly, so the windows equal the scan's, ties included.
    Rows are returned unsorted, like :func:`_nearest_exact`'s.
    """
    n = centers.shape[0]
    k = 2 * b
    if k >= n:
        return _nearest_exact(centers, b)
    from scipy.spatial import cKDTree

    radius, candidates = cKDTree(centers).query(centers, k=k)
    distance = np.subtract(centers[:, 0, None], centers[candidates, 0])
    distance *= distance
    for axis in (1, 2):
        delta = np.subtract(centers[:, axis, None], centers[candidates, axis])
        delta *= delta
        distance += delta
    np.sqrt(distance, out=distance)
    order = np.argsort(distance, axis=1, kind="stable")
    ranked = np.take_along_axis(distance, order, axis=1)
    nearest = np.take_along_axis(candidates, order[:, :b], axis=1)
    inside = ranked[:, b - 1] < radius[:, -1] * (1.0 - _RADIUS_SLACK)
    unique = ranked[:, b - 1] < ranked[:, b]
    scan = np.flatnonzero(~(inside & unique))
    if scan.size:
        nearest[scan] = _nearest_exact(centers, b, scan)
    add_counter("window_scan_rows", int(scan.size))
    return nearest


def geometric_windows(
    system: FilamentSystem,
    indices: Sequence[int],
    window_size: int,
    symmetrize: bool = True,
) -> List[np.ndarray]:
    """Per-aggressor windows: the ``b`` nearest same-direction filaments.

    Distances are between filament centers; the aggressor itself is
    always included.  For the aligned parallel bus this reduces to the
    paper's uniform index window.

    ``symmetrize`` (on by default) unions the memberships so every pair
    receives both directional estimates in the eq. 18 merge -- the
    condition the eq. 19 dominance guarantee needs; disable it only for
    ablation studies.
    """
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    n = len(indices)
    b = min(window_size, n)
    centers = system.centers()[np.asarray(indices, dtype=np.intp)]
    if n <= _DENSE_KNN_LIMIT:
        nearest = _nearest(centers, b)
    else:
        # A KD-tree query of the b nearest, kept as is so the committed
        # window digests hold.  It is not the exact scan: rows that tie
        # at the b-th distance keep other nearest sets, and
        # symmetrization does not absorb them -- on
        # scale_geometry(16384) at b = 8, 107 of 16 384 rows differ
        # and so do 189 symmetrized windows.
        from scipy.spatial import cKDTree

        _, nearest = cKDTree(centers).query(centers, k=b)
        nearest = nearest.reshape(n, b)
    windows = list(np.sort(nearest, axis=1))
    return symmetrize_windows(windows) if symmetrize else windows


def numerical_windows(
    block: np.ndarray, threshold: float, symmetrize: bool = True
) -> List[np.ndarray]:
    """Per-aggressor windows from ``L``-row coupling strengths.

    ``W(m) = {n : |L_mn| / L_mm >= threshold} + {m}``.  Thresholds are
    relative; the spiral experiment of the paper uses 1.5e-4.  See
    :func:`geometric_windows` for the ``symmetrize`` flag.

    Numerical windowing inspects every row entry, so a hierarchical
    operator block is materialized first -- acceptable for the irregular
    small-to-medium layouts this flavor targets, and refused above the
    dense limit where geometric windows are the scalable choice.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    if isinstance(block, LazyInductance):
        if block.n > _DENSE_KNN_LIMIT:
            raise ValueError(
                "numerical windowing requires the full coupling matrix; "
                f"refusing to materialize a {block.n}x{block.n} operator "
                "-- use geometric windows for hierarchical extractions "
                "at this scale"
            )
        block = block.toarray()
    diag = np.diag(block)
    if np.any(diag <= 0):
        raise ValueError("inductance diagonal must be positive")
    strength = np.abs(block) / diag[:, None]
    np.fill_diagonal(strength, np.inf)  # the aggressor is always included
    windows = [
        np.nonzero(strength[m] >= threshold)[0] for m in range(block.shape[0])
    ]
    return symmetrize_windows(windows) if symmetrize else windows


def symmetrize_windows(windows: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Make window membership symmetric: ``n in W(m) => m in W(n)``.

    Nearest-``b`` selection breaks ties arbitrarily and boundary windows
    are one-sided, so membership can be asymmetric; a pair then gets only
    one directional estimate and the eq. 18 merge loses its
    smaller-magnitude guarantee, which is what makes eq. 19 (diagonal
    dominance of ``S'``) hold.  Unioning the memberships restores the
    guarantee at a negligible cost in window size.
    """
    n = len(windows)
    if n == 0:
        return []
    sizes = [np.asarray(w).size for w in windows]
    rows = np.repeat(np.arange(n), sizes)
    cols = np.concatenate([np.asarray(w, dtype=int) for w in windows])
    membership = sparse.csr_matrix(
        (np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n)
    )
    union = (membership + membership.T).tocsr()
    union.sum_duplicates()
    union.sort_indices()
    return [
        union.indices[union.indptr[m] : union.indptr[m + 1]].astype(int)
        for m in range(n)
    ]


#: Per-column multiplier seed for the row-hash dedup (splitmix64's
#: golden-ratio increment); any fixed odd constant works, the exact
#: verification below never trusts the hash alone.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _dedup_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-occurrence indices and inverse map of identical rows.

    Rows are bucketed by a vectorized 64-bit mixing hash and every row is
    then verified bit-for-bit against its bucket representative, so a
    hash collision can never alias two distinct systems -- it only drops
    the affected group to an exact dict-based pass.
    """
    count, width = keys.shape
    multipliers = (
        np.arange(1, width + 1, dtype=np.uint64) * _HASH_MULTIPLIER
    ) | np.uint64(1)
    with np.errstate(over="ignore"):
        hashes = (keys * multipliers).sum(axis=1, dtype=np.uint64)
    _, solve_rows, inverse = np.unique(
        hashes, return_index=True, return_inverse=True
    )
    inverse = np.asarray(inverse).ravel()
    if np.array_equal(keys, keys[solve_rows][inverse]):
        return solve_rows, inverse
    # Hash collision (vanishingly rare): fall back to exact hashing of
    # the raw row bytes.
    slot_of: Dict[bytes, int] = {}
    first_rows: List[int] = []
    inverse = np.empty(count, dtype=np.intp)
    for row in range(count):
        key = keys[row].tobytes()
        slot = slot_of.setdefault(key, len(first_rows))
        if slot == len(first_rows):
            first_rows.append(row)
        inverse[row] = slot
    return np.asarray(first_rows), inverse


#: Merge rules for the two directional estimates of one S' entry.
#: "max" is the paper's eq. 18 (entries are negative, so max keeps the
#: smaller magnitude and guarantees eq. 19); "min" and "mean" exist for
#: the ablation benchmark that shows why eq. 18 picks max.
MERGE_RULES = ("max", "min", "mean")


def _solve_window_stack(
    sub_stack: np.ndarray,
    rhs_stack: np.ndarray,
    policy: FallbackPolicy,
    aggressors: np.ndarray,
) -> np.ndarray:
    """``(K, b, b)`` systems against ``(K, b, r)`` unit columns, one LAPACK call.

    ``aggressors[k, j]`` owns column ``j`` of system ``k``: one column
    per window on the stacked path, every sharer's column on a shared
    window.
    """
    try:
        solutions = np.linalg.solve(sub_stack, rhs_stack)
        if not np.all(np.isfinite(solutions)):
            raise np.linalg.LinAlgError("non-finite window solutions")
    except np.linalg.LinAlgError:
        # One singular window poisons the whole batched call; redo
        # the batch per aggressor through the escalation chain so only
        # the defective windows pay the fallback cost.
        add_counter("window_fallback_batches")
        solutions = np.empty(rhs_stack.shape)
        for k, j in np.ndindex(*aggressors.shape):
            solutions[k, :, j] = dense_solve(
                sub_stack[k],
                rhs_stack[k, :, j],
                policy=policy,
                name=f"window of aggressor {aggressors[k, j]}",
            )
    return solutions


def _submatrices(block: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The ``(K, b, b)`` submatrices of a ``(K, b)`` stack of windows.

    Fancy indexing on dense blocks, one block-cover gather of the whole
    stack on hierarchical operators (near-field windows hit the stored
    leaf blocks verbatim, so the submatrices -- and with them the
    solves -- are exact, not approximations).
    """
    if isinstance(block, LazyInductance):
        return block.gather_stack(stack)
    return block[stack[:, :, None], stack[:, None, :]]


def _solve_each_window(
    block: np.ndarray,
    stack: np.ndarray,
    positions: np.ndarray,
    aggressors: np.ndarray,
    dedup: bool,
    policy: FallbackPolicy,
) -> np.ndarray:
    """One system per window of a same-size stack, in one batched call."""
    count, size = stack.shape
    subs = _submatrices(block, stack)
    rhs = np.zeros((count, size))
    rhs[np.arange(count), positions] = 1.0
    if dedup:
        # Identical (submatrix bits, unit position) systems share one
        # solve; LAPACK is deterministic per matrix, so fanning the
        # solution out is bit-identical to solving each window.  The
        # uint64 view compares raw float bits, so -0.0/0.0 and NaN
        # payloads never alias distinct systems.
        keys = np.concatenate(
            [
                np.ascontiguousarray(subs).reshape(count, -1).view(np.uint64),
                positions[:, None].astype(np.uint64),
            ],
            axis=1,
        )
        solve_rows, inverse = _dedup_rows(keys)
        add_counter("window_dedup_hits", count - solve_rows.size)
    else:
        solve_rows = np.arange(count)
        inverse = solve_rows
    # The O(N b^3) work of the construction, as operation counts:
    # systems factored and their summed |W|^3.
    add_counter("window_solves", solve_rows.size)
    add_counter("window_solve_cubes", solve_rows.size * size**3)
    solutions = _solve_window_stack(
        subs[solve_rows],
        rhs[solve_rows][:, :, None],
        policy,
        aggressors[solve_rows][:, None],
    )[:, :, 0]
    return solutions[inverse]


def _solve_shared_window(
    block: np.ndarray,
    window: np.ndarray,
    positions: np.ndarray,
    aggressors: np.ndarray,
    policy: FallbackPolicy,
) -> np.ndarray:
    """Every sharer's unit column of one window from one factorization."""
    count = aggressors.size
    rhs = np.zeros((1, window.size, count))
    rhs[0, positions, np.arange(count)] = 1.0
    add_counter("window_solves")
    add_counter("window_solve_cubes", window.size**3)
    add_counter("window_dedup_hits", count - 1)
    return _solve_window_stack(
        _submatrices(block, window[None]), rhs, policy, aggressors[None]
    )[0].T


def _validate_windows(stack: np.ndarray, aggressors: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` naming an aggressor whose window is malformed.

    ``stack`` holds the same-size windows of ``aggressors``, one per row.
    A window holds distinct indices in ``[0, n)``, its own aggressor
    among them; a negative index would otherwise wrap around silently
    in the gathers.
    """
    outside = (stack < 0) | (stack >= n)
    ordered = np.sort(stack, axis=1)
    repeated = ordered[:, 1:] == ordered[:, :-1]
    missing = ~(stack == aggressors[:, None]).any(axis=1)
    bad = outside.any(axis=1) | repeated.any(axis=1) | missing
    if not bad.any():
        return
    k = int(np.argmax(bad))
    m = aggressors[k]
    if outside[k].any():
        raise ValueError(
            f"window of aggressor {m} has index {stack[k][outside[k]][0]} "
            f"outside [0, {n})"
        )
    if repeated[k].any():
        raise ValueError(
            f"window of aggressor {m} repeats index "
            f"{ordered[k, 1:][repeated[k]][0]}"
        )
    raise ValueError(f"window of aggressor {m} must contain {m}")


def windowed_inverse(
    block: np.ndarray,
    windows: Sequence[np.ndarray],
    merge: str = "max",
    policy: Optional[FallbackPolicy] = None,
    dedup: bool = True,
) -> sparse.csr_matrix:
    """Sparse approximate inverse ``S'`` from per-aggressor window solves.

    Implements the two-step construction of Section V-A: submatrix
    solves ``L(m) s(m) = i(m)`` followed by the eq. 18 merge.  When only
    one of a pair's two windows produced an estimate, that estimate is
    used directly.

    ``dedup`` (on by default) solves each *distinct* window system only
    once.  Regular buses are translation-invariant, so every interior
    window extracts the same ``(b, b)`` stencil, and one LAPACK solve
    serves all aggressors sharing it; keyed on the submatrix bytes plus
    the unit-vector position, that fan-out is bit-identical to solving
    each window separately.  A wide window shared by many aggressors --
    numerical windows at a low threshold often span the whole block --
    is gathered and factored once, and all its sharers' unit columns are
    solved in one call, when their per-aggressor submatrix stack would
    exceed the module's scratch budget.  Every sharer is a member of the
    window, so only windows of more than 80 filaments qualify; their
    solutions agree with separate solves to rounding, not bit for bit.
    The aggressors a solve serves beyond the first are counted as
    ``window_dedup_hits``.  Disable ``dedup`` only to cross-check
    equivalence.

    Every window must hold distinct indices in ``[0, n)``, its own
    aggressor among them; a malformed window raises ``ValueError``
    naming its aggressor before any submatrix is gathered.

    A singular window submatrix (rank-deficient ``L``) does not abort
    the whole construction: the offending windows fall back to the
    escalation chain of :func:`repro.health.solvers.dense_solve`
    (Tikhonov ridge, then least squares) under ``policy``, one aggressor
    at a time -- non-finite input raises
    :class:`~repro.health.errors.NonFiniteInputError` up front instead.
    """
    if merge not in MERGE_RULES:
        raise ValueError(f"merge must be one of {MERGE_RULES}, got {merge!r}")
    if policy is None:
        policy = DEFAULT_POLICY
    if isinstance(block, LazyInductance):
        block.validate_finite("inductance block")
    else:
        require_finite(block, name="inductance block")
    n = block.shape[0]
    if len(windows) != n:
        raise ValueError("one window per aggressor is required")
    normalized = [np.asarray(window, dtype=int) for window in windows]
    by_size: Dict[int, List[int]] = {}
    for m, window in enumerate(normalized):
        by_size.setdefault(window.size, []).append(m)
    # Every window is checked before any submatrix is gathered.
    classes: List[Tuple[np.ndarray, np.ndarray]] = []
    for aggressors in by_size.values():
        agg = np.asarray(aggressors)
        stack = np.array([normalized[m] for m in aggressors])
        _validate_windows(stack, agg, n)
        classes.append((agg, stack))

    # Batch the O(b^3) solves by window size: same-size submatrices are
    # gathered into one (K, b, b) stack and solved in a single LAPACK
    # call, which is what keeps the O(N b^3) construction ahead of the
    # O(N^3) full inversion in practice, not just asymptotically.  An
    # index set whose sharers' stack would exceed the scratch budget is
    # gathered and factored once instead (see ``dedup`` above).
    diagonal = np.zeros(n)
    aggressor_parts: List[np.ndarray] = []
    neighbor_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    for agg, stack in classes:
        size = stack.shape[1]
        self_mask = stack == agg[:, None]
        positions = np.argmax(self_mask, axis=1)
        solutions = np.empty(stack.shape)
        each = np.ones(agg.size, dtype=bool)
        sub_bytes = 8 * size * size
        if dedup and agg.size * sub_bytes > _SELECT_BLOCK_BYTES:
            _, set_of = _dedup_rows(stack.astype(np.uint64))
            sharers = np.bincount(set_of)
            for s in np.flatnonzero(sharers * sub_bytes > _SELECT_BLOCK_BYTES):
                members = np.flatnonzero(set_of == s)
                each[members] = False
                solutions[members] = _solve_shared_window(
                    block,
                    stack[members[0]],
                    positions[members],
                    agg[members],
                    policy,
                )
        if each.any():
            solutions[each] = _solve_each_window(
                block,
                stack[each],
                positions[each],
                agg[each],
                dedup,
                policy,
            )

        diagonal[agg] = solutions[self_mask]
        aggressor_parts.append(np.repeat(agg, size - 1))
        neighbor_parts.append(stack[~self_mask])
        value_parts.append(solutions[~self_mask])

    # eq. 18 merge, vectorized: each unordered pair carries at most two
    # directional estimates; scatter/reduce them by a canonical pair id.
    # "max" is the paper's rule (entries are negative, so max keeps the
    # smaller magnitude and guarantees eq. 19); "min" and "mean" exist
    # for the ablation benchmark that shows why eq. 18 picks max.
    aggressor_ids = (
        np.concatenate(aggressor_parts) if aggressor_parts else np.zeros(0, int)
    )
    neighbor_ids = (
        np.concatenate(neighbor_parts) if neighbor_parts else np.zeros(0, int)
    )
    values = np.concatenate(value_parts) if value_parts else np.zeros(0)
    low = np.minimum(aggressor_ids, neighbor_ids)
    high = np.maximum(aggressor_ids, neighbor_ids)
    pair_ids, pair_index = np.unique(low * n + high, return_inverse=True)
    if merge == "max":
        merged = np.full(pair_ids.size, -np.inf)
        np.maximum.at(merged, pair_index, values)
    elif merge == "min":
        merged = np.full(pair_ids.size, np.inf)
        np.minimum.at(merged, pair_index, values)
    else:
        merged = np.zeros(pair_ids.size)
        np.add.at(merged, pair_index, values)
        counts = np.zeros(pair_ids.size)
        np.add.at(counts, pair_index, 1.0)
        merged /= counts
    keep = merged != 0.0
    pair_low = pair_ids[keep] // n
    pair_high = pair_ids[keep] % n
    merged = merged[keep]

    rows = np.concatenate([np.arange(n), pair_low, pair_high])
    cols = np.concatenate([np.arange(n), pair_high, pair_low])
    vals = np.concatenate([diagonal, merged, merged])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def windowed_vpec_networks(
    parasitics: Parasitics,
    window_size: int = 0,
    threshold: float = 0.0,
    policy: Optional[FallbackPolicy] = None,
) -> List[VpecNetwork]:
    """wVPEC networks for every current direction.

    Exactly one of ``window_size`` (geometric, > 0) or ``threshold``
    (numerical, > 0) selects the windowing flavor.  ``policy`` governs
    the fallback chain of the window solves (see
    :func:`windowed_inverse`).
    """
    if (window_size > 0) == (threshold > 0):
        raise ValueError(
            "choose either geometric (window_size > 0) or numerical "
            "(threshold > 0) windowing"
        )
    all_lengths = parasitics.system.lengths()
    networks: List[VpecNetwork] = []
    for indices, block in parasitics.inductance_blocks.values():
        if window_size > 0:
            windows = geometric_windows(parasitics.system, indices, window_size)
        else:
            windows = numerical_windows(block, threshold)
        s_prime = windowed_inverse(block, windows, policy=policy)
        networks.append(
            VpecNetwork.from_inverse(
                indices=indices,
                lengths=all_lengths[list(indices)],
                s_matrix=s_prime,
            )
        )
    return networks

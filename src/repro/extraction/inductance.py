"""Closed-form partial inductance extraction (the FastHenry substitute).

The PEEC model assigns every filament a *partial self inductance* and every
pair of parallel filaments a *partial mutual inductance* -- the inductance
of the virtual loop each conductor forms with infinity.  FastHenry computes
these by multipole-accelerated volume integration; for the rectilinear
filaments of the paper's experiments the same quantities have classical
closed forms (Grover, "Inductance Calculations", 1962 -- the paper's
reference [22]; Ruehli 1972):

- self inductance of a rectangular bar:
  ``L = (mu0 l / 2 pi) [ ln(2l/(w+t)) + 1/2 + 0.2235 (w+t)/l ]``;
- mutual inductance of two parallel filaments from the Neumann double
  integral, with a geometric-mean-distance (GMD) correction for the finite
  cross section of closely spaced equal-width conductors;
- zero mutual between orthogonal filaments (the ``k = x, y, z`` components
  decouple, which is why the paper treats each direction separately).

Assembly is organized around deduplication rather than per-pair loops:

- *Lattice fast path*: when an axis group is a rigid translation lattice
  (identical cross sections on uniformly spaced coordinates -- every
  regular bus), the mutual inductance depends only on the integer
  displacement between grid positions.  One table of at most ``m`` unique
  displacements is evaluated and fanned out to all ``m^2`` entries with a
  single fancy-indexed gather, so a 1024-conductor bus assembles in
  milliseconds.
- *General path*: irregular geometries evaluate the upper triangle once
  (mirrored exactly, never the full ``m x m`` grid) with collinear pairs
  masked out *before* the Neumann evaluation instead of being computed at
  a placeholder distance and discarded.
- *GMD memoization*: close-pair GMD quadratures are deduplicated by a
  quantized ``(section_a, section_b, off_w, off_t)`` key ahead of
  evaluation: each pair is one lookup of its key's bytes in a
  module-level LRU cache that persists across extractions
  (``gmd_unique_evals`` / ``gmd_cache_hits`` profiling counters record
  the traffic), and each distinct missing key is evaluated once.

The kernels are numerically equivalent to evaluating every pair with the
scalar formulas below: bit-for-bit on the general path, and to better
than 1e-12 relative on the lattice path (whose representative
displacements differ from per-pair coordinate differences only by
floating-point rounding of the grid arithmetic; the lattice gate
:data:`_LATTICE_RTOL` is chosen so that bound holds).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.extraction.constants import MU_0
from repro.geometry.filament import Axis
from repro.geometry.system import FilamentSystem
from repro.pipeline.profiling import add_counter

#: Lateral distances below this (meters) are treated as collinear.
_COLLINEAR_TOL = 1e-12

ArrayLike = Union[float, np.ndarray]


def self_inductance_bar(
    length: ArrayLike, width: ArrayLike, thickness: ArrayLike
) -> ArrayLike:
    """Partial self inductance of a rectangular bar, henries.

    The Grover / Ruehli approximation, accurate to ~1% for bars longer
    than their cross-section dimensions (all the paper's structures are).
    Accepts scalars or equal-shaped arrays (the batched form assembles
    the matrix diagonal in one call).
    """
    length_arr = np.asarray(length, dtype=float)
    width_arr = np.asarray(width, dtype=float)
    thickness_arr = np.asarray(thickness, dtype=float)
    if (
        np.any(length_arr <= 0)
        or np.any(width_arr <= 0)
        or np.any(thickness_arr <= 0)
    ):
        raise ValueError("bar dimensions must be positive")
    ratio = (width_arr + thickness_arr) / length_arr
    result = (
        MU_0
        * length_arr
        / (2.0 * np.pi)
        * (np.log(2.0 / ratio) + 0.5 + 0.2235 * ratio)
    )
    if np.ndim(length) == 0 and np.ndim(width) == 0 and np.ndim(thickness) == 0:
        return float(result)
    return result


def _neumann_g(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Antiderivative kernel ``G(u) = u asinh(u/d) - sqrt(u^2 + d^2)``.

    ``G''(u) = 1 / sqrt(u^2 + d^2)``, so the Neumann double integral of two
    parallel filaments is a four-term combination of ``G``.  Even in ``u``.
    """
    return u * np.arcsinh(u / d) - np.hypot(u, d)


def mutual_parallel_filaments(
    length_a: float,
    length_b: float,
    lateral_distance: float,
    axial_offset: float = 0.0,
) -> float:
    """Mutual partial inductance of two parallel thin filaments, henries.

    Filament A spans ``[0, length_a]`` along the common axis; filament B
    spans ``[axial_offset, axial_offset + length_b]`` at perpendicular
    distance ``lateral_distance``.  Positive for co-directed currents.

    This is the exact Neumann-integral solution for thin filaments
    (Grover ch. 9); finite cross sections are handled by passing a GMD as
    the distance.
    """
    if lateral_distance <= _COLLINEAR_TOL:
        return mutual_collinear_filaments(length_a, length_b, axial_offset)
    result = _mutual_parallel_vec(
        np.asarray(length_a, dtype=float),
        np.asarray(length_b, dtype=float),
        np.asarray(lateral_distance, dtype=float),
        np.asarray(axial_offset, dtype=float),
    )
    return float(result)


def _mutual_parallel_vec(
    length_a: np.ndarray,
    length_b: np.ndarray,
    distance: np.ndarray,
    offset: np.ndarray,
) -> np.ndarray:
    """Vectorized Neumann mutual for parallel filaments (distance > 0)."""
    g = _neumann_g
    total = (
        g(offset + length_b, distance)
        + g(offset - length_a, distance)
        - g(offset, distance)
        - g(offset + length_b - length_a, distance)
    )
    return MU_0 / (4.0 * np.pi) * total


def mutual_collinear_filaments(
    length_a: ArrayLike, length_b: ArrayLike, axial_offset: ArrayLike
) -> ArrayLike:
    """Mutual inductance of two collinear thin filaments, henries.

    Filament A spans ``[0, length_a]``; filament B spans
    ``[axial_offset, axial_offset + length_b]`` on the same line.  The
    filaments must not overlap (a gap of zero -- abutting segments of one
    wire -- is allowed); overlapping collinear filaments have no finite
    thin-wire mutual and indicate a malformed geometry.

    Accepts scalars or equal-shaped arrays; the array form evaluates all
    collinear pairs of a block in one shot.
    """
    scalar = (
        np.ndim(length_a) == 0
        and np.ndim(length_b) == 0
        and np.ndim(axial_offset) == 0
    )
    result = _mutual_collinear_vec(
        np.asarray(length_a, dtype=float),
        np.asarray(length_b, dtype=float),
        np.asarray(axial_offset, dtype=float),
    )
    return float(result) if scalar else result


def _mutual_collinear_vec(
    length_a: np.ndarray, length_b: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """Vectorized collinear mutual (broadcasts over equal-shaped arrays)."""
    length_a, length_b, offset = np.broadcast_arrays(length_a, length_b, offset)
    gap = np.where(offset >= 0, offset - length_a, -(offset + length_b))
    limit = -_COLLINEAR_TOL * np.maximum(np.maximum(length_a, length_b), 1e-30)
    if np.any(gap < limit):
        raise ValueError("collinear filaments overlap; geometry is malformed")
    gap = np.maximum(gap, 0.0)

    def xlogx(x: np.ndarray) -> np.ndarray:
        positive = x > 0
        safe = np.where(positive, x, 1.0)
        return np.where(positive, x * np.log(safe), 0.0)

    total = (
        xlogx(length_a + length_b + gap)
        - xlogx(length_a + gap)
        - xlogx(length_b + gap)
        + xlogx(gap)
    )
    return MU_0 / (4.0 * np.pi) * total


def gmd_parallel_tapes(width: float, distance: float) -> float:
    """Geometric mean distance of two equal-width coplanar tapes.

    Grover's series for the GMD ``g`` of two parallel line segments of
    width ``w`` whose centers are ``d`` apart (d >= w, i.e. non-overlapping
    coplanar conductors)::

        ln g = ln d - (w/d)^2/12 - (w/d)^4/60 - (w/d)^6/168 - ...

    Using the GMD in place of the center distance captures the dominant
    finite-cross-section effect for closely spaced bus lines.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    u2 = (width / distance) ** 2
    ln_g = np.log(distance) - u2 / 12.0 - u2**2 / 60.0 - u2**3 / 168.0
    return float(np.exp(ln_g))


#: Gauss-Legendre order per cross-section dimension for the numeric GMD.
_GMD_POINTS = 5

#: Pairs farther than this many max-cross-section-dimensions use the
#: centerline distance directly (the GMD correction is negligible there).
_GMD_CUTOFF = 6.0

#: Cached Gauss-Legendre rule (nodes scaled to [-1/2, 1/2]).
_GMD_NODES, _GMD_WEIGHTS = np.polynomial.legendre.leggauss(_GMD_POINTS)
_GMD_NODES = _GMD_NODES / 2.0
_GMD_WEIGHTS = _GMD_WEIGHTS / 2.0


def gmd_rectangles(
    width_a: float,
    thickness_a: float,
    width_b: float,
    thickness_b: float,
    offset_w: float,
    offset_t: float,
) -> float:
    """Geometric mean distance between two rectangular cross sections.

    ``ln g = (1 / A_a A_b) integral ln |r_a - r_b| dA_a dA_b`` evaluated
    by Gauss-Legendre quadrature; ``offset_w`` / ``offset_t`` are the
    center-to-center offsets along the width / thickness directions.

    Unlike the coplanar-tape series (:func:`gmd_parallel_tapes`), this
    handles *any* relative placement -- in particular tall, narrow
    conductors side by side, where the true GMD exceeds the centerline
    distance and a thin-filament mutual would overestimate the coupling
    (and break the diagonal dominance of ``L^-1``).
    """
    half = _GMD_NODES
    w_quad = _GMD_WEIGHTS

    ya = width_a * half
    za = thickness_a * half
    yb = offset_w + width_b * half
    zb = offset_t + thickness_b * half

    dy = ya[:, None, None, None] - yb[None, None, :, None]
    dz = za[None, :, None, None] - zb[None, None, None, :]
    log_r = 0.5 * np.log(dy**2 + dz**2)
    weight = (
        w_quad[:, None, None, None]
        * w_quad[None, :, None, None]
        * w_quad[None, None, :, None]
        * w_quad[None, None, None, :]
    )
    return float(np.exp(np.sum(weight * log_r)))


# ----------------------------------------------------------------------
# GMD memoization: quantized-key dedup + module-level LRU
# ----------------------------------------------------------------------

#: Coordinate quantum of the GMD cache key (meters): geometry matching to
#: better than a picometer shares one quadrature evaluation.
_GMD_KEY_QUANTUM = 1e12

#: Maximum number of distinct cross-section configurations kept warm
#: across extractions.  Regular layouts need a handful; the bound only
#: protects against pathological fully random geometry streams.
_GMD_CACHE_MAX = 65536

#: The memo, least recently used first, keyed by a key row's bytes
#: (:func:`_gmd_key_rows`).
_GMD_CACHE: "OrderedDict[bytes, float]" = OrderedDict()

#: One quantized key row as a single 48-byte item.
_GMD_KEY_ROW = np.dtype((np.void, 6 * 8))

_SIGN_BIT = np.uint64(1 << 63)


def clear_gmd_cache() -> None:
    """Drop the module-level GMD memoization (tests and cold benchmarks)."""
    _GMD_CACHE.clear()


def gmd_cache_size() -> int:
    """Number of GMD evaluations currently memoized."""
    return len(_GMD_CACHE)


def _gmd_key_rows(keys: np.ndarray) -> List[bytes]:
    """The bytes of each ``(m, 6)`` int64 key row, ordered like the rows.

    Each value is written big-endian with its sign bit flipped, so the
    bytes of two rows compare like their signed integer tuples: sorting
    them is sorting the rows lexicographically.
    """
    flipped = keys.view(np.uint64) ^ _SIGN_BIT
    return flipped.astype(">u8").view(_GMD_KEY_ROW).ravel().tolist()


def _gmd_grouped(
    width_a: np.ndarray,
    thickness_a: np.ndarray,
    width_b: np.ndarray,
    thickness_b: np.ndarray,
    off_w: np.ndarray,
    off_t: np.ndarray,
) -> np.ndarray:
    """GMDs of many close pairs, deduplicated *before* any quadrature runs.

    Pairs are keyed by the quantized ``(section_a, section_b, off_w,
    off_t)`` row (sections in canonical order -- the quadrature is
    symmetric under swapping the rectangles), and each pair is one
    lookup of its row's bytes in the module-level LRU cache.  A call
    touches its distinct keys in sorted key order: a hit moves to the
    most recent end, and a miss evaluates :func:`gmd_rectangles` once
    with the exact geometry of its key's first pair, evicting the least
    recently used entry when the cache is full.
    """
    keys = np.round(
        np.stack([width_a, thickness_a, width_b, thickness_b, off_w, off_t], axis=1)
        * _GMD_KEY_QUANTUM
    ).astype(np.int64)
    swap = (keys[:, 0] > keys[:, 2]) | (
        (keys[:, 0] == keys[:, 2]) & (keys[:, 1] > keys[:, 3])
    )
    keys[swap, :4] = keys[swap][:, [2, 3, 0, 1]]
    rows = _gmd_key_rows(keys)
    cache = _GMD_CACHE
    values = list(map(cache.get, rows))
    misses = 0
    if None in values:
        # Reversed, so each key keeps the index of its first pair.
        first = dict(zip(reversed(rows), range(len(rows) - 1, -1, -1)))
        resolved = {}
        for key in sorted(first):
            value = cache.get(key)
            if value is None:
                rep = first[key]
                value = gmd_rectangles(
                    float(width_a[rep]),
                    float(thickness_a[rep]),
                    float(width_b[rep]),
                    float(thickness_b[rep]),
                    float(off_w[rep]),
                    float(off_t[rep]),
                )
                if len(cache) >= _GMD_CACHE_MAX:
                    cache.popitem(last=False)
                cache[key] = value
                misses += 1
            else:
                cache.move_to_end(key)
            resolved[key] = value
        values = list(map(resolved.__getitem__, rows))
    else:
        for key in sorted(set(rows)):
            cache.move_to_end(key)
    add_counter("gmd_unique_evals", misses)
    add_counter("gmd_cache_hits", len(rows) - misses)
    return np.array(values, dtype=float)


# ----------------------------------------------------------------------
# Block assembly
# ----------------------------------------------------------------------


def partial_inductance_matrix(
    system: FilamentSystem, gmd_correction: bool = True
) -> np.ndarray:
    """Full partial inductance matrix ``L`` of a filament system, henries.

    Shape ``(n, n)``, symmetric, with zero entries between orthogonal
    filaments.  Every parallel pair is included -- including collinear
    segments of the same line ("forward coupling"), matching the paper's
    experiment setting ("coupling between any pair of segments, including
    segments in a same line, is considered").

    Parameters
    ----------
    system:
        The discretized conductors.
    gmd_correction:
        Apply the tape-GMD correction to lateral distances of equal-width
        pairs (on by default; disable to get pure thin-filament coupling).
    """
    n = len(system)
    blocks = inductance_blocks(system, gmd_correction)
    if len(blocks) == 1:
        indices, block = next(iter(blocks.values()))
        if len(indices) == n and indices == list(range(n)):
            return block
    matrix = np.zeros((n, n))
    for indices, block in blocks.values():
        matrix[np.ix_(indices, indices)] = block
    return matrix


def inductance_blocks(
    system: FilamentSystem, gmd_correction: bool = True
) -> Dict[Axis, Tuple[List[int], np.ndarray]]:
    """Per-direction inductance blocks ``{axis: (indices, L_block)}``.

    The blocks are the matrices the VPEC inversion consumes: mutual
    inductance only exists between filaments sharing a current axis, so
    ``L`` is block-diagonal under this grouping.
    """
    blocks: Dict[Axis, Tuple[List[int], np.ndarray]] = {}
    for axis, indices in system.indices_by_axis().items():
        blocks[axis] = (indices, _axis_block(system, indices, axis, gmd_correction))
    return blocks


def axis_geometry(
    system: FilamentSystem, indices: List[int], axis: Axis
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-filament kernel inputs of one axis group.

    Returns ``(lengths, widths, thicknesses, starts, centers)`` where
    ``centers`` holds the two perpendicular center coordinates ordered
    (width direction, thickness direction) per the Filament orientation
    convention.  Shared by the dense assembly below and the hierarchical
    builder (:mod:`repro.extraction.hierarchical`), so both paths feed
    the Neumann/GMD kernels bit-identical inputs.
    """
    filaments = [system[i] for i in indices]
    lengths = np.array([f.length for f in filaments])
    widths = np.array([f.width for f in filaments])
    thicknesses = np.array([f.thickness for f in filaments])
    starts = np.array([f.axial_span[0] for f in filaments])
    axis_index = axis.value
    perp_axes = [k for k in range(3) if k != axis_index]
    centers = system.centers()[np.ix_(indices, perp_axes)]
    return lengths, widths, thicknesses, starts, centers


def _axis_block(
    system: FilamentSystem,
    indices: List[int],
    axis: Axis,
    gmd_correction: bool,
) -> np.ndarray:
    lengths, widths, thicknesses, starts, centers = axis_geometry(
        system, indices, axis
    )
    m = lengths.size

    diagonal = np.asarray(
        self_inductance_bar(lengths, widths, thicknesses), dtype=float
    ).reshape(m)
    if m == 1:
        return diagonal.reshape(1, 1).copy()

    lattice = _lattice_structure(lengths, widths, thicknesses, starts, centers)
    if lattice is not None:
        block = _lattice_block(
            lattice, lengths[0], widths[0], thicknesses[0], centers, gmd_correction
        )
    else:
        block = _general_block(
            lengths, widths, thicknesses, starts, centers, gmd_correction
        )
    np.fill_diagonal(block, diagonal)
    return block


#: Relative (to the grid step) tolerance for accepting a coordinate set
#: as a uniform lattice.  Kept at the floating-point-noise scale so the
#: representative-displacement evaluation of the lattice fast path stays
#: within 1e-12 of the exact per-pair coordinate differences.
_LATTICE_RTOL = 1e-12


class _Lattice:
    """Uniform translation lattice of one axis group.

    ``codes`` are per-filament integer grid positions along (width
    direction, thickness direction, axial direction); ``deltas`` the
    per-dimension displacement tables ``u - u[0]`` built from the actual
    unique coordinate values (so a representative displacement carries the
    same bits as the per-pair coordinate differences on exactly generated
    grids, keeping threshold comparisons like the GMD cutoff consistent
    with the scalar path); ``shape`` the grid extents.  Mutual inductance
    between two lattice filaments depends only on the absolute
    displacement ``(|dky|, |dkz|, |dks|)``, which is what the table
    fan-out exploits.
    """

    __slots__ = ("codes", "deltas", "shape")

    def __init__(
        self,
        codes: np.ndarray,
        deltas: Tuple[np.ndarray, np.ndarray, np.ndarray],
        shape: Tuple[int, int, int],
    ) -> None:
        self.codes = codes
        self.deltas = deltas
        self.shape = shape


def _uniform_axis(values: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Grid codes and displacements of one coordinate, or ``None``.

    Accepts the coordinate set as a uniform lattice axis when its unique
    values form an arithmetic progression to within :data:`_LATTICE_RTOL`
    of the step.
    """
    unique = np.unique(values)
    if unique.size == 1:
        return np.zeros(values.size, dtype=np.int64), np.zeros(1)
    step = (unique[-1] - unique[0]) / (unique.size - 1)
    if step <= 0:
        return None
    ideal = unique[0] + step * np.arange(unique.size)
    if np.max(np.abs(unique - ideal)) > _LATTICE_RTOL * step:
        return None
    return np.searchsorted(unique, values), unique - unique[0]


def _lattice_structure(
    lengths: np.ndarray,
    widths: np.ndarray,
    thicknesses: np.ndarray,
    starts: np.ndarray,
    centers: np.ndarray,
) -> Optional[_Lattice]:
    """Detect a rigid translation lattice (identical bars on a grid)."""
    if (
        np.ptp(lengths) != 0.0
        or np.ptp(widths) != 0.0
        or np.ptp(thicknesses) != 0.0
    ):
        return None
    axes = []
    for values in (centers[:, 0], centers[:, 1], starts):
        result = _uniform_axis(values)
        if result is None:
            return None
        axes.append(result)
    codes = np.stack([a[0] for a in axes], axis=1)
    deltas = (axes[0][1], axes[1][1], axes[2][1])
    shape = (deltas[0].size, deltas[1].size, deltas[2].size)
    # Two filaments on one grid point would be overlapping geometry; let
    # the general path raise its malformed-geometry error.
    flat = (codes[:, 0] * shape[1] + codes[:, 1]) * shape[2] + codes[:, 2]
    if np.unique(flat).size != flat.size:
        return None
    return _Lattice(codes, deltas, shape)


def _lattice_block(
    lattice: _Lattice,
    length: float,
    width: float,
    thickness: float,
    centers: np.ndarray,
    gmd_correction: bool,
) -> np.ndarray:
    """Assemble a lattice group from its unique-displacement table.

    The table holds one mutual inductance per absolute grid displacement
    ``(|dky|, |dkz|, |dks|)`` -- at most ``m`` entries for an ``m``-point
    lattice -- evaluated with the same Neumann / GMD / collinear kernels
    as the general path; the full ``m x m`` block is then a single
    fancy-indexed gather.  (The offset enters the Neumann form evenly for
    equal-length filaments, so signed displacements fold onto absolute
    ones.)

    Displacement classes whose distance lands within float rounding of
    the GMD cutoff get a per-pair patch-up: the per-pair coordinate
    differences spread over a few ulps and can straddle the cutoff
    inside one class, so both the GMD-corrected and the raw-distance
    value are evaluated and each pair picks the side its own exact
    distance falls on -- matching the scalar path bit for bit.
    """
    ny, nz, ns = lattice.shape
    delta_y, delta_z, delta_s = lattice.deltas
    dky, dkz, dks = np.meshgrid(
        np.arange(ny), np.arange(nz), np.arange(ns), indexing="ij"
    )
    dky = dky.ravel()
    dkz = dkz.ravel()
    dks = dks.ravel()
    dy = delta_y[dky]
    dz = delta_z[dkz]
    offset = delta_s[dks]
    distance = np.hypot(dy, dz)
    table = np.zeros(dky.size)

    lateral = distance > _COLLINEAR_TOL
    eff = distance.copy()
    ambiguous = np.zeros(0, dtype=np.intp)
    if gmd_correction:
        dim = max(width, thickness)
        cutoff = _GMD_CUTOFF * dim
        close = lateral & (distance < cutoff)
        sel = np.nonzero(close)[0]
        if sel.size:
            section = np.full(sel.size, width)
            section_t = np.full(sel.size, thickness)
            eff[sel] = _gmd_grouped(
                section, section_t, section, section_t, dy[sel], dz[sel]
            )
        coord_mag = float(np.max(np.abs(centers))) if centers.size else 0.0
        boundary_tol = 64.0 * np.finfo(float).eps * (cutoff + coord_mag)
        ambiguous = np.nonzero(
            lateral & (np.abs(distance - cutoff) <= boundary_tol)
        )[0]
    full_length = np.full(dky.size, length)
    lat = np.nonzero(lateral)[0]
    table[lat] = _mutual_parallel_vec(
        full_length[lat], full_length[lat], eff[lat], offset[lat]
    )
    # Displacement (0, 0, ds > 0): collinear segments of one line.
    col = np.nonzero(~lateral & (dks > 0))[0]
    if col.size:
        table[col] = _mutual_collinear_vec(
            full_length[col], full_length[col], offset[col]
        )

    # Absolute-displacement flat index for every pair.  Dimensions of
    # extent 1 contribute nothing, so they are skipped -- a straight bus
    # needs exactly one |code_i - code_j| broadcast.
    codes = lattice.codes.astype(np.int32)
    idx: Optional[np.ndarray] = None
    for dim_index, (extent, stride) in enumerate(
        ((ny, nz * ns), (nz, ns), (ns, 1))
    ):
        if extent == 1:
            continue
        term = np.abs(codes[:, None, dim_index] - codes[None, :, dim_index])
        if stride != 1:
            term *= stride
        idx = term if idx is None else np.add(idx, term, out=idx)
    if idx is None:
        idx = np.zeros((codes.shape[0], codes.shape[0]), dtype=np.int32)
    # Fancy indexing casts non-native index dtypes on every gather; one
    # up-front cast keeps both the table gather and the boundary-mask
    # gather at native speed.
    idx = idx.astype(np.intp)
    add_counter("lattice_blocks")
    block = table[idx]

    if ambiguous.size:
        section = np.full(ambiguous.size, width)
        section_t = np.full(ambiguous.size, thickness)
        gmd_eff = _gmd_grouped(
            section, section_t, section, section_t, dy[ambiguous], dz[ambiguous]
        )
        value_close = np.zeros(table.size)
        value_far = np.zeros(table.size)
        value_close[ambiguous] = _mutual_parallel_vec(
            full_length[ambiguous],
            full_length[ambiguous],
            gmd_eff,
            offset[ambiguous],
        )
        value_far[ambiguous] = _mutual_parallel_vec(
            full_length[ambiguous],
            full_length[ambiguous],
            distance[ambiguous],
            offset[ambiguous],
        )
        amb_mask = np.zeros(table.size, dtype=bool)
        amb_mask[ambiguous] = True
        flat_members = np.flatnonzero(amb_mask[idx])
        ii, jj = np.divmod(flat_members, codes.shape[0])
        pair_distance = np.hypot(
            centers[ii, 0] - centers[jj, 0], centers[ii, 1] - centers[jj, 1]
        )
        cls = idx[ii, jj]
        block[ii, jj] = np.where(
            pair_distance < cutoff, value_close[cls], value_far[cls]
        )
    return block


def _general_block(
    lengths: np.ndarray,
    widths: np.ndarray,
    thicknesses: np.ndarray,
    starts: np.ndarray,
    centers: np.ndarray,
    gmd_correction: bool,
) -> np.ndarray:
    """Upper-triangle vectorized assembly for irregular geometries.

    Each unordered pair is evaluated exactly once and mirrored, with the
    collinear pairs masked out of the Neumann evaluation up front (the
    scalar path used to evaluate them at a placeholder distance and
    discard the result).
    """
    m = lengths.size
    rows, cols = np.triu_indices(m, k=1)
    dy = centers[rows, 0] - centers[cols, 0]
    dz = centers[rows, 1] - centers[cols, 1]
    distance = np.hypot(dy, dz)
    offset = starts[cols] - starts[rows]
    len_a = lengths[rows]
    len_b = lengths[cols]

    lateral = distance > _COLLINEAR_TOL
    eff = distance.copy()
    if gmd_correction:
        dims = np.maximum(widths, thicknesses)
        pair_dim = np.maximum(dims[rows], dims[cols])
        close = lateral & (distance < _GMD_CUTOFF * pair_dim)
        sel = np.nonzero(close)[0]
        if sel.size:
            eff[sel] = _gmd_grouped(
                widths[rows[sel]],
                thicknesses[rows[sel]],
                widths[cols[sel]],
                thicknesses[cols[sel]],
                np.abs(dy[sel]),
                np.abs(dz[sel]),
            )

    values = np.zeros(rows.size)
    lat = np.nonzero(lateral)[0]
    if lat.size:
        values[lat] = _mutual_parallel_vec(
            len_a[lat], len_b[lat], eff[lat], offset[lat]
        )
    col = np.nonzero(~lateral)[0]
    if col.size:
        values[col] = _mutual_collinear_vec(len_a[col], len_b[col], offset[col])

    block = np.zeros((m, m))
    block[rows, cols] = values
    block[cols, rows] = values
    return block

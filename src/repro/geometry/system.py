"""Collections of filaments forming a multi-wire interconnect system."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.filament import Axis, Filament


def _merge_interval(
    intervals: List[Tuple[float, float]], new: Tuple[float, float]
) -> List[Tuple[float, float]]:
    """Union of a sorted disjoint interval list with one more interval."""
    lo, hi = new
    merged: List[Tuple[float, float]] = []
    placed = False
    for a, b in intervals:
        if b < lo or a > hi:
            if not placed and a > hi:
                merged.append((lo, hi))
                placed = True
            merged.append((a, b))
        else:
            lo, hi = min(lo, a), max(hi, b)
    if not placed:
        merged.append((lo, hi))
    merged.sort()
    return merged


def _uncovered_length(
    span: Tuple[float, float], intervals: List[Tuple[float, float]]
) -> float:
    """Length of ``span`` not covered by the disjoint ``intervals``."""
    lo, hi = span
    remaining = hi - lo
    for a, b in intervals:
        remaining -= max(0.0, min(hi, b) - max(lo, a))
    return remaining


class FilamentSystem:
    """An ordered collection of filaments plus wire connectivity.

    The system is the hand-off object between geometry generators
    (:mod:`repro.geometry.bus`, :mod:`repro.geometry.spiral`), the
    extraction layer (which consumes pairwise geometry) and the circuit
    builders (which consume wire connectivity: the filaments of one wire
    are electrically connected in series, in ``segment`` order).

    Parameters
    ----------
    filaments:
        The filaments, in any order; they are kept in the given order and
        indexed ``0 .. n-1``.
    name:
        Human-readable label used in netlist titles.
    """

    #: :meth:`centers` and :meth:`filament_wires`, built on first use.
    _centers: Optional[np.ndarray] = None
    _filament_wires: Optional[np.ndarray] = None

    def __init__(self, filaments: Iterable[Filament], name: str = "system") -> None:
        self._filaments: List[Filament] = list(filaments)
        if not self._filaments:
            raise ValueError("a FilamentSystem needs at least one filament")
        self.name = name
        self._wires: Dict[int, List[int]] = {}
        for index, filament in enumerate(self._filaments):
            self._wires.setdefault(filament.wire, []).append(index)
        for wire, members in self._wires.items():
            members.sort(key=lambda i: self._filaments[i].segment)
            segments = [self._filaments[i].segment for i in members]
            if segments != list(range(len(members))):
                raise ValueError(
                    f"wire {wire} has segment indices {segments}; expected "
                    f"0..{len(members) - 1} without gaps"
                )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._filaments)

    def __iter__(self) -> Iterator[Filament]:
        return iter(self._filaments)

    def __getitem__(self, index: int) -> Filament:
        return self._filaments[index]

    @property
    def filaments(self) -> Sequence[Filament]:
        """The filaments in index order."""
        return tuple(self._filaments)

    # ------------------------------------------------------------------
    # Wire structure
    # ------------------------------------------------------------------
    @property
    def wire_ids(self) -> List[int]:
        """Sorted wire identifiers."""
        return sorted(self._wires)

    @property
    def num_wires(self) -> int:
        return len(self._wires)

    def filament_wires(self) -> np.ndarray:
        """Wire of each filament, shape ``(n,)``, read-only.

        Entry ``i`` is ``self[i].wire``.  The array is built once, on
        first use, and shared by every later caller.
        """
        if self._filament_wires is None:
            wires = np.array([f.wire for f in self._filaments], dtype=int)
            wires.flags.writeable = False
            self._filament_wires = wires
        return self._filament_wires

    def wire_filaments(self, wire: int) -> List[int]:
        """Filament indices of a wire, in series (segment) order."""
        return list(self._wires[wire])

    def segments_per_wire(self) -> Dict[int, int]:
        """Number of series segments of each wire."""
        return {wire: len(members) for wire, members in self._wires.items()}

    # ------------------------------------------------------------------
    # Bulk geometry arrays (consumed by extraction)
    # ------------------------------------------------------------------
    def lengths(self) -> np.ndarray:
        """Filament lengths in meters, shape ``(n,)``."""
        return np.array([f.length for f in self._filaments])

    def centers(self) -> np.ndarray:
        """Filament centers in meters, shape ``(n, 3)``, read-only.

        Row ``i`` is ``self[i].center``.  The array is built once, on
        first use, and shared by every later caller.
        """
        if self._centers is None:
            centers = np.array([f.center for f in self._filaments])
            centers.flags.writeable = False
            self._centers = centers
        return self._centers

    def axes(self) -> List[Axis]:
        """Current axis of each filament."""
        return [f.axis for f in self._filaments]

    def indices_by_axis(self) -> Dict[Axis, List[int]]:
        """Filament indices grouped by current direction.

        The VPEC formulation treats each spatial component ``k`` in
        ``x, y, z`` independently (mutual inductance between orthogonal
        filaments is zero), so extraction and inversion are performed per
        group.
        """
        groups: Dict[Axis, List[int]] = {}
        for index, filament in enumerate(self._filaments):
            groups.setdefault(filament.axis, []).append(index)
        return groups

    def uniform_segment_length(self, rel_tol: float = 1e-6) -> float:
        """The common filament length, if all filaments share one.

        Raises ``ValueError`` when lengths differ by more than ``rel_tol``
        relatively; used by builders that rely on the paper's uniform
        ``l`` assumption (the general builders use per-filament lengths).
        """
        lengths = self.lengths()
        l_ref = float(lengths[0])
        if np.any(np.abs(lengths - l_ref) > rel_tol * l_ref):
            raise ValueError("filament lengths are not uniform")
        return l_ref

    # ------------------------------------------------------------------
    # Adjacency (capacitive coupling and the localized-VPEC baseline)
    # ------------------------------------------------------------------
    def adjacent_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of *adjacent* parallel filaments (lateral neighbors).

        Two parallel filaments are adjacent when their axial spans overlap
        and no third parallel filament shadows that overlap from laterally
        between them (the definition the paper uses both for short-range
        capacitive coupling and for the localized VPEC model of [15]).
        Pairs are returned with ``i < j``, each pair once.

        Coplanar groups (all the paper's structures: bus lines in one metal
        layer, spiral legs in one layer) use an O(n log n + output) sweep;
        general 3-D arrangements fall back to a pairwise blocker check.
        """
        pairs: List[Tuple[int, int]] = []
        for indices in self.indices_by_axis().values():
            pairs.extend(self._adjacent_in_group(indices))
        pairs = [(min(i, j), max(i, j)) for i, j in pairs]
        return sorted(set(pairs))

    def _adjacent_in_group(self, indices: Sequence[int]) -> List[Tuple[int, int]]:
        if len(indices) < 2:
            return []
        axis = self._filaments[indices[0]].axis.value
        perp = [k for k in range(3) if k != axis]
        coords = self.centers()[np.ix_(indices, perp)]
        scale = max(
            self._filaments[i].width + self._filaments[i].thickness for i in indices
        )
        for flat_dim in (0, 1):
            if np.ptp(coords[:, flat_dim]) < 1e-9 * max(scale, 1e-12):
                sweep_dim = 1 - flat_dim
                return self._adjacent_sweep(indices, coords[:, sweep_dim])
        return self._adjacent_blocker_scan(indices)

    def _adjacent_sweep(
        self, indices: Sequence[int], lateral: np.ndarray
    ) -> List[Tuple[int, int]]:
        """1-D visibility sweep for a coplanar parallel group.

        Filaments are sorted by their lateral coordinate; for each filament
        we scan outward, keeping the union of axial intervals already
        shadowed by closer filaments.  A farther filament is adjacent when
        it overlaps an unshadowed part of the axial span.  Axial spans and
        lateral coordinates are read from lists built once per group.
        """
        spans = [self._filaments[i].axial_span for i in indices]
        coords = lateral.tolist()
        order = sorted(range(len(indices)), key=lambda k: coords[k])
        pairs: List[Tuple[int, int]] = []
        for a_pos, a in enumerate(order):
            i = indices[a]
            lo_i, hi_i = spans[a]
            shadow: List[Tuple[float, float]] = []
            for b in order[a_pos + 1 :]:
                if abs(coords[b] - coords[a]) < 1e-15:
                    continue
                lo_j, hi_j = spans[b]
                lo = max(lo_i, lo_j)
                hi = min(hi_i, hi_j)
                if hi - lo <= 0.0:
                    continue
                if _uncovered_length((lo, hi), shadow) > 1e-12 * (hi_i - lo_i):
                    pairs.append((i, indices[b]))
                    shadow = _merge_interval(shadow, (lo, hi))
                if _uncovered_length((lo_i, hi_i), shadow) <= 1e-12 * (hi_i - lo_i):
                    break
        return pairs

    def _adjacent_blocker_scan(self, indices: Sequence[int]) -> List[Tuple[int, int]]:
        pairs: List[Tuple[int, int]] = []
        for a_pos, i in enumerate(indices):
            for j in indices[a_pos + 1 :]:
                f_i, f_j = self._filaments[i], self._filaments[j]
                if f_i.lateral_distance_to(f_j) < 1e-15:
                    continue
                if self._axial_overlap(f_i, f_j) <= 0.0:
                    continue
                if not self._has_blocker(i, j, indices):
                    pairs.append((i, j))
        return pairs

    def _axial_overlap(self, f_i: Filament, f_j: Filament) -> float:
        lo_i, hi_i = f_i.axial_span
        lo_j, hi_j = f_j.axial_span
        return min(hi_i, hi_j) - max(lo_i, lo_j)

    def _has_blocker(self, i: int, j: int, candidates: Sequence[int]) -> bool:
        """True when some filament lies laterally between filaments i and j."""
        f_i, f_j = self._filaments[i], self._filaments[j]
        axis = f_i.axis.value
        perp = [k for k in range(3) if k != axis]
        c_i = f_i.center
        c_j = f_j.center
        direction = [c_j[p] - c_i[p] for p in perp]
        gap = math.hypot(*direction)
        if gap == 0.0:
            return False
        direction = [d / gap for d in direction]
        for k in candidates:
            if k in (i, j):
                continue
            f_k = self._filaments[k]
            if self._axial_overlap(f_i, f_k) <= 0.0 or self._axial_overlap(f_j, f_k) <= 0.0:
                continue
            c_k = f_k.center
            offset = [c_k[p] - c_i[p] for p in perp]
            along = sum(o * d for o, d in zip(offset, direction))
            if not (1e-12 < along < gap - 1e-12):
                continue
            across = math.sqrt(max(sum(o * o for o in offset) - along * along, 0.0))
            max_half_width = max(f_i.width, f_j.width, f_k.width)
            if across <= max_half_width:
                return True
        return False

    def crossing_pairs(self) -> List[Tuple[int, int, float, float]]:
        """Orthogonal in-plane crossings: ``(i, j, overlap_area, gap)``.

        Pairs one X-directed and one Y-directed filament whose plan-view
        footprints overlap, with ``gap`` the vertical face-to-face
        dielectric distance (crossings on the same layer -- gap <= 0 --
        are skipped: that would be a short, not a coupling).  Feeds the
        crossing-capacitance extraction for multi-layer routing.
        """
        groups = self.indices_by_axis()
        x_group = groups.get(Axis.X, [])
        y_group = groups.get(Axis.Y, [])
        crossings: List[Tuple[int, int, float, float]] = []
        for i in x_group:
            f_i = self._filaments[i]
            ix = f_i.axial_span
            iy = (f_i.origin[1], f_i.origin[1] + f_i.width)
            iz = (f_i.origin[2], f_i.origin[2] + f_i.thickness)
            for j in y_group:
                f_j = self._filaments[j]
                jx = (f_j.origin[0], f_j.origin[0] + f_j.width)
                jy = f_j.axial_span
                jz = (f_j.origin[2], f_j.origin[2] + f_j.thickness)
                dx = min(ix[1], jx[1]) - max(ix[0], jx[0])
                dy = min(iy[1], jy[1]) - max(iy[0], jy[0])
                if dx <= 0 or dy <= 0:
                    continue
                gap = max(jz[0] - iz[1], iz[0] - jz[1])
                if gap <= 0:
                    continue
                pair = (min(i, j), max(i, j))
                crossings.append((pair[0], pair[1], dx * dy, gap))
        return crossings

    # ------------------------------------------------------------------
    def validate_no_overlaps(self) -> None:
        """Raise ``ValueError`` if any two filament volumes intersect.

        O(n^2); intended for tests and small systems, not hot paths.
        """
        n = len(self._filaments)
        for i in range(n):
            for j in range(i + 1, n):
                if self._filaments[i].overlaps(self._filaments[j]):
                    raise ValueError(f"filaments {i} and {j} overlap")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilamentSystem(name={self.name!r}, filaments={len(self)}, "
            f"wires={self.num_wires})"
        )

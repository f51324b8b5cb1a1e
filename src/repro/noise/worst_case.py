"""Worst-case aggressor alignment within the feasible overlap region.

Given per-pair peak bounds and switching windows, the worst case for a
victim is the alignment time ``t*`` inside its sensitive window where
the sum of bounds over simultaneously-switchable aggressors is maximal.
Because the estimate of each aggressor is constant over its switching
window, the summed estimate is piecewise constant in ``t`` and changes
only at window endpoints -- so an endpoint sweep over the (clipped)
aggressor window starts finds the exact maximum, and the same segment
decomposition yields the victim's *noise windows*: the sub-intervals of
its sensitive window where the aligned estimate meets the failure
threshold.

Aligning every selected aggressor exactly at ``t*`` (in-phase peak
superposition) is conservative for a linear circuit: the superposed
peak of any real alignment is bounded by the sum of individual peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.noise.receiver import ReceiverModel, resolve_threshold
from repro.noise.windows import Window, WindowSet


@dataclass(frozen=True)
class Alignment:
    """Worst-case alignment of one victim's aggressors.

    Attributes
    ----------
    victim:
        Victim wire index.
    time:
        The worst alignment instant ``t*`` (earliest maximizer), or
        ``nan`` when no aggressor is feasible.
    aggressors:
        Wire indices aligned at ``t*``, sorted ascending.
    peak:
        Summed peak-bound of the aligned set, volts.
    area:
        Summed noise-area bound of the aligned set, volt-seconds.
    noise_windows:
        Sub-intervals of the sensitive window where the aligned
        estimate meets the threshold handed to the selector.
    feasible:
        All aggressors whose windows meet the victim's sensitive
        window (the superset the sweep chose from).
    """

    victim: int
    time: float
    aggressors: Tuple[int, ...]
    peak: float
    area: float
    noise_windows: WindowSet
    feasible: Tuple[int, ...]

    @property
    def is_quiet(self) -> bool:
        return not self.aggressors


def _window_bounds(windows: Sequence[Window]) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` arrays of a window sequence."""
    starts = np.array([w.start for w in windows], dtype=float)
    ends = np.array([w.end for w in windows], dtype=float)
    return starts, ends


def _hot_segments(
    starts: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    mids: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Per segment midpoint: does the summed estimate meet ``threshold``?

    The summed estimate at ``mid`` is the weight of the pieces with
    ``start <= mid <= end``: the prefix weight of pieces starting at or
    before ``mid`` minus that of pieces ending before it.  That
    difference can round differently from the masked sum, but both add
    up positive weights, so they differ by less than ``slack``.  A
    segment that close to the threshold is decided by the masked sum
    itself, so every decision is the masked sum's.
    """
    by_start = np.argsort(starts, kind="stable")
    by_end = np.argsort(ends, kind="stable")
    started = np.concatenate([[0.0], np.cumsum(weights[by_start])])
    ended = np.concatenate([[0.0], np.cumsum(weights[by_end])])
    levels = (
        started[np.searchsorted(starts[by_start], mids, side="right")]
        - ended[np.searchsorted(ends[by_end], mids, side="left")]
    )
    slack = 4.0 * weights.size * np.finfo(float).eps * float(weights.sum())
    for seg in np.flatnonzero(~(np.abs(levels - threshold) > slack)):
        mid = mids[seg]
        levels[seg] = float(weights[(starts <= mid) & (mid <= ends)].sum())
    return levels >= threshold


def _align_victim(
    victim: int,
    peak_row: np.ndarray,
    area_row: np.ndarray,
    switch_starts: np.ndarray,
    switch_ends: np.ndarray,
    sensitive: WindowSet,
    threshold: float,
) -> Alignment:
    """Endpoint-sweep worst-case selection for one victim (see module).

    ``switch_starts`` / ``switch_ends`` hold every net's switching
    window; ``threshold`` is already resolved.
    """
    quiet = Alignment(victim, float("nan"), (), 0.0, 0.0, WindowSet(), ())
    if sensitive.is_empty:
        return quiet

    # Every eligible net's window clipped to every sensitive window, in
    # (net, sensitive window) order.  The sensitive windows are sorted
    # and disjoint, so a net's pieces are too.
    sens_starts, sens_ends = _window_bounds(sensitive.windows)
    clip_starts = np.maximum(sens_starts[None, :], switch_starts[:, None])
    clip_ends = np.minimum(sens_ends[None, :], switch_ends[:, None])
    eligible = ~(peak_row <= 0.0)
    eligible[victim] = False
    owners, slots = np.nonzero((clip_starts <= clip_ends) & eligible[:, None])
    if not owners.size:
        return quiet
    starts = clip_starts[owners, slots]
    ends = clip_ends[owners, slots]
    weights = peak_row[owners]
    feasible = tuple(np.unique(owners).tolist())

    # The summed estimate is piecewise constant with breakpoints at
    # piece endpoints; with closed intervals every maximal segment
    # contains at least one piece start, so sweeping starts is exact.
    candidates = np.unique(starts)
    membership = (starts[None, :] <= candidates[:, None]) & (
        candidates[:, None] <= ends[None, :]
    )
    totals = membership @ weights
    best = int(np.argmax(totals))
    t_star = float(candidates[best])
    active = membership[best]
    aligned = tuple(np.unique(owners[active]).tolist())
    peak = float(weights[active].sum())
    area = float(area_row[owners][active].sum())

    # Noise windows: segments between consecutive breakpoints whose
    # midpoint-level summed estimate meets the threshold.  Runs of
    # such segments touch, so each run is one merged window.
    bounds = np.unique(np.concatenate([starts, ends]))
    hot = _hot_segments(
        starts, ends, weights, 0.5 * (bounds[:-1] + bounds[1:]), threshold
    )
    edges = np.diff(np.concatenate([[0], hot, [0]]))
    noise = [
        Window(float(bounds[lo]), float(bounds[hi]))
        for lo, hi in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    ]
    return Alignment(
        victim=victim,
        time=t_star,
        aggressors=aligned,
        peak=peak,
        area=area,
        noise_windows=WindowSet(noise),
        feasible=feasible,
    )


def worst_case_alignment(
    victim: int,
    peak_row: np.ndarray,
    area_row: np.ndarray,
    switching: Sequence[Window],
    sensitive: WindowSet,
    threshold: float,
    receiver: Optional[ReceiverModel] = None,
    vdd: float = 1.0,
) -> Alignment:
    """Endpoint-sweep worst-case selection for one victim.

    ``peak_row`` / ``area_row`` are the victim's rows of the screening
    matrices (entry per wire, zero at the victim itself).  When a
    ``receiver`` model is given it overrides the scalar ``threshold``
    with its effective input threshold at ``vdd`` (see
    :func:`repro.noise.receiver.resolve_threshold`).
    """
    threshold = resolve_threshold(threshold, receiver, vdd)
    return _align_victim(
        victim, peak_row, area_row, *_window_bounds(switching), sensitive,
        threshold,
    )


def align_all(
    peak: np.ndarray,
    area: np.ndarray,
    switching: Sequence[Window],
    sensitive: Sequence[WindowSet],
    threshold: float,
    receiver: Optional[ReceiverModel] = None,
    vdd: float = 1.0,
) -> List[Alignment]:
    """Worst-case alignment for every victim of the model."""
    num_wires = peak.shape[0]
    if len(switching) != num_wires or len(sensitive) != num_wires:
        raise ValueError("windows must have one entry per wire")
    threshold = resolve_threshold(threshold, receiver, vdd)
    switch_starts, switch_ends = _window_bounds(switching)
    return [
        _align_victim(
            victim, peak[victim], area[victim], switch_starts, switch_ends,
            sensitive[victim], threshold,
        )
        for victim in range(num_wires)
    ]

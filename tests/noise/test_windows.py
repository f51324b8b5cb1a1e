"""Window-algebra unit tests: overlap, containment and empty-window
edge cases, plus exact worst-case alignment sets on hand-built window
configurations (zero-width windows, fully disjoint aggressors, the
all-aligned worst case), and a property pinning the array sweep to the
per-net, per-segment reference loops field for field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.noise.windows import (
    Window,
    WindowSet,
    feasible_aggressors,
    sensitive_windows,
    staggered_schedule,
    switching_windows,
)
from repro.noise.worst_case import Alignment, align_all, worst_case_alignment


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(2.0, 1.0)
        with pytest.raises(ValueError):
            Window(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Window(0.0, float("inf"))

    def test_width_and_point(self):
        assert Window(1.0, 3.0).width == 2.0
        assert not Window(1.0, 3.0).is_point
        assert Window(2.0, 2.0).is_point
        assert Window(2.0, 2.0).width == 0.0

    def test_contains_closed_endpoints(self):
        w = Window(1.0, 3.0)
        assert w.contains(1.0) and w.contains(3.0) and w.contains(2.0)
        assert not w.contains(0.999) and not w.contains(3.001)

    def test_overlaps_is_closed(self):
        # Touching endpoints count as overlap (closed intervals).
        assert Window(0.0, 1.0).overlaps(Window(1.0, 2.0))
        assert not Window(0.0, 1.0).overlaps(Window(1.1, 2.0))
        # A zero-width window is a point event.
        assert Window(0.5, 0.5).overlaps(Window(0.0, 1.0))
        assert Window(0.5, 0.5).overlaps(Window(0.5, 0.5))
        assert not Window(0.5, 0.5).overlaps(Window(0.6, 0.6))

    def test_intersect(self):
        assert Window(0.0, 2.0).intersect(Window(1.0, 3.0)) == Window(1.0, 2.0)
        assert Window(0.0, 1.0).intersect(Window(1.0, 2.0)) == Window(1.0, 1.0)
        assert Window(0.0, 1.0).intersect(Window(2.0, 3.0)) is None

    def test_shift_and_clip(self):
        assert Window(1.0, 2.0).shift(0.5) == Window(1.5, 2.5)
        assert Window(0.0, 5.0).clip(1.0, 2.0) == Window(1.0, 2.0)
        assert Window(3.0, 5.0).clip(0.0, 2.0) is None


class TestWindowSet:
    def test_merges_overlapping_and_touching(self):
        ws = WindowSet([Window(2.0, 3.0), Window(0.0, 1.0), Window(1.0, 2.0)])
        assert ws.windows == (Window(0.0, 3.0),)
        assert ws.total_width == 3.0

    def test_keeps_disjoint_members_sorted(self):
        ws = WindowSet([Window(4.0, 5.0), Window(0.0, 1.0)])
        assert ws.windows == (Window(0.0, 1.0), Window(4.0, 5.0))
        assert ws.span == Window(0.0, 5.0)
        assert len(ws) == 2

    def test_empty(self):
        ws = WindowSet()
        assert ws.is_empty
        assert ws.total_width == 0.0
        assert ws.span is None
        assert not ws.contains(0.0)

    def test_point_window_member(self):
        ws = WindowSet([Window(1.0, 1.0), Window(3.0, 4.0)])
        assert ws.contains(1.0)
        assert not ws.contains(2.0)
        assert ws.total_width == 1.0

    def test_complement_interior(self):
        ws = WindowSet([Window(1.0, 2.0), Window(3.0, 4.0)])
        comp = ws.complement(Window(0.0, 5.0))
        assert comp.windows == (
            Window(0.0, 1.0),
            Window(2.0, 3.0),
            Window(4.0, 5.0),
        )

    def test_complement_drops_zero_width_gaps(self):
        # A window starting at 0 or ending at the horizon leaves no
        # zero-width sliver behind.
        ws = WindowSet([Window(0.0, 2.0)])
        assert ws.complement(Window(0.0, 5.0)).windows == (Window(2.0, 5.0),)
        ws = WindowSet([Window(3.0, 5.0)])
        assert ws.complement(Window(0.0, 5.0)).windows == (Window(0.0, 3.0),)

    def test_complement_of_point_window_is_everything(self):
        # Removing a measure-zero event leaves the merged full horizon:
        # the two touching halves fuse back together.
        ws = WindowSet([Window(2.0, 2.0)])
        assert ws.complement(Window(0.0, 5.0)).windows == (Window(0.0, 5.0),)

    def test_intersect_window(self):
        ws = WindowSet([Window(0.0, 2.0), Window(3.0, 5.0)])
        clipped = ws.intersect_window(Window(1.0, 4.0))
        assert clipped.windows == (Window(1.0, 2.0), Window(3.0, 4.0))

    def test_union_and_intersect(self):
        a = WindowSet([Window(0.0, 2.0)])
        b = WindowSet([Window(1.0, 3.0), Window(5.0, 6.0)])
        assert a.union(b).windows == (Window(0.0, 3.0), Window(5.0, 6.0))
        assert a.intersect(b).windows == (Window(1.0, 2.0),)

    def test_overlaps(self):
        a = WindowSet([Window(0.0, 1.0)])
        assert a.overlaps(Window(1.0, 2.0))
        assert not a.overlaps(Window(2.0, 3.0))


class TestScheduleAndSensitivity:
    def test_staggered_schedule_is_deterministic(self):
        a = staggered_schedule(8, 1000e-12, 10e-12, seed=7)
        b = staggered_schedule(8, 1000e-12, 10e-12, seed=7)
        assert a == b
        assert all(w.width == pytest.approx(10e-12) for w in a)
        assert all(0.0 <= w.start and w.end <= 1000e-12 for w in a)
        assert staggered_schedule(8, 1000e-12, 10e-12, seed=8) != a

    def test_switching_windows_from_arrivals(self, bus5):
        from repro.analysis.timing import arrival_times

        arrivals = arrival_times(bus5, 120.0, 10e-15)
        windows = switching_windows(arrivals)
        assert len(windows) == 5
        for i, w in enumerate(windows):
            assert w.start == pytest.approx(arrivals.earliest[i])
            assert w.end == pytest.approx(arrivals.latest[i])

    def test_sensitive_is_complement_of_own_window(self):
        switching = [Window(100.0, 200.0), Window(0.0, 50.0)]
        sensitive = sensitive_windows(switching, 1000.0)
        assert sensitive[0].windows == (
            Window(0.0, 100.0),
            Window(200.0, 1000.0),
        )
        assert sensitive[1].windows == (Window(50.0, 1000.0),)

    def test_feasible_aggressors(self):
        switching = [
            Window(0.0, 10.0),
            Window(5.0, 15.0),
            Window(500.0, 510.0),
        ]
        sensitive = sensitive_windows(switching, 1000.0)
        # Victim 0 is sensitive outside [0, 10]; wire 1's window pokes
        # into it, wire 2's window sits fully inside it.
        assert feasible_aggressors(0, switching, sensitive[0]) == [1, 2]
        # Victim 2 is sensitive outside [500, 510]: both early wires
        # qualify.
        assert feasible_aggressors(2, switching, sensitive[2]) == [0, 1]


class TestWorstCaseAlignment:
    def _uniform(self, n, value=0.1):
        peak = np.full((n, n), value)
        np.fill_diagonal(peak, 0.0)
        return peak

    def test_all_aligned_worst_case(self):
        # Every aggressor window identical: the alignment set is all of
        # them and the peak is the full sum.
        n = 4
        switching = [Window(100.0, 110.0)] * n
        sensitive = [
            WindowSet([Window(0.0, 100.0), Window(110.0, 1000.0)])
        ] * n
        peak = self._uniform(n)
        result = worst_case_alignment(
            0, peak[0], peak[0] * 2.0, switching, sensitive[0], 0.25
        )
        assert result.aggressors == (1, 2, 3)
        assert result.feasible == (1, 2, 3)
        assert result.peak == pytest.approx(0.3)
        assert result.area == pytest.approx(0.6)
        assert result.time == pytest.approx(100.0)
        # The aligned instants sit exactly on the sensitive-window
        # boundary (point pieces), so no finite-width noise window
        # survives.
        assert result.noise_windows.is_empty

    def test_fully_disjoint_aggressors_pick_the_strongest(self):
        # Disjoint windows cannot align; the sweep picks the single
        # strongest aggressor.
        switching = [
            Window(500.0, 501.0),  # victim
            Window(0.0, 10.0),
            Window(20.0, 30.0),
            Window(40.0, 50.0),
        ]
        sensitive = WindowSet([Window(0.0, 400.0)])
        peak_row = np.array([0.0, 0.1, 0.3, 0.2])
        result = worst_case_alignment(
            0, peak_row, peak_row, switching, sensitive, 1.0
        )
        assert result.aggressors == (2,)
        assert result.feasible == (1, 2, 3)
        assert result.peak == pytest.approx(0.3)
        assert result.time == pytest.approx(20.0)

    def test_zero_width_windows_still_align(self):
        # Point launch events at the same instant superpose.
        switching = [
            Window(500.0, 500.0),  # victim (point, irrelevant)
            Window(100.0, 100.0),
            Window(100.0, 100.0),
            Window(200.0, 200.0),
        ]
        sensitive = WindowSet([Window(0.0, 400.0)])
        peak_row = np.array([0.0, 0.2, 0.2, 0.3])
        result = worst_case_alignment(
            0, peak_row, peak_row, switching, sensitive, 1.0
        )
        assert result.aggressors == (1, 2)
        assert result.peak == pytest.approx(0.4)
        assert result.time == pytest.approx(100.0)

    def test_empty_sensitive_window_is_quiet(self):
        result = worst_case_alignment(
            0,
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            [Window(0.0, 1.0), Window(0.0, 1.0)],
            WindowSet(),
            0.25,
        )
        assert result.is_quiet
        assert np.isnan(result.time)
        assert result.peak == 0.0
        assert result.noise_windows.is_empty

    def test_no_feasible_overlap_is_quiet(self):
        # The single aggressor's window misses the sensitive region.
        result = worst_case_alignment(
            0,
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            [Window(0.0, 1.0), Window(500.0, 510.0)],
            WindowSet([Window(0.0, 400.0)]),
            0.25,
        )
        assert result.is_quiet
        assert result.feasible == ()

    def test_noise_windows_exact_segments(self):
        # Two overlapping aggressors: the summed estimate is 0.2 on
        # [0, 10) and (20, 30], 0.4 on the overlap [10, 20]; with
        # threshold 0.3 the noise window is exactly the overlap.
        switching = [
            Window(500.0, 501.0),
            Window(0.0, 20.0),
            Window(10.0, 30.0),
        ]
        sensitive = WindowSet([Window(0.0, 400.0)])
        peak_row = np.array([0.0, 0.2, 0.2])
        result = worst_case_alignment(
            0, peak_row, peak_row, switching, sensitive, 0.3
        )
        assert result.noise_windows.windows == (Window(10.0, 20.0),)
        assert result.peak == pytest.approx(0.4)
        assert result.time == pytest.approx(10.0)

    def test_align_all_validates_lengths(self):
        peak = self._uniform(3)
        with pytest.raises(ValueError):
            align_all(peak, peak, [Window(0.0, 1.0)], [WindowSet()] * 3, 0.1)

    def test_align_all_earliest_tie_break(self):
        # Two equal-weight disjoint aggressors: ties resolve to the
        # earliest alignment instant.
        switching = [
            Window(500.0, 501.0),
            Window(50.0, 60.0),
            Window(10.0, 20.0),
        ]
        peak = np.array(
            [
                [0.0, 0.2, 0.2],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        sensitive = [
            WindowSet([Window(0.0, 400.0)]),
            WindowSet([Window(0.0, 400.0)]),
            WindowSet([Window(0.0, 400.0)]),
        ]
        results = align_all(peak, peak, switching, sensitive, 1.0)
        assert results[0].time == pytest.approx(10.0)
        assert results[0].aggressors == (2,)


# ----------------------------------------------------------------------
# The array sweep against the per-net, per-segment reference loops
# ----------------------------------------------------------------------
def _clip_to_sensitive(window, sensitive):
    return list(sensitive.intersect_window(window))


def _reference_alignment(
    victim, peak_row, area_row, switching, sensitive, threshold
):
    """Reference: the endpoint sweep as per-net and per-segment loops.

    Clips each net's switching window through the window algebra, one
    net at a time, and sums each segment's level with a masked sum.
    """
    if sensitive.is_empty:
        return Alignment(
            victim, float("nan"), (), 0.0, 0.0, WindowSet(), ()
        )

    pieces = []
    owners = []
    for net, window in enumerate(switching):
        if net == victim or peak_row[net] <= 0.0:
            continue
        for piece in _clip_to_sensitive(window, sensitive):
            pieces.append(piece)
            owners.append(net)
    if not pieces:
        return Alignment(
            victim, float("nan"), (), 0.0, 0.0, WindowSet(), ()
        )

    starts = np.array([p.start for p in pieces])
    ends = np.array([p.end for p in pieces])
    weights = peak_row[np.array(owners)]
    feasible = tuple(sorted(set(owners)))

    candidates = np.unique(starts)
    membership = (starts[None, :] <= candidates[:, None]) & (
        candidates[:, None] <= ends[None, :]
    )
    totals = membership @ weights
    best = int(np.argmax(totals))
    t_star = float(candidates[best])
    active = membership[best]
    aligned = tuple(sorted(set(np.array(owners)[active].tolist())))
    peak = float(weights[active].sum())
    area = float(area_row[np.array(owners)][active].sum())

    bounds = np.unique(np.concatenate([starts, ends]))
    noise = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        level = float(
            weights[(starts <= mid) & (mid <= ends)].sum()
        )
        if level >= threshold:
            noise.append(Window(float(lo), float(hi)))
    return Alignment(
        victim=victim,
        time=t_star,
        aggressors=aligned,
        peak=peak,
        area=area,
        noise_windows=WindowSet(noise),
        feasible=feasible,
    )


def _segment_levels(victim, peak_row, switching, sensitive):
    """Every segment level the reference compares with the threshold."""
    pieces = [
        (piece, peak_row[net])
        for net, window in enumerate(switching)
        if net != victim and not peak_row[net] <= 0.0
        for piece in _clip_to_sensitive(window, sensitive)
    ]
    if not pieces:
        return []
    starts = np.array([p.start for p, _ in pieces])
    ends = np.array([p.end for p, _ in pieces])
    weights = np.array([w for _, w in pieces])
    bounds = np.unique(np.concatenate([starts, ends]))
    return [
        float(weights[(starts <= mid) & (mid <= ends)].sum())
        for mid in 0.5 * (bounds[:-1] + bounds[1:])
    ]


def _assert_same(got, want):
    assert got.victim == want.victim
    assert got.time == want.time or (
        math.isnan(got.time) and math.isnan(want.time)
    )
    assert got.aggressors == want.aggressors
    assert got.peak == want.peak
    assert got.area == want.area
    assert got.noise_windows == want.noise_windows
    assert got.feasible == want.feasible


#: Weights with equal-value ties, zeros and negatives (never aggressors),
#: and tenths whose sums round differently in different orders.
_WEIGHTS = st.one_of(
    st.sampled_from([-0.2, 0.0, 0.1, 0.2, 0.3, 0.7]),
    st.floats(min_value=-1.0, max_value=1.0),
)


@st.composite
def _schedules(draw):
    """Small integer-grid schedules: ties, touching and zero-width
    windows, empty sensitive sets."""
    nets = draw(st.integers(min_value=1, max_value=7))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-11]))

    def window(lo, width):
        return Window(lo * scale, (lo + width) * scale)

    switching = [
        window(draw(st.integers(0, 12)), draw(st.sampled_from([0, 0, 1, 2, 3, 5])))
        for _ in range(nets)
    ]
    sensitive = [
        WindowSet(
            window(lo, width)
            for lo, width in draw(
                st.lists(
                    st.tuples(st.integers(0, 14), st.sampled_from([0, 1, 2, 4, 8])),
                    max_size=3,
                )
            )
        )
        for _ in range(nets)
    ]
    rows = st.lists(_WEIGHTS, min_size=nets, max_size=nets)
    peak = np.array(draw(st.lists(rows, min_size=nets, max_size=nets)))
    area = np.array(draw(st.lists(rows, min_size=nets, max_size=nets)))
    return switching, sensitive, peak, area


class TestArraySweepMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(schedule=_schedules(), data=st.data())
    def test_every_field_equals_the_reference(self, schedule, data):
        switching, sensitive, peak, area = schedule
        nets = len(switching)
        levels = [
            level
            for victim in range(nets)
            for level in _segment_levels(
                victim, peak[victim], switching, sensitive[victim]
            )
        ]
        # A threshold equal to a segment's level is decided by the exact
        # re-check, not by the prefix sums.
        choices = [st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0])]
        if levels:
            choices.append(st.sampled_from(levels))
        threshold = data.draw(st.one_of(*choices))
        want = [
            _reference_alignment(
                victim, peak[victim], area[victim], switching,
                sensitive[victim], threshold,
            )
            for victim in range(nets)
        ]
        for got, expected in zip(
            align_all(peak, area, switching, sensitive, threshold), want
        ):
            _assert_same(got, expected)
        victim = data.draw(st.integers(0, nets - 1))
        _assert_same(
            worst_case_alignment(
                victim, peak[victim], area[victim], switching,
                sensitive[victim], threshold,
            ),
            want[victim],
        )

    def test_threshold_on_a_level_is_decided_exactly(self):
        # The segment [2, 10] carries only wire 2 (0.1), but its prefix
        # sums give (0.7 + 0.1) - 0.7 = 0.09999999999999998: below a
        # threshold of exactly 0.1 that the masked sum meets.
        switching = [
            Window(500.0, 501.0),
            Window(0.0, 1.0),
            Window(2.0, 10.0),
        ]
        sensitive = WindowSet([Window(0.0, 400.0)])
        peak_row = np.array([0.0, 0.7, 0.1])
        result = worst_case_alignment(
            0, peak_row, peak_row, switching, sensitive, 0.1
        )
        assert result.noise_windows.windows == (
            Window(0.0, 1.0),
            Window(2.0, 10.0),
        )
        _assert_same(
            result,
            _reference_alignment(
                0, peak_row, peak_row, switching, sensitive, 0.1
            ),
        )

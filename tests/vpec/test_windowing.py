"""Unit tests for wVPEC windowing (Section V)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.vpec.windowing as windowing
from repro.bench.extraction_scale import scale_geometry
from repro.bench.sweep import sweep_grid
from repro.extraction.hierarchical import LazyInductance
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.geometry.filament import Axis, Filament
from repro.geometry.system import FilamentSystem
from repro.health import DEFAULT_POLICY, STRICT_POLICY, SingularMatrixError
from repro.pipeline.profiling import collect
from repro.vpec.full import full_vpec_networks, invert_spd
from repro.vpec.passivity import audit_network
from repro.vpec.windowing import (
    geometric_windows,
    numerical_windows,
    symmetrize_windows,
    windowed_inverse,
    windowed_vpec_networks,
)


class TestGeometricWindows:
    def test_window_contains_self(self, bus16):
        indices, _ = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        windows = geometric_windows(bus16.system, indices, 4)
        for m, window in enumerate(windows):
            assert m in window

    def test_window_size_respected_up_to_symmetrization(self, bus16):
        indices = list(range(16))
        windows = geometric_windows(bus16.system, indices, 4)
        assert all(4 <= len(w) <= 8 for w in windows)

    def test_bus_window_is_index_neighborhood(self, bus16):
        indices = list(range(16))
        windows = geometric_windows(bus16.system, indices, 5)
        # Interior aggressor: window spans contiguous neighboring bits.
        window = windows[8]
        assert np.all(np.diff(window) == 1)
        assert 8 in window

    def test_full_window_is_everything(self, bus5):
        windows = geometric_windows(bus5.system, list(range(5)), 5)
        for window in windows:
            assert list(window) == [0, 1, 2, 3, 4]

    def test_rejects_bad_size(self, bus5):
        with pytest.raises(ValueError):
            geometric_windows(bus5.system, list(range(5)), 0)


def _all_pairs_nearest(system, indices, b, rows_per_slice=None):
    """The all-pairs selection formula, kept verbatim as the reference.

    ``rows_per_slice`` evaluates it over slices of rows -- every row's
    distances and ``argpartition`` depend on that row alone -- only to
    bound the reference's own memory at n = 4096.
    """
    centers = np.array([system[i].center for i in indices])
    n = len(indices)
    step = rows_per_slice or n
    parts = []
    for lo in range(0, n, step):
        delta = centers[lo:lo + step, None, :] - centers[None, :, :]
        distance = np.sqrt(np.sum(delta * delta, axis=2))
        parts.append(np.argpartition(distance, b - 1, axis=1)[:, :b])
    nearest = np.concatenate(parts)
    return [np.sort(nearest[m]) for m in range(n)]


def _assert_same_windows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


class TestStreamedSelection:
    """The row-blocked exact scan is the all-pairs selection, window for window."""

    @pytest.mark.parametrize("segments", [1, 6])
    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    def test_tie_heavy_aligned_bus(self, monkeypatch, block_rows, segments):
        # Equal pitches and equal segment lengths make most distances
        # tie, and an even b splits the tied +-k neighbors: the
        # argpartition tie-breaking must survive the blocking.
        system = aligned_bus(48 // segments, segments_per_line=segments)
        (indices,) = system.indices_by_axis().values()
        n = len(indices)
        if block_rows is not None:
            monkeypatch.setattr(
                windowing, "_SELECT_BLOCK_BYTES", 8 * n * block_rows
            )
        for b in (2, 3, 4, 8):
            reference = _all_pairs_nearest(system, indices, b)
            _assert_same_windows(
                geometric_windows(system, indices, b, symmetrize=False),
                reference,
            )
            _assert_same_windows(
                geometric_windows(system, indices, b),
                symmetrize_windows(reference),
            )

    def test_scale_geometry_spans_many_row_blocks(self):
        system = scale_geometry(4096)
        (indices,) = system.indices_by_axis().values()
        n = len(indices)
        assert n <= windowing._DENSE_KNN_LIMIT
        assert windowing._SELECT_BLOCK_BYTES // (8 * n) < n // 4
        reference = _all_pairs_nearest(system, indices, 8, rows_per_slice=256)
        got = geometric_windows(system, indices, 8, symmetrize=False)
        _assert_same_windows(got, reference)
        _assert_same_windows(
            symmetrize_windows(got), symmetrize_windows(reference)
        )

    def test_selection_memory_is_linear(self):
        # The all-pairs formula needs ~1 GB at n = 4096; the streamed
        # scan holds a few (block, n) rows at a time.
        system = scale_geometry(4096)
        (indices,) = system.indices_by_axis().values()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            geometric_windows(system, indices, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _cloud(origins):
    """Unit x-directed bars at ``origins`` (meters), one wire each."""
    return FilamentSystem(
        [
            Filament(
                origin=tuple(origin), length=1e-6, width=1e-6,
                thickness=1e-6, axis=Axis.X, wire=wire,
            )
            for wire, origin in enumerate(origins.tolist())
        ],
        name="cloud",
    )


@st.composite
def clouds(draw):
    """``(system, b)``: a random cloud, an integer lattice (many ties at
    the ``b``-th distance) or a few sites shared by many coincident
    centers, with ``n`` often right around ``b`` and ``2b``."""
    b = draw(st.integers(1, 8))
    n = draw(
        st.one_of(
            st.sampled_from([b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 2 * b + 2]),
            st.integers(1, 160),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "coincident"]))
    if kind == "random":
        origins = rng.uniform(0.0, 50e-6, size=(n, 3))
    elif kind == "lattice":
        side = int(np.ceil(n ** (1 / 3))) + draw(st.integers(0, 2))
        depth = draw(st.sampled_from([1, side]))
        grid = np.stack(
            np.meshgrid(
                np.arange(side), np.arange(side), np.arange(depth),
                indexing="ij",
            ),
            axis=-1,
        ).reshape(-1, 3)
        while grid.shape[0] < n:
            grid = np.concatenate([grid, grid + [0, 0, depth]])
        origins = grid[rng.permutation(grid.shape[0])[:n]] * 2e-6
    else:
        sites = rng.uniform(0.0, 10e-6, size=(draw(st.integers(1, 4)), 3))
        origins = sites[rng.integers(0, sites.shape[0], size=n)]
    return _cloud(origins), b


class TestSelectionProperty:
    """The KD-candidate selection is the all-pairs scan, window for window."""

    @given(clouds())
    @settings(max_examples=250)
    def test_equals_the_all_pairs_scan(self, cloud):
        system, b = cloud
        indices = list(range(len(system)))
        reference = _all_pairs_nearest(system, indices, min(b, len(indices)))
        got = geometric_windows(system, indices, b, symmetrize=False)
        _assert_same_windows(got, reference)
        _assert_same_windows(
            geometric_windows(system, indices, b), symmetrize_windows(reference)
        )

    def test_scale_geometry_scans_only_tied_rows(self):
        # 11 of the 4 096 rows tie at the 8th and 9th distance; every
        # other row keeps its KD-tree candidates.
        system = scale_geometry(4096)
        (indices,) = system.indices_by_axis().values()
        with collect() as profile:
            geometric_windows(system, indices, 8)
        assert profile.counters["window_scan_rows"] == 11


class TestNumericalWindows:
    def test_threshold_zero_keeps_all(self, bus16):
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        windows = numerical_windows(block, 0.0)
        assert all(len(w) == block.shape[0] for w in windows)

    def test_large_threshold_keeps_self_only(self, bus16):
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        windows = numerical_windows(block, 10.0)
        for m, window in enumerate(windows):
            assert list(window) == [m]

    def test_monotone_in_threshold(self, nonaligned16):
        _, block = nonaligned16.inductance_blocks[
            next(iter(nonaligned16.inductance_blocks))
        ]
        sizes = [
            sum(len(w) for w in numerical_windows(block, threshold))
            for threshold in (0.0, 0.3, 0.6, 0.9)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_rejects_negative_threshold(self, bus5):
        _, block = bus5.inductance_blocks[next(iter(bus5.inductance_blocks))]
        with pytest.raises(ValueError):
            numerical_windows(block, -1.0)


class TestSymmetrize:
    def test_union_membership(self):
        windows = [np.array([0, 1]), np.array([1]), np.array([0, 2])]
        fixed = symmetrize_windows(windows)
        assert list(fixed[0]) == [0, 1, 2]
        assert list(fixed[1]) == [0, 1]
        assert list(fixed[2]) == [0, 2]

    def test_idempotent(self):
        windows = [np.array([0, 1]), np.array([0, 1])]
        once = symmetrize_windows(windows)
        twice = symmetrize_windows(once)
        assert all(list(a) == list(b) for a, b in zip(once, twice))


class TestWindowedInverse:
    def test_full_window_reproduces_exact_inverse(self, bus16):
        """b = N: the windowed construction equals the true inverse."""
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        n = block.shape[0]
        windows = [np.arange(n)] * n
        s_prime = windowed_inverse(block, windows).toarray()
        assert np.allclose(s_prime, invert_spd(block), rtol=1e-8, atol=1e-3)

    def test_symmetric(self, bus16):
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        windows = geometric_windows(bus16.system, list(range(16)), 6)
        s_prime = windowed_inverse(block, windows).toarray()
        assert np.allclose(s_prime, s_prime.T)

    def test_eq19_diagonal_dominance(self, bus16):
        """Eq. 19: the merged S' is (weakly) diagonally dominant."""
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        for b in (2, 4, 8):
            windows = geometric_windows(bus16.system, list(range(16)), b)
            s_prime = windowed_inverse(block, windows).toarray()
            diag = np.abs(np.diag(s_prime))
            off = np.sum(np.abs(s_prime), axis=1) - diag
            assert np.all(diag >= off - 1e-18)

    def test_eq18_picks_smaller_magnitude(self):
        """The merge keeps the max (smaller-magnitude) estimate."""
        block = 1e-9 * np.array(
            [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]]
        )
        windows = [np.array([0, 1, 2])] * 3
        merged = windowed_inverse(block, windows).toarray()
        exact = np.linalg.inv(block)
        # Full windows: both estimates equal the exact inverse entries.
        assert np.allclose(merged, exact, rtol=1e-9)

    def test_requires_self_in_window(self):
        block = np.eye(2)
        with pytest.raises(ValueError):
            windowed_inverse(block, [np.array([1]), np.array([1])])

    def test_requires_one_window_per_aggressor(self):
        block = np.eye(2)
        with pytest.raises(ValueError):
            windowed_inverse(block, [np.array([0])])

    def test_diagonal_positive(self, bus16):
        _, block = bus16.inductance_blocks[next(iter(bus16.inductance_blocks))]
        windows = geometric_windows(bus16.system, list(range(16)), 4)
        s_prime = windowed_inverse(block, windows).toarray()
        assert np.all(np.diag(s_prime) > 0)

    @pytest.mark.parametrize(
        "window, message",
        [
            ([1, 2, 7], "aggressor 2 has index 7 outside"),
            ([1, 2, 3, 3], "aggressor 2 repeats index 3"),
            ([-1, 2, 3], "aggressor 2 has index -1 outside"),
        ],
        ids=["out_of_range", "repeated", "negative"],
    )
    def test_malformed_window_rejected_before_any_solve(self, window, message):
        # A negative index must not wrap to the last filament, and no
        # well-formed window's solve may run first.
        windows = [np.arange(6)] * 6
        windows[2] = np.array(window)
        with collect() as profile:
            with pytest.raises(ValueError, match=message):
                windowed_inverse(np.eye(6) + 0.1, windows)
        assert "window_solves" not in profile.counters


def _sweep_windows(parasitics):
    """The sweep family's numerical windows on its one inductance block."""
    ((_, block),) = parasitics.inductance_blocks.values()
    return block, numerical_windows(block, sweep_grid().model.threshold)


class TestSharedWindows:
    """A wide window shared by many aggressors is factored once."""

    def test_one_factorization_serves_every_sharer(self, sweep6):
        block, windows = _sweep_windows(sweep6)
        n = block.shape[0]
        assert n == 96
        assert all(np.array_equal(w, np.arange(n)) for w in windows)
        # The 96 per-aggressor copies (7 MB) would exceed the budget.
        assert n * n * n * 8 > windowing._SELECT_BLOCK_BYTES
        with collect() as profile:
            windowed_inverse(block, windows)
        assert profile.counters["window_solves"] == 1
        assert profile.counters["window_solve_cubes"] == n**3
        assert profile.counters["window_dedup_hits"] == n - 1

    def test_memory_stays_within_the_budget(self, sweep6):
        block, windows = _sweep_windows(sweep6)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            windowed_inverse(block, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_hierarchical_operator_matches_separate_solves(self, sweep6):
        _, windows = _sweep_windows(sweep6)
        lazy = extract(sweep6.system, method="hierarchical")
        ((_, operator),) = lazy.inductance_blocks.values()
        assert isinstance(operator, LazyInductance)
        with collect() as profile:
            shared = windowed_inverse(operator, windows).toarray()
        assert profile.counters["window_solves"] == 1
        separate = windowed_inverse(operator, windows, dedup=False).toarray()
        np.testing.assert_allclose(
            shared, separate, rtol=0, atol=1e-12 * np.abs(separate).max()
        )
        assert np.array_equal(shared != 0, separate != 0)

    def test_singular_shared_window_falls_back_per_aggressor(self, sweep6):
        block, windows = _sweep_windows(sweep6)
        # Filament 1 duplicates filament 0: the shared window is singular.
        singular = block.copy()
        singular[1, :] = singular[0, :]
        singular[:, 1] = singular[:, 0]
        with collect() as profile:
            s_prime = windowed_inverse(singular, windows, policy=DEFAULT_POLICY)
        assert profile.counters["window_fallback_batches"] == 1
        assert profile.counters["solve_lu"] == block.shape[0]
        assert np.all(np.isfinite(s_prime.data))
        with pytest.raises(SingularMatrixError, match=r"window of aggressor \d+"):
            windowed_inverse(singular, windows, policy=STRICT_POLICY)

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_service_gw8_windows_stay_bit_identical(self, bits):
        # The service's gw8 circuits must never reach the shared path:
        # their escalated peaks are pinned to 8 digits, and one shared
        # factorization moves S' by an ulp.
        system = aligned_bus(bits)
        parasitics = extract(system)
        ((indices, block),) = parasitics.inductance_blocks.values()
        windows = geometric_windows(system, indices, 8)
        assert np.array_equal(
            windowed_inverse(block, windows).toarray(),
            windowed_inverse(block, windows, dedup=False).toarray(),
        )


class TestWindowedNetworks:
    def test_geometric_flavor(self, bus16):
        networks = windowed_vpec_networks(bus16, window_size=4)
        assert len(networks) == 1
        assert networks[0].sparse_factor() < 1.0

    def test_numerical_flavor(self, spiral_small):
        networks = windowed_vpec_networks(spiral_small, threshold=0.05)
        assert len(networks) == 2

    def test_passivity(self, bus16):
        for b in (2, 4, 8, 16):
            for network in windowed_vpec_networks(bus16, window_size=b):
                assert audit_network(network).passive

    def test_window_equal_to_size_matches_full(self, bus5):
        windowed = windowed_vpec_networks(bus5, window_size=5)[0]
        full = full_vpec_networks(bus5)[0]
        assert np.allclose(
            windowed.dense_ghat(), full.dense_ghat(), rtol=1e-8, atol=1e-6
        )

    def test_flavor_selection_is_exclusive(self, bus5):
        with pytest.raises(ValueError):
            windowed_vpec_networks(bus5)
        with pytest.raises(ValueError):
            windowed_vpec_networks(bus5, window_size=2, threshold=0.1)

    def test_larger_window_more_accurate(self, bus16):
        """Monotone quality: larger b approximates the inverse better."""
        exact = full_vpec_networks(bus16)[0].dense_ghat()
        errors = []
        for b in (2, 4, 8, 16):
            approx = windowed_vpec_networks(bus16, window_size=b)[0].dense_ghat()
            errors.append(np.linalg.norm(exact - approx) / np.linalg.norm(exact))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-6


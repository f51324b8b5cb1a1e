"""Integration tests: scaled-down runs of every experiment driver.

Each test runs the corresponding table/figure driver on a smaller
workload and asserts the paper's *qualitative* claims (who wins, in
which direction); the full-size numbers live in the benchmark harness.
"""

import pytest

from repro.experiments.fig2_accuracy import run_fig2
from repro.experiments.fig4_extraction import run_fig4
from repro.experiments.fig7_spiral import run_fig7, threshold_for_kept_ratio
from repro.experiments.fig8_scaling import run_fig8, series, speedup_at
from repro.experiments.table2_gtvpec import run_table2
from repro.experiments.table3_ntvpec import run_table3
from repro.experiments.table4_windowing import run_table4
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.pipeline.profiling import collect
from repro.vpec.full import full_vpec_networks
from repro.vpec.windowing import windowed_vpec_networks


@pytest.fixture(scope="module")
def fig2_result():
    return run_fig2(bits=5, t_stop=200e-12, dt=1e-12, points_per_decade=3)


class TestFig2:
    def test_full_vpec_identical_to_peec(self, fig2_result):
        diff = fig2_result.transient_diff["full VPEC"]
        assert diff.max_relative_to_peak < 1e-6

    def test_localized_vpec_visibly_wrong(self, fig2_result):
        diff = fig2_result.transient_diff["localized VPEC"]
        assert diff.mean_relative_to_peak > 0.05  # paper: ~15%

    def test_full_vpec_identical_in_frequency_domain(self, fig2_result):
        assert fig2_result.ac_diff["full VPEC"].max_relative_to_peak < 1e-6

    def test_localized_vpec_diverges_at_high_frequency(self, fig2_result):
        high = fig2_result.ac_high_band_diff["localized VPEC"]
        low = fig2_result.ac_diff["localized VPEC"]
        assert high.mean_relative_to_peak > 0.02
        assert high.mean_abs >= low.mean_abs * 0.5


class TestTable2:
    def test_rows_and_tradeoff(self):
        rows = run_table2(
            bits=8,
            segments_per_line=2,
            windows=((8, 2), (4, 1), (2, 1)),
            t_stop=150e-12,
            dt=1e-12,
        )
        assert rows[0].label == "full VPEC"
        # Sparser windows -> monotonically smaller sparse factors.
        factors = [r.sparse_factor for r in rows[1:]]
        assert factors == sorted(factors, reverse=True)
        # The untruncated window reproduces the full model exactly.
        assert rows[1].diff.max_abs < 1e-9
        # Aggressive truncation introduces nonzero but bounded error
        # (nearest-bit-only on an 8-bit bus is the extreme setting).
        assert 0 < rows[-1].diff.mean_abs < 0.5 * rows[-1].noise_peak
        # Error grows as the window shrinks.
        errors = [r.diff.mean_abs for r in rows[1:]]
        assert errors == sorted(errors)


class TestTable3:
    def test_rows(self):
        rows = run_table3(
            bits=12, thresholds=(1e-3, 1e-1), t_stop=150e-12, dt=1e-12
        )
        labels = [r.label for r in rows]
        assert labels[0] == "PEEC"
        assert labels[1] == "full VPEC"
        # Full VPEC matches PEEC on the victim waveform.
        assert rows[1].diff.max_relative_to_peak < 1e-6
        # Higher threshold -> sparser model, larger error.
        assert rows[3].sparse_factor < rows[2].sparse_factor
        assert rows[3].diff.mean_abs >= rows[2].diff.mean_abs


class TestFig4:
    def test_series_shape(self):
        points = run_fig4(sizes=(16, 32))
        assert [p.bits for p in points] == [16, 32]
        for point in points:
            assert point.truncation_seconds > 0
            assert point.windowing_seconds > 0

    def test_windowing_scales_better(self):
        # Fig. 4's claim as operation counts: the windowed path does
        # O(N b^3) work and never factors the n x n L, which the
        # truncation path must invert.  (The wall-clock version of the
        # crossover lives in benchmarks/bench_fig4_extraction.py.)
        def counters(bits, derive):
            parasitics = extract(aligned_bus(bits))
            with collect() as profile:
                derive(parasitics)
            return profile.counters

        def windowed(parasitics):
            return windowed_vpec_networks(parasitics, window_size=8)

        small = counters(128, windowed)
        big = counters(1024, windowed)
        for name in ("window_solves", "window_solve_cubes"):
            assert 0 < big[name] <= (1024 / 128) * small[name]
        # At most one system per aggressor, of at most 2b members on
        # average (symmetrization only grows a b = 8 window a little).
        assert big["window_solves"] <= 1024
        assert big["window_solve_cubes"] <= big["window_solves"] * 16**3
        # No dense factorization chain (spd_inverse / dense_solve, which
        # record ``solve_<method>``) runs on the windowed path ...
        assert not [name for name in big if name.startswith("solve_")]
        # ... while the truncation path Cholesky-factors the full L.
        assert counters(1024, full_vpec_networks)["solve_cholesky"] == 1


class TestTable4:
    def test_windowing_more_accurate_at_far_victim(self):
        result = run_table4(
            bits=32,
            window_sizes=(16, 8),
            observe_bits=(1, 15),
            t_stop=150e-12,
            dt=1e-12,
        )
        # Paper's Table IV claim: at matched sparsity, gwVPEC beats
        # gtVPEC at the distant victim for every window size.
        for row in result.rows:
            assert row.accuracy_gain(15) > 1.0
        # And the near victim is accurate for both.
        for row in result.rows:
            peak = result.noise_peak[1]
            assert row.gw_diff[1].mean_abs < 0.25 * peak

    def test_sparsities_comparable(self):
        result = run_table4(
            bits=32,
            window_sizes=(8,),
            observe_bits=(1, 15),
            t_stop=100e-12,
            dt=1e-12,
        )
        row = result.rows[0]
        assert row.gw_sparse_factor == pytest.approx(
            row.gt_sparse_factor, rel=0.5
        )


class TestFig7:
    def test_spiral_models_agree(self):
        result = run_fig7(
            turns=2, total_segments=24, t_stop=300e-12, dt=1e-12
        )
        assert result.diff_vs_peec["full VPEC"].max_relative_to_peak < 1e-5
        # nwVPEC stays within a few percent of PEEC (paper: "virtually
        # identical").
        assert result.diff_vs_peec["nwVPEC"].mean_relative_to_peak < 0.05
        assert 0.0 < result.sparse_factor < 1.0

    def test_threshold_for_kept_ratio(self, spiral_small):
        threshold = threshold_for_kept_ratio(spiral_small, 0.5)
        assert threshold > 0
        with pytest.raises(ValueError):
            threshold_for_kept_ratio(spiral_small, 0.0)


class TestFig8:
    def test_scaling_series(self):
        points = run_fig8(
            dense_sizes=(8, 16),
            sparse_only_sizes=(32,),
            window_size=4,
            t_stop=100e-12,
            dt=1e-12,
        )
        peec = series(points, "PEEC")
        gw = series(points, "gwVPEC(b=4)")
        assert [p.bits for p in peec] == [8, 16]
        assert [p.bits for p in gw] == [8, 16, 32]
        # Model size: full VPEC netlist is larger than gwVPEC's.
        full = series(points, "full VPEC")
        assert full[-1].netlist_bytes > gw[1].netlist_bytes
        assert speedup_at(points, 16, "gwVPEC(b=4)") is not None
        assert speedup_at(points, 999, "gwVPEC(b=4)") is None

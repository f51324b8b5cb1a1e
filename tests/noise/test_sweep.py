"""Golden suite for the design-space sweep engine.

A committed 8-bit grid (12 scenarios, 96 victims) pins the sweep's
numbers: escalation decisions, failing scenarios, pooled family
quantiles (to 1e-9), both histograms, and the report checksum.  The
load-bearing equivalence -- the batched sweep is *bit-identical* to
independent per-scenario scans -- is asserted both through the cache
and against true cold recomputation.  (Bit-identity holds in this
small-system regime; at bench scale SuperLU's blocked multi-RHS kernel
rounds differently in the last bits, which ``BENCH_noise_sweep.json``
covers with a tolerance instead.)
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.bench.sweep import sweep_grid
from repro.noise import engine, sweep
from repro.noise.engine import NoiseConfig, run_noise_scan, screen_scenario
from repro.noise.sweep import (
    MAX_COLUMNS_PER_SIM,
    Scenario,
    SweepGrid,
    run_sweep,
    screen_grid,
    sweep_report_checksum,
)
from repro.pipeline.cache import PipelineCache, cached_extract
from repro.pipeline.profiling import collect

#: The committed golden grid: 2 wire widths x 3 spacings x 2 drivers
#: of an 8-bit aligned bus under a tight 12%-supply threshold.
GOLDEN_GRID = SweepGrid(
    topologies=("bus",),
    widths=(8,),
    wire_widths=(0.5e-6, 1e-6),
    spacings=(1e-6, 2e-6, 4e-6),
    drivers=(50.0, 100.0),
    base=NoiseConfig(threshold_fraction=0.12),
)

GOLDEN_CHECKSUM = (
    "9cd89df493173c9ec7ba9468fbd9a11d685d6bc081486323fb2ba008131124e7"
)

#: The size-6 bench family (``BENCH_noise_sweep.json``, size 6): one
#: 96-filament geometry under six schedule densities.
SWEEP6_GRID = sweep_grid(segments=6, num_densities=6)
SWEEP6_CHECKSUM = (
    "1431edf6e03180a6b1de5a3c46b3d6db283350af0f2cbcd6aaa4a1ca5224452c"
)

#: Pooled per-victim quantiles of the golden family, frozen to 1e-9.
GOLDEN_PEAK_QUANTILES = (
    0.052795237614509970,
    0.107765728049080380,
    0.118683136544331270,
    0.137928999579400970,
    0.152768466359081870,
    0.185017562474028700,
)
GOLDEN_MARGIN_QUANTILES = (
    -0.065017562474028700,
    -0.017928999579400987,
    0.001316863455668726,
    0.012234271950919605,
    0.035691791572691720,
    0.067204762385490030,
)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    cache = PipelineCache(tmp_path_factory.mktemp("sweep_cache"))
    return run_sweep(GOLDEN_GRID, parallel=1, cache=cache), cache


class TestScenarioValidation:
    def test_label_encodes_every_axis(self):
        scenario = Scenario("bus", 8, 0.5e-6, 2e-6, 50.0, 1.5, segments=4)
        assert scenario.label == "bus8_w500n_s2000n_r50_d1.5_g4"
        assert Scenario("bus", 8, 1e-6, 2e-6, 50.0, 1.0).label == (
            "bus8_w1000n_s2000n_r50_d1"
        )

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError, match="topology"):
            Scenario("ring", 8, 1e-6, 2e-6, 50.0, 1.0)
        with pytest.raises(ValueError, match="width"):
            Scenario("bus", 1, 1e-6, 2e-6, 50.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Scenario("bus", 8, 1e-6, 2e-6, -50.0, 1.0)
        with pytest.raises(ValueError, match="density"):
            Scenario("bus", 8, 1e-6, 2e-6, 50.0, 0.0)
        with pytest.raises(ValueError, match="segments"):
            Scenario("bus", 8, 1e-6, 2e-6, 50.0, 1.0, segments=0)

    def test_crossbar_rejects_segmented_lines(self):
        with pytest.raises(ValueError, match="crossbar"):
            Scenario("crossbar", 4, 1e-6, 2e-6, 50.0, 1.0, segments=4)
        # segments=1 stays valid.
        Scenario("crossbar", 4, 1e-6, 2e-6, 50.0, 1.0, segments=1)

    def test_segmented_scenarios_key_distinct_geometries(self):
        plain = Scenario("bus", 8, 1e-6, 2e-6, 50.0, 1.0)
        fine = Scenario("bus", 8, 1e-6, 2e-6, 50.0, 1.0, segments=4)
        assert plain.geometry() != fine.geometry()
        # Electrical-only knobs share one geometry (one cache entry).
        dense = Scenario("bus", 8, 1e-6, 2e-6, 100.0, 2.0)
        assert plain.geometry() == dense.geometry()

    def test_grid_axes_must_be_non_empty(self):
        with pytest.raises(ValueError, match="densities"):
            SweepGrid(densities=())
        with pytest.raises(ValueError, match="segments"):
            SweepGrid(segments=())

    def test_grid_order_is_axis_major_product(self):
        grid = SweepGrid(
            widths=(4, 8), drivers=(50.0, 100.0), segments=(1, 2)
        )
        assert grid.num_scenarios == 8
        labels = [s.label for s in grid.scenarios()]
        assert len(set(labels)) == 8
        # Last axis (segments) varies fastest, first (widths) slowest.
        assert labels[0] == "bus4_w1000n_s2000n_r50_d1"
        assert labels[1] == "bus4_w1000n_s2000n_r50_d1_g2"
        assert labels[4] == "bus8_w1000n_s2000n_r50_d1"


class TestGoldenGrid:
    def test_escalation_and_failure_counts(self, golden):
        report, _ = golden
        assert report.num_scenarios == 12
        assert sum(r.report.num_victims for r in report.results) == 96
        assert sum(r.report.num_escalated for r in report.results) == 76
        assert len(report.failing_scenarios()) == 6

    def test_checksum_is_frozen(self, golden):
        report, _ = golden
        assert sweep_report_checksum(report) == GOLDEN_CHECKSUM

    def test_family_quantiles_frozen_to_1e9(self, golden):
        report, _ = golden
        quantiles = report.family_quantiles()["bus"]
        assert quantiles["peak_V"] == pytest.approx(
            GOLDEN_PEAK_QUANTILES, abs=1e-9
        )
        assert quantiles["margin_V"] == pytest.approx(
            GOLDEN_MARGIN_QUANTILES, abs=1e-9
        )

    def test_histograms(self, golden):
        report, _ = golden
        escalation = report.escalation_histogram()
        assert escalation["counts"] == [2, 0, 0, 0, 0, 0, 0, 2, 0, 8]
        conservatism = report.conservatism_histogram()
        assert conservatism["counts"] == [28, 30, 2, 15, 1, 0, 0]
        # Nothing falls outside the fixed bins.
        assert sum(escalation["counts"]) == report.num_scenarios
        assert sum(conservatism["counts"]) == len(
            report.conservatism_ratios()
        )

    def test_worst_offender_is_the_widest_spacing_corner(self, golden):
        report, _ = golden
        worst = report.worst_offenders(1)[0]
        assert worst["scenario"] == "bus8_w1000n_s4000n_r50_d1"
        assert worst["tier"] == "sim"
        assert worst["margin_V"] < 0

    def test_json_dict_round_trips_through_json(self, golden):
        import json

        report, _ = golden
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["num_scenarios"] == 12
        assert len(payload["scenarios"]) == 12
        assert payload["scenarios"][0]["segments"] == 1
        assert payload["escalation_histogram"]["counts"] == [
            2, 0, 0, 0, 0, 0, 0, 2, 0, 8,
        ]

    def test_table_renders_every_scenario(self, golden):
        report, _ = golden
        table = report.to_table()
        for scenario in GOLDEN_GRID.scenarios():
            assert scenario.label in table
        assert "screen-conservatism histogram" in table


class TestBatchedEquivalence:
    """The sweep is bit-identical to independent per-scenario scans."""

    def test_matches_cold_independent_scans(self, golden):
        report, _ = golden
        for result, scenario in zip(report.results, GOLDEN_GRID.scenarios()):
            parasitics = cached_extract(scenario.geometry().build(), cache=None)
            independent = run_noise_scan(
                parasitics,
                GOLDEN_GRID.model,
                scenario.config(GOLDEN_GRID.base),
                cache=None,
            )
            for theirs, ours in zip(
                independent.victims, result.report.victims
            ):
                assert theirs.wire == ours.wire
                assert theirs.escalated == ours.escalated
                assert theirs.effective_peak == ours.effective_peak

    def test_sweep_fills_the_scan_cache(self, golden):
        """A later independent scan of any grid point is a cache hit."""
        report, cache = golden
        scenario = GOLDEN_GRID.scenarios()[0]
        parasitics = cached_extract(scenario.geometry().build(), cache=cache)
        with collect() as profile:
            rescan = run_noise_scan(
                parasitics,
                GOLDEN_GRID.model,
                scenario.config(GOLDEN_GRID.base),
                cache=cache,
            )
        # A hit returns the stored report without screening or
        # simulating anything.
        assert profile.counters.get("noise_victims_escalated", 0) == 0
        assert profile.counters.get("transient_steps", 0) == 0
        first = report.results[0].report
        assert [v.effective_peak for v in rescan.victims] == [
            v.effective_peak for v in first.victims
        ]

    def test_rerun_through_cache_is_identical(self, golden):
        report, cache = golden
        with collect() as profile:
            again = run_sweep(GOLDEN_GRID, parallel=1, cache=cache)
        assert (
            profile.counters["noise_sweep_cache_hits"]
            == GOLDEN_GRID.num_scenarios
        )
        assert sweep_report_checksum(again) == GOLDEN_CHECKSUM

    def test_batching_actually_merged_columns(self, golden):
        """The golden grid's 76 escalations ran far fewer transients."""
        with collect() as profile:
            run_sweep(GOLDEN_GRID, parallel=1, cache=None)
        assert profile.counters["noise_sweep_batched_columns"] == 76
        max_calls = int(np.ceil(76 / MAX_COLUMNS_PER_SIM)) + len(
            GOLDEN_GRID.scenarios()
        )
        assert profile.counters["noise_sweep_sim_calls"] <= max_calls
        assert profile.counters["noise_sweep_sim_groups"] < 12


class TestScreenStage:
    """The screen stage screens each geometry once: its scenarios share
    one build and extraction, one parasitics fingerprint and one set
    of pair bounds per screen config."""

    @pytest.mark.parametrize(
        "grid", [GOLDEN_GRID, SWEEP6_GRID], ids=["golden", "sweep6"]
    )
    def test_matches_per_scenario_screens(self, grid, tmp_path):
        cache = PipelineCache(tmp_path)
        grouped = screen_grid(grid, parallel=1, cache=cache)
        assert len(grouped) == grid.num_scenarios
        for scenario, ours in zip(grid.scenarios(), grouped):
            geometry = scenario.geometry()
            theirs = screen_scenario(
                cached_extract(geometry.build(), cache=cache),
                grid.model,
                scenario.config(grid.base),
                cache=cache,
                source=geometry,
            )
            assert ours.source == geometry
            assert ours.config == theirs.config
            assert ours.switching == theirs.switching
            assert ours.key is not None and ours.key == theirs.key
            assert ours.report is None and theirs.report is None
            assert ours.screen is not None and theirs.screen is not None
            # repr: an alignment with no feasible aggressor holds a nan.
            assert repr(ours.screen.alignments) == repr(
                theirs.screen.alignments
            )
            assert ours.screen.escalated == theirs.screen.escalated
            assert ours.screen.sensitive == theirs.screen.sensitive
            assert ours.horizon == theirs.horizon

    @pytest.mark.parametrize(
        "grid, geometries, pairs, checksum",
        [
            (SWEEP6_GRID, 1, 240, SWEEP6_CHECKSUM),
            (GOLDEN_GRID, 6, 672, GOLDEN_CHECKSUM),
        ],
        ids=["sweep6", "golden"],
    )
    def test_each_geometry_is_screened_once(
        self, grid, geometries, pairs, checksum, tmp_path, monkeypatch
    ):
        """Per geometry: one extraction and one fingerprint in the
        screen stage (each simulate item adds one extraction, a cache
        hit here), and one set of pair bounds per driver."""
        calls: Counter = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            engine,
            "parasitics_fingerprint",
            counted("fingerprint", engine.parasitics_fingerprint),
        )
        monkeypatch.setattr(
            sweep, "cached_extract", counted("extract", sweep.cached_extract)
        )
        with collect() as profile:
            report = run_sweep(grid, parallel=1, cache=PipelineCache(tmp_path))
        assert sweep_report_checksum(report) == checksum
        items = profile.counters["noise_sweep_sim_groups"]
        assert calls == {"fingerprint": geometries, "extract": geometries + items}
        assert profile.counters["noise_pairs_screened"] == pairs


class TestParallelDeterminism:
    def test_parallel_worker_count_does_not_change_results(self):
        grid = SweepGrid(
            widths=(6,),
            spacings=(1e-6, 2e-6),
            base=NoiseConfig(threshold_fraction=0.12),
        )
        with collect() as serial_profile:
            serial = run_sweep(grid, parallel=1, cache=None)
        with collect() as pooled_profile:
            pooled = run_sweep(grid, parallel=2, cache=None)
        assert sweep_report_checksum(serial) == sweep_report_checksum(pooled)
        for a, b in zip(serial.results, pooled.results):
            assert a.scenario == b.scenario
        for counter in (
            "noise_victims_escalated",
            "noise_victims_screened_out",
            "noise_pairs_screened",
        ):
            assert (
                serial_profile.counters[counter]
                == pooled_profile.counters[counter]
            )


class TestReceiverThreadsThroughSweep:
    def test_receiver_grid_matches_fraction_grid(self):
        """A degenerate receiver sweeps bit-identically to the scalar."""
        from repro.noise.receiver import ReceiverModel

        base = NoiseConfig(threshold_fraction=0.12)
        with_receiver = dataclasses.replace(
            base,
            receiver=ReceiverModel.quarter_supply(0.12),
        )
        grid = SweepGrid(widths=(6,), base=base)
        receiver_grid = SweepGrid(widths=(6,), base=with_receiver)
        plain = run_sweep(grid, parallel=1, cache=None)
        nonlinear = run_sweep(receiver_grid, parallel=1, cache=None)
        assert sweep_report_checksum(plain) == sweep_report_checksum(
            nonlinear
        )


class TestSweepFamilyVerify:
    """The size-6 bench family's escalations (816-unknown testbenches,
    factorized in SuperLU's symmetric mode) against an independent
    march of each victim."""

    def test_superposed_peaks_match_the_direct_march_to_1e12(self):
        grid = sweep_grid(segments=6, num_densities=6)
        deviations = []
        for scenario in grid.scenarios():
            report = run_noise_scan(
                cached_extract(scenario.geometry().build(), cache=None),
                grid.model,
                scenario.config(grid.base),
                verify=True,
            )
            deviations += [
                v.verify_deviation for v in report.victims if v.escalated
            ]
        assert len(deviations) == 6
        assert max(deviations) <= 1e-12

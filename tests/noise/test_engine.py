"""Engine-level tests of the tiered screen-then-simulate flow.

Includes the PR's acceptance gate: a full 64-bit scan must keep the
escalation ratio under 30% while every escalated victim's batched-
simulation peak matches the independent single-scenario reference
within 1e-9 relative.
"""

import numpy as np
import pytest

from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.noise.engine import (
    NoiseConfig,
    attach_quiet_bus_testbench,
    run_noise_scan,
)
from repro.noise.windows import Window
from repro.pipeline.cache import PipelineCache
from repro.pipeline.profiling import collect


class TestNoiseConfig:
    def test_threshold_property(self):
        config = NoiseConfig(vdd=1.2, threshold_fraction=0.25)
        assert config.threshold == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(threshold_fraction=1.0)
        with pytest.raises(ValueError):
            NoiseConfig(dt=0.0)

    def test_screen_config_carries_calibration_knobs(self):
        config = NoiseConfig(headroom=1.5, safety=1.25, rise_time=5e-12)
        screen = config.screen_config
        assert screen.headroom == 1.5
        assert screen.safety == 1.25
        assert screen.rise_time == 5e-12


class TestQuietBusTestbench:
    def test_every_wire_gets_a_named_source(self, bus5):
        from repro.experiments.runner import build_model, gw_spec

        built = build_model(gw_spec(4), bus5)
        attach_quiet_bus_testbench(built.skeleton)
        names = {element.name for element in built.circuit}
        for wire in range(5):
            assert f"Vdrv{wire}" in names
            assert f"Rd{wire}" in names
            assert f"CL{wire}" in names


class TestRunNoiseScan:
    def test_switching_length_validated(self, bus5):
        with pytest.raises(ValueError):
            run_noise_scan(bus5, switching=[Window(0.0, 1e-12)])

    def test_screen_only_scan(self, bus5):
        report = run_noise_scan(bus5)
        assert report.num_victims == 5
        assert report.num_escalated == 0
        assert report.spec_label == "gwVPEC(b=8)"
        assert not report.failing()
        table = report.to_table()
        assert "escalated" in table and "threshold" in table
        doc = report.to_json_dict()
        assert doc["num_victims"] == 5
        assert len(doc["victims"]) == 5

    def test_escalation_and_conservatism(self, bus16_s1):
        report = run_noise_scan(bus16_s1)
        assert 0 < report.num_escalated < report.num_victims
        for victim in report.victims:
            if victim.escalated:
                assert victim.sim_peak is not None
                # The closed-form bound dominates the simulated peak.
                assert victim.screen_peak >= victim.sim_peak
                assert victim.effective_peak == victim.sim_peak
            else:
                assert victim.sim_peak is None
                assert victim.effective_peak == victim.screen_peak

    def test_profiling_counters(self, bus5):
        with collect() as profile:
            run_noise_scan(bus5)
        counters = profile.counters
        assert counters["noise_pairs_screened"] == 20
        assert (
            counters["noise_victims_screened_out"]
            + counters["noise_victims_escalated"]
            == 5
        )

    def test_cache_roundtrip(self, bus16_s1, tmp_path):
        cache = PipelineCache(tmp_path / "cache")
        first = run_noise_scan(bus16_s1, cache=cache)
        assert cache.entries("noise") == {"noise": 1}
        second = run_noise_scan(bus16_s1, cache=cache)
        assert second.to_json_dict() == first.to_json_dict()
        assert cache.stats.hits >= 1

    def test_cache_key_distinguishes_config(self, bus5, tmp_path):
        cache = PipelineCache(tmp_path / "cache")
        run_noise_scan(bus5, cache=cache)
        run_noise_scan(
            bus5, cache=cache, config=NoiseConfig(threshold_fraction=0.1)
        )
        assert cache.entries("noise") == {"noise": 2}


@pytest.fixture(scope="module")
def bus16_s1():
    """16-bit bus at 1 um spacing: tight enough that victims escalate."""
    return extract(aligned_bus(16, spacing=1e-6))


class TestAcceptance64Bit:
    @pytest.fixture(scope="class")
    def report(self):
        parasitics = extract(aligned_bus(64))
        return run_noise_scan(parasitics, verify=True)

    def test_escalation_ratio_under_30_percent(self, report):
        assert report.num_victims == 64
        assert 0 < report.escalation_ratio < 0.30

    def test_batched_matches_direct_reference_within_1e9(self, report):
        deviations = [
            v.verify_deviation for v in report.victims if v.escalated
        ]
        assert deviations
        assert max(deviations) < 1e-9

    def test_screen_dominates_simulation(self, report):
        for victim in report.victims:
            if victim.escalated:
                assert victim.screen_peak >= victim.sim_peak

    def test_noise_windows_inside_period(self, report):
        period = report.config.period
        for victim in report.victims:
            for window in victim.noise_windows:
                assert 0.0 <= window.start <= window.end <= period


class TestDenseHierarchicalTwin:
    """The screen decides the same victims on the compressed ``L``.

    ``scale_geometry(1024)`` is the smallest rung of the scale family
    whose tree stores low-rank far-field blocks at the default cutoff,
    so this is the decision twin of dense vs hierarchical extraction at
    ``cutoff > 0``.  Screen peaks differ by ~2e-10 relative.
    """

    @pytest.fixture(scope="class")
    def twins(self):
        from repro.bench.extraction_scale import scale_geometry

        system = scale_geometry(1024)
        dense = extract(system)
        hier = extract(system, method="hierarchical")
        (_, operator), = hier.inductance_blocks.values()
        assert operator.compression_stats()["lowrank_blocks"] > 0
        return dense, hier

    @pytest.mark.parametrize(
        "fraction, escalated", [(0.1, 125), (0.2, 5), (0.3, 0)]
    )
    def test_escalations_and_peaks_agree(self, twins, fraction, escalated):
        from repro.experiments.runner import gw_spec
        from repro.noise.engine import screen_scenario

        config = NoiseConfig(threshold_fraction=fraction)
        dense, hier = (
            screen_scenario(parasitics, gw_spec(8), config).screen
            for parasitics in twins
        )
        assert len(dense.escalated) == escalated
        assert [a.victim for a in hier.escalated] == [
            a.victim for a in dense.escalated
        ]
        dense_peaks = np.array([a.peak for a in dense.alignments])
        hier_peaks = np.array([a.peak for a in hier.alignments])
        np.testing.assert_allclose(hier_peaks, dense_peaks, rtol=1e-8, atol=0)

"""Unit tests for the experiment runner plumbing."""

import dataclasses

import pytest

from repro.circuit.sources import step
from repro.experiments.runner import (
    ModelSpec,
    build_model,
    full_spec,
    gt_spec,
    gw_spec,
    localized_spec,
    nt_spec,
    nw_spec,
    peec_spec,
    run_bus_ac,
    run_bus_transient,
    run_two_port_transient,
)


class TestModelSpec:
    def test_labels(self):
        assert peec_spec().label == "PEEC"
        assert full_spec().label == "full VPEC"
        assert localized_spec().label == "localized VPEC"
        assert gt_spec(8, 2).label == "gtVPEC(8,2)"
        assert nt_spec(1e-4).label == "ntVPEC(0.0001)"
        assert gw_spec(8).label == "gwVPEC(b=8)"
        assert nw_spec(1.5e-4).label == "nwVPEC(0.00015)"

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("bogus")
        with pytest.raises(ValueError):
            ModelSpec("gt", nw=0, nl=1)
        with pytest.raises(ValueError):
            ModelSpec("gw")
        with pytest.raises(ValueError):
            ModelSpec("nt")

    def test_solver_validation(self):
        assert gw_spec(8).solver == "direct"
        assert nw_spec(1e-4).solver == "direct"
        # One window-solve backend is left, for every kind.
        for spec in (gw_spec(8), nw_spec(1e-4), full_spec(), peec_spec()):
            for solver in ("iterative", "magic"):
                with pytest.raises(ValueError, match="solver must be 'direct'"):
                    dataclasses.replace(spec, solver=solver)


class TestBuildModel:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            peec_spec,
            full_spec,
            localized_spec,
            lambda: gt_spec(3, 1),
            lambda: nt_spec(1e-2),
            lambda: gw_spec(3),
            lambda: nw_spec(0.6),
        ],
    )
    def test_all_flavors_build(self, fresh_bus5, spec_factory):
        built = build_model(spec_factory(), fresh_bus5)
        assert built.element_count() > 0
        assert built.netlist_bytes() > 0
        assert 0.0 < built.sparse_factor <= 1.0

    def test_sparse_factor_reflects_truncation(self, fresh_bus5):
        built = build_model(gt_spec(2, 1), fresh_bus5)
        assert built.sparse_factor == pytest.approx(4 / 10)


class TestRuns:
    def test_bus_transient_waveform_keys(self, fresh_bus5):
        built = build_model(peec_spec(), fresh_bus5)
        run = run_bus_transient(
            built, step(1.0, 10e-12), 100e-12, 1e-12, observe_bits=[1, 3]
        )
        assert set(run.waveforms) == {"far1", "far3"}
        assert run.sim_seconds > 0
        assert run.total_seconds >= run.sim_seconds

    def test_bus_ac_magnitudes(self, fresh_bus5):
        from repro.circuit.sources import ac_unit

        built = build_model(full_spec(), fresh_bus5)
        run = run_bus_ac(
            built, ac_unit(1.0), [1e6, 1e9], observe_bits=[1]
        )
        wave = run.waveforms["far1"]
        assert len(wave) == 2
        assert all(v >= 0 for v in wave.v)

    def test_two_port(self, spiral_small):
        from repro.extraction.parasitics import extract
        from repro.geometry.spiral import square_spiral

        parasitics = extract(square_spiral(turns=2, total_segments=24))
        built = build_model(peec_spec(), parasitics)
        run = run_two_port_transient(
            built, step(1.0, 10e-12), 100e-12, 1e-12
        )
        assert "out" in run.waveforms


class TestStageTimings:
    """Regression: the pipeline stages are populated by real runs."""

    def test_transient_job_populates_core_stages(self):
        from repro.experiments.jobs import SimJob, geometry_spec, execute_job
        from repro.pipeline.profiling import CORE_STAGES

        job = SimJob(
            geometry=geometry_spec("aligned_bus", bits=5),
            model=gw_spec(2),
            t_stop=50e-12,
            dt=1e-12,
            observe_bits=(1,),
        )
        profile = execute_job(job).profile
        # A gwVPEC transient exercises every core stage except the full
        # inversion (windowing replaces it).
        for name in ("extract", "sparsify", "stamp", "solve"):
            assert profile.calls[name] >= 1
            assert profile.seconds[name] >= 0.0
        assert set(profile.seconds) <= set(CORE_STAGES)
        assert profile.counters["extracted_filaments"] == 5
        assert profile.counters["transient_steps"] == 50
        assert profile.counters["stamped_elements"] > 0
        # Kernel-dedup counters: the GMD quadrature runs at most once per
        # distance class (the module-level cache may already hold them
        # all, so only the *sum* is guaranteed), and the uniform bus has
        # translation-identical windows for the windowed inverse.
        assert (
            profile.counters["gmd_unique_evals"]
            + profile.counters["gmd_cache_hits"]
        ) >= 1
        assert profile.counters["window_dedup_hits"] >= 1

    def test_inversion_models_record_invert_stage(self, fresh_bus5):
        from repro.pipeline.profiling import collect

        with collect() as profile:
            build_model(full_spec(), fresh_bus5)
        assert profile.calls["invert"] == 1
        assert profile.calls["stamp"] == 1
        assert profile.seconds["invert"] >= 0.0

    def test_fig8_points_have_nonnegative_timings(self):
        from repro.experiments.fig8_scaling import run_fig8

        points = run_fig8(
            dense_sizes=(5,), sparse_only_sizes=(), window_size=2,
            t_stop=50e-12, dt=1e-12,
        )
        assert len(points) == 3
        for point in points:
            assert point.build_seconds >= 0.0
            assert point.sim_seconds > 0.0
            assert point.total_seconds >= point.sim_seconds

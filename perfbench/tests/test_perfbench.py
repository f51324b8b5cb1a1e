"""Tests of the benchmark harness itself, on tiny inputs."""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
from service_stream import (
    REPLAY_GAP,
    STREAM_DIGEST,
    ServiceStream,
    generate_stream,
    oneshot_digest,
)
from spans import LAYERS, Tracer
from workloads import ScaleHier, SweepFamily, window_checksum

from repro.bench.extraction_scale import _extract_checksum, _scan_checksum
from repro.extraction.inductance import gmd_cache_size

ROOT = Path(__file__).resolve().parents[2]

#: ``noise_sweep_family`` size-6 checksum (``BENCH_noise_sweep.json``).
SWEEP6_CHECKSUM = "1431edf6e03180a6b1de5a3c46b3d6db283350af0f2cbcd6aaa4a1ca5224452c"

TINY_SCALE = 256


def tiny_sweep(tmp_path, expected=SWEEP6_CHECKSUM):
    workload = SweepFamily(tmp_path, segments=6, densities=6, expected=expected)
    workload.setup()
    return workload


def tiny_scale(tmp_path):
    workload = ScaleHier(tmp_path, size=TINY_SCALE)
    workload.setup()
    parasitics, inverses, report = workload._chain()
    workload.expected = (
        _extract_checksum(parasitics),
        window_checksum(inverses),
        _scan_checksum(report),
    )
    return workload


def tiny_service(tmp_path, seed=5):
    return ServiceStream(
        tmp_path, seed, sizes=(4, 6), seeds_per_geometry=2, hits=2, expected=None
    )


# ----------------------------------------------------------------------
# The stream generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic_per_seed():
    first = generate_stream(7)
    assert generate_stream(7) == first
    assert [i.request.key() for i in generate_stream(8)] != [
        i.request.key() for i in first
    ]


def test_replays_follow_their_cold_original():
    items = generate_stream(11)
    cold_keys = [i.request.key() for i in items if i.replay_of is None]
    assert len(cold_keys) == len(set(cold_keys))
    for position, item in enumerate(items):
        if item.replay_of is None:
            continue
        original = items[item.replay_of]
        assert original.replay_of is None
        assert original.request == item.request
        assert position > item.replay_of
    # Every replay is at least REPLAY_GAP cold items after its original
    # unless the stream ends first.
    for position, item in enumerate(items):
        if item.replay_of is not None and item.replay_of + REPLAY_GAP < len(cold_keys):
            colds_between = sum(
                1 for i in items[item.replay_of: position] if i.replay_of is None
            )
            assert colds_between >= REPLAY_GAP


def test_stream_digest_is_the_oneshot_digest():
    # The cold request set is seed-independent, so one constant serves
    # every seed; recompute it through the one-shot reference path.
    assert oneshot_digest(generate_stream(0)) == STREAM_DIGEST


# ----------------------------------------------------------------------
# Metric names and units against BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)


def test_emitted_end_to_end_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = tiny_sweep(tmp_path)
    iterations = [workload.iteration(), workload.iteration()]
    metrics = run.end_to_end_metrics(
        iterations, [0.01, 0.02], workload.peak_rss_mb(), workload.jobs_are_signoffs
    )
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in metrics.values())
    best = min(it.signoff for it in iterations)
    assert metrics["signoff_s"] == metrics["job_p50_s"] == best
    assert metrics["jobs_per_s"] == pytest.approx(1.0 / best)


# ----------------------------------------------------------------------
# Tiny smoke runs of every workload
# ----------------------------------------------------------------------
def test_sweep_smoke(tmp_path):
    iteration = tiny_sweep(tmp_path).iteration()
    assert iteration.failed == 0 and iteration.attempted == 1
    assert iteration.victims == 6 * 16
    assert iteration.cold == [iteration.signoff] and iteration.requests == 1


def test_every_batch_signoff_starts_with_an_empty_gmd_memo(tmp_path, monkeypatch):
    workload = tiny_scale(tmp_path)
    assert gmd_cache_size() > 0
    chain = workload._chain
    sizes = []

    def watched_chain():
        sizes.append(gmd_cache_size())
        return chain()

    monkeypatch.setattr(workload, "_chain", watched_chain)
    assert workload.iteration().failed == 0
    assert workload.iteration().failed == 0
    assert sizes == [0, 0]


def test_scale_smoke(tmp_path):
    iteration = tiny_scale(tmp_path).iteration()
    assert iteration.failed == 0 and iteration.attempted == 3
    assert iteration.escalated == 0
    assert iteration.victims > 0


def test_service_smoke(tmp_path):
    workload = tiny_service(tmp_path)
    iteration = workload.iteration()
    assert iteration.errors == []
    # 2 geometries x (1 extract + 2 noise) cold, 2 replays in the stream,
    # then one idle-service replay of each cold request.
    assert len(iteration.cold) == 6 and len(iteration.hits) == 6
    assert iteration.requests == 8
    assert len(iteration.setup) == 1
    verdict = workload.verify()
    assert verdict.attempted == 1 and verdict.failed == 0
    assert workload.peak_rss_mb() > 0


# ----------------------------------------------------------------------
# Mismatches are counted, not raised
# ----------------------------------------------------------------------
def test_checksum_mismatch_counts_as_failed(tmp_path):
    iteration = tiny_sweep(tmp_path, expected="0" * 64).iteration()
    assert iteration.attempted == 1 and iteration.failed == 1
    assert all("checksum" in error for error in iteration.errors)
    # The timing of the (wrong) sign-off is still recorded.
    assert iteration.signoff > 0


def test_service_digest_mismatch_counts_as_failed(tmp_path):
    workload = tiny_service(tmp_path)
    workload.iteration()
    workload._digests[0] = "0" * 64
    verdict = workload.verify()
    assert (verdict.attempted, verdict.failed) == (1, 1)


# ----------------------------------------------------------------------
# Reference seconds
# ----------------------------------------------------------------------
def synthetic_sampler(probe_cpu):
    """Probes of 1 ms wall every 50 ms over [0, 10) s, each ``probe_cpu``."""
    sampler = hostspeed.SpeedSampler()
    for k in range(200):
        start = 0.05 * k
        sampler.starts.append(start)
        sampler.samples.append((start, start + 0.001, probe_cpu))
    return sampler


def test_reference_seconds_scale_by_probe_speed():
    quiet = synthetic_sampler(hostspeed.REFERENCE_PROBE_S)
    slow = synthetic_sampler(2 * hostspeed.REFERENCE_PROBE_S)
    # [1.0, 2.99] holds 40 probes of 1 ms; their time is not the program's.
    assert quiet.seconds(1.0, 2.99) == pytest.approx(1.99 - 0.040)
    assert slow.seconds(1.0, 2.99) == pytest.approx(0.5 * quiet.seconds(1.0, 2.99))
    # A short interval is scaled by its nearest probes.
    assert slow.seconds(4.0101, 4.0201) == pytest.approx(0.005)
    # Without a running sampler, reference seconds are wall seconds.
    assert hostspeed.seconds(1.0, 3.0) == 2.0


def test_sampler_probes_and_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.start()
    try:
        assert len(sampler.samples) >= hostspeed.MIN_SAMPLES
        assert all(cpu > 0 for _, _, cpu in sampler.samples)
    finally:
        hostspeed.stop()
    assert signal.getsignal(signal.SIGALRM) is previous


# ----------------------------------------------------------------------
# No process outlives a run
# ----------------------------------------------------------------------
def test_resource_tracker_is_stopped_and_reaped(tmp_path):
    from multiprocessing import resource_tracker

    assert tiny_service(tmp_path).iteration().errors == []
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run._stop_resource_tracker()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [tiny_sweep, tiny_scale])
def test_self_times_and_gaps_add_up_to_traced_wall(tmp_path, make):
    workload = make(tmp_path)
    tracer = Tracer("test")
    tracer.install()
    try:
        iteration = workload.iteration(tracer)
    finally:
        tracer.uninstall()
    values = run.layer_metrics(iteration, tracer.spans)
    total = sum(values[f"self.{layer}_s"] for layer in LAYERS) + values["trace.gap_s"]
    assert total == pytest.approx(values["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert values["trace.wall_s"] == pytest.approx(iteration.signoff, rel=0.05)
    assert values["extraction.extract_s"] > 0
    assert values["noise.screen_s"] > 0


def test_uninstall_restores_the_program(tmp_path):
    from repro.extraction import parasitics

    original = parasitics.extract
    tracer = Tracer("test")
    tracer.install()
    assert parasitics.extract is not original
    tracer.uninstall()
    assert parasitics.extract is original
    assert tiny_sweep(tmp_path).iteration().failed == 0


def test_traced_service_round_collects_worker_spans(tmp_path):
    workload = tiny_service(tmp_path)
    tracer = Tracer("test", tmp_path)
    tracer.install()
    try:
        iteration = workload.iteration(tracer)
    finally:
        tracer.uninstall()
    assert iteration.errors == []
    values = run.layer_metrics(iteration, tracer.spans)
    assert values["service.exec_s"] > 0
    assert values["circuit.transient_s"] > 0
    assert values["service.memo_hits"] == 2 + 6
    assert values["trace.gap_s"] >= 0
    assert not list(tmp_path.glob("worker-*.jsonl"))


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

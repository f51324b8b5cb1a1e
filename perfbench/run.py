"""Sign-off benchmark of the noise-window analysis stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_family --seed 1 --seconds 42 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result (host record, every sample, and in traced runs the spans)
is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import hostinfo

hostinfo.pin_threads()  # before numpy is first imported, here or by the program

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402

from spans import LAYERS, Tracer, busy_by_name, self_by_layer, self_times, subtree

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

WORKLOADS = ("sweep_family", "scale_hier4096", "service_stream")

#: Set-up samples of a batch workload before its first iteration; one
#: more follows every iteration (``setup_s`` is their median).
SETUP_REPEATS = 3

#: Back-to-back set-ups behind one set-up sample (best-of-N).
SETUP_BEST_OF = 3

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("signoff_s", "s"),
    ("victims_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("jobs_per_s", "1/s"),
)

#: Per-layer times: metric name -> span names whose outermost calls
#: are summed (inclusive, so nested calls of the same names count once).
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "geometry.build_s": (
        "geometry.spec_build",
        "geometry.aligned_bus",
        "geometry.nonaligned_bus",
    ),
    "extraction.extract_s": ("extraction.extract",),
    "vpec.window_select_s": ("vpec.geometric_windows",),
    "vpec.window_solve_s": ("vpec.windowed_inverse", "vpec.windowed_vpec"),
    "vpec.model_build_s": ("vpec.build_model",),
    "circuit.stamp_s": ("circuit.build_mna",),
    "circuit.transient_s": ("circuit.transient", "circuit.transient_multi"),
    "noise.screen_s": ("noise.screen_tier",),
    "noise.screen_pairs_s": ("noise.screen_pairs",),
    "noise.align_s": ("noise.align_all",),
    "noise.arrival_s": ("noise.arrival_times",),
    "pipeline.cache_get_s": ("pipeline.cache_get",),
    "pipeline.cache_put_s": ("pipeline.cache_put",),
    "service.queue_wait_s": ("service.queue_wait",),
    "service.exec_s": ("service.exec",),
}

#: Per-layer counts: metric name -> program counter.
LAYER_COUNTERS: Dict[str, str] = {
    "extraction.filaments": "extracted_filaments",
    "vpec.window_dedup_hits": "window_dedup_hits",
    "circuit.transient_steps": "transient_steps",
    "circuit.rhs_column_steps": "rhs_batched_steps",
    "circuit.lu_factorizations": "solve_lu",
    "pipeline.cache_hits": "cache_hits",
    "pipeline.cache_misses": "cache_misses",
}

#: ``(name, unit)`` of the per-layer metrics (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((name, "s") for name in LAYER_TIMES)
    + tuple((name, "count") for name in LAYER_COUNTERS)
    + (
        ("noise.victims", "count"),
        ("noise.escalated", "count"),
        ("noise.escalation_ratio", "ratio"),
        ("service.memo_hits", "count"),
        ("service.shm_hits", "count"),
        ("service.shm_misses", "count"),
    )
    + tuple((f"self.{layer}_s", "s") for layer in LAYERS)
    + (
        ("trace.gap_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def outer_busy(spans: List[Dict[str, Any]], names: Set[str]) -> float:
    """Inclusive seconds of spans in ``names`` not nested in another one."""
    by_id = {span["id"]: span for span in spans}
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += span["end"] - span["start"]
    return total


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def make_workload(name: str, seed: int, out_dir: Path) -> Any:
    from workloads import ScaleHier, SweepFamily

    if name == "sweep_family":
        return SweepFamily(out_dir)
    if name == "scale_hier4096":
        return ScaleHier(out_dir)
    from service_stream import ServiceStream

    return ServiceStream(out_dir, seed)


def timed_setup(workload: Any) -> float:
    """One set-up sample: the fastest of :data:`SETUP_BEST_OF` set-ups."""
    samples = []
    for _ in range(SETUP_BEST_OF):
        start = time.perf_counter()
        workload.setup()
        samples.append(hostspeed.seconds(start, time.perf_counter()))
    return min(samples)


def measure(
    workload: Any, seconds: float, tracer: Optional[Tracer]
) -> Tuple[List[Any], List[float]]:
    """Iterate until the next iteration would overrun ``seconds``.

    Returns the iterations and the set-up samples.  A workload whose
    rounds set themselves up records its samples per iteration; for the
    others the harness takes :data:`SETUP_REPEATS` samples first and one
    more after every iteration, so the samples spread over the run.  With a
    tracer, iterations alternate untraced / traced (at least one of
    each), so the overhead compares neighbouring iterations.
    """
    repeat_setup = not workload.sets_up_per_round
    setups = [timed_setup(workload) for _ in range(SETUP_REPEATS if repeat_setup else 0)]
    iterations = []
    durations: List[float] = []
    begin = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(iterations) % 2 == 1
        start = time.perf_counter()
        if trace_this:
            tracer.install()
            try:
                iteration = workload.iteration(tracer)
            finally:
                tracer.uninstall()
        else:
            iteration = workload.iteration(None)
        iteration.traced = trace_this
        iterations.append(iteration)
        setups.extend(iteration.setup)
        if repeat_setup:
            setups.append(timed_setup(workload))
        durations.append(time.perf_counter() - start)
        if tracer is not None and len(iterations) < 2:
            continue
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(durations) > seconds:
            return iterations, setups


def completed(iterations: Sequence[Any]) -> List[Any]:
    ok = [it for it in iterations if it.signoff > 0 and it.cold]
    if not ok:
        raise RuntimeError("no iteration completed")
    return ok


def end_to_end_metrics(
    iterations: Sequence[Any],
    setups: Sequence[float],
    peak_rss_mb: float,
    jobs_are_signoffs: bool,
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Sign-off time and throughput come from the run's best iteration:
    interference from the host only ever adds time, and the fastest of
    several sign-offs is the least disturbed estimate of the program's
    cost.  Where a job is a whole sign-off (the batch workloads), its
    latency is that same best sign-off -- a median of the run's few
    sign-offs would be its least steady figure; the service's job
    latency is the median over every cold request of the run.
    """
    ok = completed(iterations)
    best = min(ok, key=lambda it: it.signoff)
    cold = [latency for it in ok for latency in it.cold]
    return {
        "setup_s": statistics.median(setups),
        "signoff_s": best.signoff,
        "victims_per_s": best.victims / best.signoff,
        "peak_rss_mb": peak_rss_mb,
        "job_p50_s": best.signoff if jobs_are_signoffs else float(np.percentile(cold, 50)),
        "jobs_per_s": max(it.requests / it.signoff for it in ok),
    }


def informational(
    iterations: Sequence[Any], sampler: Optional[hostspeed.SpeedSampler]
) -> Dict[str, float]:
    """Figures printed and recorded but not bounded (see the README)."""
    ok = completed(iterations)
    cold = [latency for it in ok for latency in it.cold]
    hits = [latency for it in ok for latency in it.hits]
    values = {
        "cold_jobs": float(len(cold)),
        "job_p90_s": float(np.percentile(cold, 90)),
        "signoff_median_s": statistics.median(it.signoff for it in ok),
        "signoff_wall_s": min(it.signoff_wall for it in ok),
    }
    if sampler is not None:
        probes = [cpu for _, _, cpu in sampler.samples]
        values["host_slowdown"] = statistics.fmean(probes) / hostspeed.REFERENCE_PROBE_S
        values["probes"] = float(len(probes))
    if hits:
        values["hit_p50_ms"] = 1000.0 * statistics.median(hits)
        values["hit_requests"] = float(len(hits))
    return values


def layer_metrics(iteration: Any, spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer values of one traced iteration."""
    tree = subtree(spans, iteration.root)
    values: Dict[str, float] = {
        name: outer_busy(tree, set(names)) for name, names in LAYER_TIMES.items()
    }
    for name, counter in LAYER_COUNTERS.items():
        values[name] = float(iteration.counters.get(counter, 0))
    values["noise.victims"] = float(iteration.victims)
    values["noise.escalated"] = float(iteration.escalated)
    values["noise.escalation_ratio"] = iteration.escalated / max(1, iteration.victims)
    for name in ("service.memo_hits", "service.shm_hits", "service.shm_misses"):
        values[name] = iteration.layer.get(name, 0.0)
    own = self_by_layer(tree)
    for layer in LAYERS:
        values[f"self.{layer}_s"] = own[layer]
    values["trace.gap_s"] = own.get("root", 0.0)
    root = next(span for span in tree if span["id"] == iteration.root)
    values["trace.wall_s"] = root["end"] - root["start"]
    return values


def per_layer_metrics(
    iterations: Sequence[Any], spans: List[Dict[str, Any]]
) -> Dict[str, float]:
    traced = [it for it in iterations if it.traced and it.root is not None]
    plain = [it for it in iterations if not it.traced and it.signoff > 0]
    if not traced or not plain:
        raise RuntimeError("traced run needs a traced and an untraced iteration")
    rows = [layer_metrics(it, spans) for it in traced]
    values = {
        name: statistics.fmean(row[name] for row in rows)
        for name in rows[0]
    }
    values["trace.overhead_s"] = statistics.median(
        it.signoff for it in traced
    ) - statistics.median(it.signoff for it in plain)
    return values


def span_table(spans: List[Dict[str, Any]]) -> List[Tuple[str, int, float, float]]:
    """``(name, calls, inclusive s, self s)`` per span name, by self time."""
    own = self_times(spans)
    calls: Dict[str, int] = {}
    self_total: Dict[str, float] = {}
    for span in spans:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        self_total[span["name"]] = self_total.get(span["name"], 0.0) + own[span["id"]]
    inclusive = busy_by_name(spans)
    return sorted(
        ((name, calls[name], inclusive[name], self_total[name]) for name in calls),
        key=lambda row: -row[3],
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> float:
    """Put the checkout's ``src/`` first on the path; returns import seconds."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro
    import service_stream  # noqa: F401 - the import cost is what is timed
    import workloads  # noqa: F401

    seconds = time.perf_counter() - start
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")
    return seconds


def run(args: argparse.Namespace) -> Dict[str, Any]:
    import_s = _import_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tracer = None
    if args.trace:
        worker_dir = OUT_DIR / f"workers-{run_id}"
        worker_dir.mkdir(exist_ok=True)
        tracer = Tracer(run_id, worker_dir)

    workload = make_workload(args.workload, args.seed, OUT_DIR)
    # Untraced runs read their timings in reference seconds; traced runs
    # keep wall seconds, so the probes add nothing to the spans.
    sampler = hostspeed.start() if tracer is None else None
    try:
        iterations, setups = measure(workload, args.seconds, tracer)
    finally:
        hostspeed.stop()
    if tracer is not None:
        shutil.rmtree(worker_dir, ignore_errors=True)
    peak = workload.peak_rss_mb()
    checks = list(iterations)
    if hasattr(workload, "verify"):
        checks.append(workload.verify())

    attempted = sum(it.attempted for it in checks)
    failed = sum(it.failed for it in checks)
    errors = [error for it in checks for error in it.errors]
    if tracer is None:
        metrics = end_to_end_metrics(iterations, setups, peak, workload.jobs_are_signoffs)
        units = dict(END_TO_END)
    else:
        metrics = per_layer_metrics(iterations, tracer.spans)
        units = dict(PER_LAYER)
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": hostinfo.host_record(ROOT),
        "import_s": import_s,
        "info": informational(iterations, sampler),
        "setup_samples": setups,
        "iterations": [
            {
                "traced": it.traced,
                "signoff": it.signoff,
                "signoff_wall": it.signoff_wall,
                "victims": it.victims,
                "escalated": it.escalated,
                "cold": it.cold,
                "hits": it.hits,
                "attempted": it.attempted,
                "failed": it.failed,
                "counters": it.counters,
            }
            for it in iterations
        ],
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "spans": tracer.spans if tracer is not None else [],
        "span_table": span_table(tracer.spans) if tracer is not None else [],
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if started.

    The service's shared-memory store starts it as a detached child that
    ``multiprocessing`` never waits for, so it would outlive the run (as
    a zombie where nothing reaps orphans).  Every segment is unlinked by
    the time a run ends, so the tracker has nothing left to clean up.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the service rounds close their
    # workers and the tracker is stopped on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    finally:
        _stop_resource_tracker()
    with open(OUT_DIR / f"{result['run_id']}.json", "w") as handle:
        json.dump(result, handle, indent=1)

    print("host " + json.dumps(result["host"], sort_keys=True))
    print(
        f"{result['workload']} seed {result['seed']}: "
        f"{len(result['iterations'])} iterations, import {result['import_s']:.3f} s"
    )
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:14.6g} {entry['unit']}")
    for name, value in result["info"].items():
        print(f"{name:28s} {value:14.6g} (not bounded)")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"{'failed_frac':28s} {failed_frac:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    if result["span_table"]:
        print(f"{'span':34s} {'calls':>7s} {'inclusive s':>12s} {'self s':>10s}")
        for name, calls, inclusive, own in result["span_table"]:
            print(f"{name:34s} {calls:7d} {inclusive:12.4f} {own:10.4f}")
    for error in result["errors"]:
        print(f"error: {error}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

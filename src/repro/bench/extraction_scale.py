"""The extraction-scale benchmark suite (``BENCH_extraction_scale.json``).

Counterpart of the kernel/sim/noise suites for the hierarchical
extraction path: where those pin per-kernel micro-performance, this one
pins the *scaling story* of ISSUE 9 -- dense vs hierarchical partial
inductance at growing filament counts, through the full consumer chain:

- ``extract_scale``: parasitic extraction of a segmented non-aligned
  bus.  Variants ``dense`` (full per-axis ndarray blocks) and
  ``hierarchical`` (block low-rank :class:`LazyInductance` operators).
  Each entry records wall time *and* the RSS high-water mark of the
  run (``peak_bytes``), because the hierarchical claim is a memory
  claim as much as a time claim.  Both variants share one checksum basis -- the
  per-filament self inductances plus R and Cg, quantities both paths
  compute bit-identically -- so the suite itself asserts dense/hier
  agreement on every run.
- ``window_solve_scale``: gwVPEC window selection + batched windowed
  inverse straight from the extraction result (dense fancy-indexed
  submatrices vs one block-cover gather of the window stack).
- ``noise_scan_scale``: the tiered noise scan on the same bus, sized so
  the closed-form screen resolves every victim -- the 100k-filament
  regime where the simulation tier must never materialize anything
  ``(n, n)``.

The non-aligned (jittered) bus is chosen deliberately: it defeats the
dense path's displacement-class lattice shortcut, so the dense baseline
pays the honest O(N^2) general-path cost that irregular layouts always
pay.  (On perfectly aligned lattices the dense fast path remains
excellent -- see docs/performance.md, "when dense still wins".)

The committed trajectory holds entries up to 100k+ filaments from a
full local run; CI re-runs only the small sizes (``--scale-sizes``) and
checks them against the same file -- absent sizes are simply not
compared, so the large-N history rides along without CI re-paying it.

:func:`error_vs_cutoff_study` is the Fig. 8-methodology artifact
generator: for a sweep of ACA cutoffs it measures far-field entry
error, screening-tier peak drift, and whether any screening or
peak-noise *decision* changes relative to the exact dense path.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.results import BenchResult, array_checksum
from repro.experiments.runner import ModelSpec
from repro.extraction.hierarchical import HierarchicalConfig, LazyInductance
from repro.extraction.parasitics import Parasitics, extract
from repro.geometry.bus import nonaligned_bus
from repro.geometry.system import FilamentSystem
from repro.noise.engine import NoiseConfig, run_noise_scan, scan_checksum
from repro.vpec.windowing import geometric_windows, windowed_inverse

SCALE_KERNELS = (
    "extract_scale",
    "window_solve_scale",
    "noise_scan_scale",
    "parallel_assembly_scale",
)

#: Sizes of the full local run.  ``BENCH_extraction_scale.json`` holds
#: 4 096 to 102 400: two dense-feasible rungs and the 100k+
#: hierarchical-only rung.  The 10^6-filament end-to-end rung is
#: attempted but has no committed entry.
DEFAULT_SIZES = (4096, 16384, 102400, 1000000)

#: Largest size the dense path still runs at (time- and memory-wise);
#: above it only the hierarchical variant is measured.
DEFAULT_DENSE_LIMIT = 16384

#: Dense noise scans materialize the full matrix for wire aggregation;
#: past this size only the hierarchical scan variant runs.
_DENSE_SCAN_LIMIT = 4096

#: The worker-ladder kernel re-extracts once per worker count; past
#: this size the ladder is skipped so the flagship entry pays the
#: extraction cost exactly once.
_PARALLEL_SIZE_LIMIT = 102400

#: Default worker ladder of ``parallel_assembly_scale``.
DEFAULT_JOBS_LADDER = (1, 2, 4)

#: Bus spacing/threshold chosen so the closed-form screen resolves every
#: victim (zero escalations) -- the scan then exercises exactly the
#: tier that must scale, and its runtime is geometry-bound, not
#: simulation-bound.
_SCALE_SPACING = 4e-6
_SCALE_THRESHOLD = 0.3

_WINDOW = 8


def scale_geometry(n: int) -> FilamentSystem:
    """The suite's workload family: a segmented jittered bus of ~n filaments.

    Wires outnumber segments 16:1 (seg = sqrt(n/16)), so both the wire
    count (screening work) and the per-wire segmentation (axial
    compression opportunity) grow with n.
    """
    segments = max(1, int(round((n / 16.0) ** 0.5)))
    bits = max(2, int(round(n / segments)))
    return nonaligned_bus(
        bits=bits,
        segments_per_line=segments,
        spacing=_SCALE_SPACING,
        offset_jitter=0.3,
    )


def _read_status_kb(field: str) -> Optional[int]:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _reset_rss_peak() -> bool:
    """Reset the kernel's RSS high-water mark; False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _timed_peak(workload) -> Tuple[float, int, Any]:
    """One execution: (seconds, peak incremental bytes, output).

    Timing is never instrumented.  Peak memory is the kernel's RSS
    high-water mark over the run (``VmHWM``, reset per workload) minus
    the resident baseline: real pages at zero overhead, so the
    dense/hierarchical time ratios are exactly what an uninstrumented
    run pays.  (tracemalloc would skew them: its per-allocation hook
    taxes the hierarchical path's many small block allocations several
    times harder than the dense path's few huge ones.)  Where /proc is
    unavailable the fallback times under tracemalloc -- python-level
    peaks, comparable only among themselves.
    """
    if _reset_rss_peak():
        baseline_kb = _read_status_kb("VmRSS") or 0
        start = time.perf_counter()
        output = workload()
        seconds = time.perf_counter() - start
        peak_kb = _read_status_kb("VmHWM") or baseline_kb
        return seconds, max(0, (peak_kb - baseline_kb) * 1024), output
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    start = time.perf_counter()
    output = workload()
    seconds = time.perf_counter() - start
    peak = max(0, tracemalloc.get_traced_memory()[1] - baseline)
    if not was_tracing:
        tracemalloc.stop()
    return seconds, peak, output


def _extract_checksum(parasitics: Parasitics) -> str:
    """Variant-independent digest: quantities both paths compute exactly."""
    diagonals = []
    for _, block in parasitics.inductance_blocks.values():
        if isinstance(block, LazyInductance):
            diagonals.append(block.diagonal())
        else:
            diagonals.append(np.diagonal(block))
    return array_checksum(
        np.concatenate(diagonals),
        parasitics.resistance,
        parasitics.ground_capacitance,
    )


def _window_solve(parasitics: Parasitics):
    sparse_inverses = []
    for indices, block in parasitics.inductance_blocks.values():
        windows = geometric_windows(parasitics.system, indices, _WINDOW)
        sparse_inverses.append(windowed_inverse(block, windows))
    return sparse_inverses


def _noise_scan(parasitics: Parasitics):
    return run_noise_scan(
        parasitics,
        spec=ModelSpec("gw", window=_WINDOW),
        config=NoiseConfig(threshold_fraction=_SCALE_THRESHOLD),
    )


#: The scan digest under the name ``perfbench/`` imports.
_scan_checksum = scan_checksum


def run_extraction_scale_suite(
    kernels: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    config: Optional[HierarchicalConfig] = None,
    jobs: Optional[int] = None,
    jobs_ladder: Optional[Sequence[int]] = None,
) -> List[BenchResult]:
    """Execute the scale suite; one result per (kernel, variant, size).

    Workloads are minutes-long at the large sizes, so each runs once
    (no best-of-N); the regression gate treats time as warn-only
    anyway.  Dense variants stop at ``dense_limit`` (extraction) and
    :data:`_DENSE_SCAN_LIMIT` (scan); the suite raises if the dense and
    hierarchical extraction checksums of a shared size disagree.

    ``jobs`` assembles the hierarchical extraction entries through the
    shared-memory worker pool (bit-identical output, so the committed
    checksums hold for any worker count; the *time* then measures the
    parallel build).  ``jobs_ladder`` selects the worker counts of the
    ``parallel_assembly_scale`` kernel, which re-runs the hierarchical
    extraction once per count and asserts every rung reproduces the
    serial checksum -- the worker-scaling curve of the trajectory.
    """
    selected = tuple(kernels) if kernels is not None else SCALE_KERNELS
    unknown = set(selected) - set(SCALE_KERNELS)
    if unknown:
        raise ValueError(f"unknown kernels: {sorted(unknown)}")
    hier_config = config if config is not None else HierarchicalConfig()
    ladder = tuple(jobs_ladder) if jobs_ladder is not None else DEFAULT_JOBS_LADDER

    results: List[BenchResult] = []
    for requested in sizes:
        system = scale_geometry(requested)
        n = len(system)
        variants = ["hierarchical"] + (["dense"] if n <= dense_limit else [])
        checksums: Dict[str, str] = {}
        for variant in variants:
            kwargs: Dict[str, Any] = (
                {
                    "method": "hierarchical",
                    "hierarchical": hier_config,
                    "jobs": jobs,
                }
                if variant == "hierarchical"
                else {}
            )
            seconds, peak, parasitics = _timed_peak(
                lambda: extract(system, **kwargs)
            )
            checksums[variant] = _extract_checksum(parasitics)
            if "extract_scale" in selected:
                results.append(
                    BenchResult(
                        kernel="extract_scale",
                        variant=variant,
                        size=n,
                        seconds=seconds,
                        checksum=checksums[variant],
                        peak_bytes=peak,
                    )
                )
            if "window_solve_scale" in selected:
                seconds, peak, inverses = _timed_peak(
                    lambda: _window_solve(parasitics)
                )
                results.append(
                    BenchResult(
                        kernel="window_solve_scale",
                        variant=variant,
                        size=n,
                        seconds=seconds,
                        checksum=array_checksum(
                            *(s.diagonal() for s in inverses),
                            *(s.data for s in inverses),
                        ),
                        peak_bytes=peak,
                    )
                )
            if "noise_scan_scale" in selected and (
                variant == "hierarchical" or n <= _DENSE_SCAN_LIMIT
            ):
                seconds, peak, report = _timed_peak(
                    lambda: _noise_scan(parasitics)
                )
                results.append(
                    BenchResult(
                        kernel="noise_scan_scale",
                        variant=variant,
                        size=n,
                        seconds=seconds,
                        checksum=scan_checksum(report),
                        peak_bytes=peak,
                    )
                )
        if len(checksums) == 2 and checksums["dense"] != checksums["hierarchical"]:
            raise AssertionError(
                f"dense and hierarchical extraction disagree at n={n}: "
                f"{checksums['dense'][:12]} != {checksums['hierarchical'][:12]}"
            )
        if (
            "parallel_assembly_scale" in selected
            and n <= _PARALLEL_SIZE_LIMIT
        ):
            for workers in ladder:
                seconds, peak, parasitics = _timed_peak(
                    lambda: extract(
                        system,
                        method="hierarchical",
                        hierarchical=hier_config,
                        jobs=workers,
                    )
                )
                checksum = _extract_checksum(parasitics)
                serial = checksums.get("hierarchical", checksum)
                if checksum != serial:
                    raise AssertionError(
                        f"parallel assembly (jobs={workers}) diverged from "
                        f"the serial build at n={n}: {checksum[:12]} != "
                        f"{serial[:12]}"
                    )
                results.append(
                    BenchResult(
                        kernel="parallel_assembly_scale",
                        variant=f"jobs{workers}",
                        size=n,
                        seconds=seconds,
                        checksum=checksum,
                        peak_bytes=peak,
                    )
                )
    return results


# ----------------------------------------------------------------------
# Error vs cutoff (the paper's Fig. 8 methodology)
# ----------------------------------------------------------------------
def error_vs_cutoff_study(
    size: int = 4096,
    cutoffs: Sequence[float] = (1e-2, 1e-4, 1e-6, 1e-8),
    sample_windows: int = 64,
    seed: int = 2003,
) -> Dict[str, Any]:
    """Accuracy/compression trade-off of the ACA cutoff, as a JSON blob.

    For each cutoff the same bus is extracted hierarchically and
    compared against the exact dense path on three levels, mirroring
    the source paper's error-vs-window-size methodology (Fig. 8):

    - *entries*: max/mean relative error of random ``gather`` windows
      (near-field windows are exact by construction; random windows mix
      in far-field blocks, which is where the cutoff bites);
    - *screening*: relative drift of the closed-form screen's pair-peak
      matrix, and whether any victim's escalate/resolve decision flips;
    - *scan*: relative drift of the per-victim effective noise peaks,
      and whether any pass/fail decision flips.

    The committed artifact (benchmarks/results/
    extraction_error_vs_cutoff.json) demonstrates the acceptance
    property: at the default cutoff no screening or peak-noise decision
    differs from the dense path.
    """
    from repro.noise.screening import ScreenConfig, screen_pairs

    system = scale_geometry(size)
    n = len(system)
    dense = extract(system)
    dense_screen = screen_pairs(
        dense, ScreenConfig()
    )
    dense_report = _noise_scan(dense)
    dense_peaks = np.array([v.effective_peak for v in dense_report.victims])
    dense_decisions = [bool(v.escalated) for v in dense_report.victims]
    dense_failing = {v.wire for v in dense_report.failing()}

    rng = np.random.default_rng(seed)
    rows: List[Dict[str, Any]] = []
    for cutoff in cutoffs:
        hier_config = HierarchicalConfig(cutoff=cutoff)
        hier = extract(system, method="hierarchical", hierarchical=hier_config)

        entry_errors: List[float] = []
        for (indices, block), (_, exact_block) in zip(
            hier.inductance_blocks.values(), dense.inductance_blocks.values()
        ):
            m = len(indices)
            width = min(_WINDOW * 2, m)
            scale = float(np.abs(np.asarray(exact_block)).max())
            for _ in range(sample_windows):
                members = rng.choice(m, size=width, replace=False)
                approx = block.gather(members, members)
                exact = np.asarray(exact_block)[np.ix_(members, members)]
                entry_errors.append(
                    float(np.abs(approx - exact).max()) / scale
                )

        hier_screen = screen_pairs(hier, ScreenConfig())
        screen_scale = float(np.abs(dense_screen.peak).max())
        screen_drift = (
            float(np.abs(hier_screen.peak - dense_screen.peak).max())
            / screen_scale
        )

        hier_report = _noise_scan(hier)
        hier_peaks = np.array(
            [v.effective_peak for v in hier_report.victims]
        )
        hier_decisions = [bool(v.escalated) for v in hier_report.victims]
        hier_failing = {v.wire for v in hier_report.failing()}
        peak_scale = float(np.abs(dense_peaks).max())
        per_axis = [
            block.compression_stats()
            for _, block in hier.inductance_blocks.values()
        ]
        stored = sum(s["stored_bytes"] for s in per_axis)
        exact = sum(s["dense_bytes"] for s in per_axis)
        rows.append(
            {
                "cutoff": cutoff,
                "max_entry_rel_error": max(entry_errors),
                "mean_entry_rel_error": float(np.mean(entry_errors)),
                "screen_peak_rel_drift": screen_drift,
                "scan_peak_rel_drift": float(
                    np.abs(hier_peaks - dense_peaks).max() / peak_scale
                ),
                "screening_decisions_unchanged": hier_decisions
                == dense_decisions,
                "failing_set_unchanged": hier_failing == dense_failing,
                "stored_bytes": stored,
                "compression_ratio": exact / max(stored, 1),
            }
        )
    return {
        "system": system.name,
        "filaments": n,
        "window": _WINDOW,
        "sample_windows": sample_windows,
        "default_cutoff": HierarchicalConfig().cutoff,
        "dense_bytes": 8 * n * n,
        "cutoffs": rows,
    }

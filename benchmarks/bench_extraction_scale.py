"""Hierarchical-extraction scale smoke: ~20k filaments end-to-end.

CI-sized companion of the committed ``BENCH_extraction_scale.json``
trajectory (whose 100k+ rung only a full local run re-pays): one
~20k-filament jittered bus driven extract -> windowed solve -> tiered
noise scan entirely through the :class:`LazyInductance` operator path,
with three acceptance properties:

- the run finishes inside a generous wall-clock budget (the dense path
  would need ~3.4 GB for ``L`` alone at this size);
- nothing materializes the dense matrix -- the parasitics leave the run
  with ``has_dense_inductance`` still false and every stage's RSS
  high-water mark a small fraction of the dense footprint;
- every wire is screened and the scan report is complete.

Two interleaved ratio gates at 4 096 filaments guard the sign-off's
own work beside its kernels: the hierarchical build against a bare
loop of its kernel calls, and window selection against a bare KD-tree
query.  The timing/peak numbers are archived under ``benchmarks/results/`` like
every other benchmark table.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.bench.extraction_scale import (
    _noise_scan,
    _timed_peak,
    _window_solve,
    scale_geometry,
)
from repro.extraction.hierarchical import _PairEvaluator, hierarchical_blocks
from repro.extraction.inductance import axis_geometry, clear_gmd_cache
from repro.extraction.parasitics import extract
from repro.vpec.windowing import geometric_windows

#: ~20k filaments: 576 wires x 36 segments (seg = sqrt(n/16)).
SMOKE_SIZE = 20736

#: Generous for shared CI runners; a healthy run is a small fraction.
TIME_BUDGET_SECONDS = 900.0


def test_hierarchical_20k_end_to_end(report):
    system = scale_geometry(SMOKE_SIZE)
    n = len(system)
    assert n >= 20_000
    dense_bytes = 8 * n * n

    t_extract, peak_extract, parasitics = _timed_peak(
        lambda: extract(system, method="hierarchical")
    )
    t_solve, peak_solve, inverses = _timed_peak(
        lambda: _window_solve(parasitics)
    )
    t_scan, peak_scan, scan = _timed_peak(lambda: _noise_scan(parasitics))

    elapsed = t_extract + t_solve + t_scan
    assert elapsed < TIME_BUDGET_SECONDS, f"{elapsed:.0f}s over budget"

    # The whole chain must run on the operator surface: no consumer may
    # have materialized the (n, n) inductance, and no stage's peak
    # allocation may approach the dense footprint.
    assert parasitics.is_hierarchical
    assert not parasitics.has_dense_inductance
    peak = max(peak_extract, peak_solve, peak_scan)
    assert peak < dense_bytes / 4

    assert inverses and all(s.nnz > 0 for s in inverses)
    assert len(scan.victims) == system.num_wires

    stats = [
        block.compression_stats()
        for _, block in parasitics.inductance_blocks.values()
    ]
    stored = sum(s["stored_bytes"] for s in stats)
    report(
        "extraction_scale_smoke",
        format_table(
            ["metric", "value"],
            [
                ["filaments", n],
                ["wires", system.num_wires],
                ["extract (s)", f"{t_extract:.1f}"],
                ["window solve (s)", f"{t_solve:.1f}"],
                ["noise scan (s)", f"{t_scan:.1f}"],
                ["peak stage RSS delta (MB)", f"{peak / 1e6:.0f}"],
                ["dense L would be (MB)", f"{dense_bytes / 1e6:.0f}"],
                ["stored L (MB)", f"{stored / 1e6:.0f}"],
                ["escalated victims", sum(v.escalated for v in scan.victims)],
            ],
        ),
    )


#: Ceiling of a serial 4 096-filament ``hierarchical_blocks`` build over
#: a bare loop through the same 852 kernel requests, best of 5 each,
#: interleaved (2-CPU Xeon, one BLAS thread, a busy shared host).  The
#: build adds the tree, the plan, the ACA's arithmetic between kernel
#: calls and the compaction.  Batched ACA arithmetic read 1.19-1.53
#: (7 runs), the per-block ACA steps before it 2.02-2.17 (4 runs), so
#: the ceiling fails a return of per-block Python between kernel calls.
ACA_GLUE_RATIO = 1.8


def _kernel_requests(system):
    """The evaluator of a serial build of ``system`` (one axis group)
    and every kernel request it made, in order: the dense plan rows,
    each ACA round's pivot rows and columns, and any dense fallbacks."""
    requests = []
    real = _PairEvaluator.entries

    def record(self, i, j):
        requests.append((np.array(i), np.array(j)))
        return real(self, i, j)

    clear_gmd_cache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_PairEvaluator, "entries", record)
        ((axis, (indices, operator)),) = hierarchical_blocks(system).items()
    lengths, widths, thicknesses, starts, centers = axis_geometry(
        system, indices, axis
    )
    perm = operator.perm
    evaluator = _PairEvaluator(
        lengths[perm], widths[perm], thicknesses[perm], starts[perm],
        centers[perm], perm, True,
    )
    return evaluator, requests


def test_aca_glue_costs_little_beside_the_kernel(report):
    """The build's own work beside its kernel evaluations.  Both sides
    start from a cleared GMD memo and meet the same keys in the same
    order; the two loops alternate, so a busy stretch of the host slows
    both."""
    system = scale_geometry(4096)
    evaluator, requests = _kernel_requests(system)

    def build():
        clear_gmd_cache()
        hierarchical_blocks(system)

    def bare():
        clear_gmd_cache()
        for i, j in requests:
            evaluator.entries(i, j)

    best = {build: float("inf"), bare: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[build] / best[bare]
    report(
        "extraction_scale_aca_glue",
        format_table(
            ["metric", "value"],
            [
                ["filaments", len(system)],
                ["kernel requests", len(requests)],
                ["kernel entries", sum(i.size for i, _ in requests)],
                ["build, best of 5 (s)", f"{best[build]:.3f}"],
                ["bare kernel loop, best of 5 (s)", f"{best[bare]:.3f}"],
                ["build / bare", f"{ratio:.2f}"],
            ],
        ),
    )
    assert ratio <= ACA_GLUE_RATIO


#: Ceiling of gw8 window selection at 4 096 filaments (symmetrized, as
#: the sign-off calls it) over a bare ``cKDTree(centers).query(centers,
#: k=8)`` of the same centers, best of 5 each, interleaved (2-CPU Xeon,
#: one BLAS thread, a busy shared host).  It read 3.05-3.4 over seven
#: runs and the all-pairs scan before it 28.0-28.4 (two runs); the
#: ceiling fails a return to scanning every row instead of the tied
#: ones.
WINDOW_SELECT_RATIO = 5.0


def test_window_selection_costs_little_beside_a_kd_query(report):
    from scipy.spatial import cKDTree

    system = scale_geometry(4096)
    (indices,) = system.indices_by_axis().values()
    centers = system.centers()[indices]

    def select():
        geometric_windows(system, indices, 8)

    def bare():
        cKDTree(centers).query(centers, k=8)

    best = {select: float("inf"), bare: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[select] / best[bare]
    report(
        "extraction_scale_window_select",
        format_table(
            ["metric", "value"],
            [
                ["filaments", len(indices)],
                ["window size", 8],
                ["selection, best of 5 (ms)", f"{best[select] * 1e3:.1f}"],
                ["bare KD-tree query, best of 5 (ms)", f"{best[bare] * 1e3:.1f}"],
                ["selection / bare", f"{ratio:.2f}"],
            ],
        ),
    )
    assert ratio <= WINDOW_SELECT_RATIO

"""The design-space sweep suite (``BENCH_noise_sweep.json``).

Counterpart of :mod:`repro.bench.noise` for the sweep layer
(:mod:`repro.noise.sweep`): it runs one sign-off scenario family --
schedule densities over a segmented non-aligned bus with the paper's
noise-window (``nw``) VPEC model -- through both sign-off styles and
commits both timings:

- ``noise_sweep_family`` / variant ``sequential``: the status-quo flow,
  one fully cold sign-off per scenario -- fresh extraction, fresh
  inductive model build, own tiered scan (``cache=None`` everywhere).
  This is what running ``repro noise`` once per design point costs.
- ``noise_sweep_family`` / variant ``batched``: the same family as one
  :func:`~repro.noise.sweep.run_sweep` job with a fresh disk cache --
  scenarios share one extraction and one model build through the
  content-addressed cache, and their escalated victims merge into
  multi-RHS transient batches.

The committed ratio ``sequential / batched`` is the headline sweep
speedup.  The suite *raises* if the two flows disagree: escalation
decisions must match exactly, and per-victim peaks must agree to
:data:`_PEAK_RTOL`.  The largest relative peak difference between the
flows measured 0.0 at 6 and at 24 scenarios (one BLAS thread); peaks
are still compared to a tolerance because SuperLU's multi-RHS
triangular solves may round differently from its single-column path
under another BLAS, which is unmeasured.

The default family (``segments=20``, 24 densities) sizes the inductive
model so one build costs seconds -- the regime the sweep exists for.
CI smoke runs shrink it with ``segments=6`` / fewer densities; both
profiles' entries live in the committed trajectory.
"""

from __future__ import annotations

import tempfile
import time
from typing import List, Sequence

import numpy as np

from repro.bench.results import BenchResult
from repro.bench.runner import _best_time
from repro.experiments.runner import nw_spec
from repro.noise.engine import (
    NoiseConfig,
    NoiseScanReport,
    run_noise_scan,
    scan_checksum,
)
from repro.noise.sweep import SweepGrid, run_sweep, sweep_report_checksum
from repro.pipeline.cache import PipelineCache, cached_extract

SWEEP_KERNELS = ("noise_sweep_family",)

#: Relative tolerance of the sequential-vs-batched peak comparison
#: (see the module docstring; measured differences are 0.0).
_PEAK_RTOL = 1e-6

#: Coupling threshold of the family's noise-window model.
_NW_THRESHOLD = 1.5e-4

#: Screen threshold fraction placing exactly one victim per scenario on
#: the simulate side of the boundary (the sweep's steady-state shape:
#: most victims screened out, a thin escalated band).
_THRESHOLD_FRACTION = 0.55


def sweep_grid(segments: int = 20, num_densities: int = 24) -> SweepGrid:
    """The bench family: a density sweep of a segmented 16-bit bus.

    Every scenario shares one geometry/model (the shared-cache leg of
    the speedup) and escalates exactly one victim (the batched-RHS
    leg); ``segments`` scales the inductive model-build cost cubically,
    ``num_densities`` the family size.
    """
    base = NoiseConfig(
        threshold_fraction=_THRESHOLD_FRACTION,
        period=600e-12,
        driver_resistance=150.0,
        dt=1e-12,
    )
    return SweepGrid(
        topologies=("nonaligned_bus",),
        widths=(16,),
        drivers=(150.0,),
        densities=tuple(np.round(np.linspace(1.5, 3.35, num_densities), 6)),
        segments=(segments,),
        base=base,
        model=nw_spec(_NW_THRESHOLD),
    )


def _sequential_scan(grid: SweepGrid) -> List[NoiseScanReport]:
    """One fully cold independent sign-off per scenario."""
    reports = []
    for scenario in grid.scenarios():
        parasitics = cached_extract(scenario.geometry().build(), cache=None)
        reports.append(
            run_noise_scan(
                parasitics,
                grid.model,
                scenario.config(grid.base),
                cache=None,
            )
        )
    return reports


def _assert_equivalent(
    sequential: Sequence[NoiseScanReport], batched
) -> None:
    """Raise unless both flows agree (decisions exact, peaks close)."""
    for scan, result in zip(sequential, batched.results):
        for theirs, ours in zip(scan.victims, result.report.victims):
            if theirs.escalated != ours.escalated:
                raise RuntimeError(
                    f"escalation decision diverged for scenario "
                    f"{result.scenario.label} wire {theirs.wire}: "
                    f"sequential {theirs.escalated}, batched {ours.escalated}"
                )
            if not np.isclose(
                ours.effective_peak, theirs.effective_peak, rtol=_PEAK_RTOL
            ):
                raise RuntimeError(
                    f"peak diverged for scenario {result.scenario.label} "
                    f"wire {theirs.wire}: sequential "
                    f"{theirs.effective_peak!r}, batched "
                    f"{ours.effective_peak!r}"
                )


def run_sweep_suite(
    segments: int = 20,
    num_densities: int = 24,
    repeats: int = 3,
) -> List[BenchResult]:
    """Execute the sweep bench; one :class:`BenchResult` per variant.

    The batched arm runs best-of-``repeats``, each repeat against a
    fresh (cold) disk cache in a temporary directory.  The sequential
    arm runs once: it is itself a sum of ``num_densities`` independent
    scans, so its relative timing variance is already far below a
    single run's.  One untimed extraction warms the process-global
    geometry caches so neither arm pays one-time setup.
    """
    grid = sweep_grid(segments=segments, num_densities=num_densities)
    scenarios = grid.scenarios()
    cached_extract(scenarios[0].geometry().build(), cache=None)

    begin = time.perf_counter()
    sequential = _sequential_scan(grid)
    sequential_seconds = time.perf_counter() - begin

    def batched_run():
        with tempfile.TemporaryDirectory() as tmp:
            return run_sweep(grid, parallel=1, cache=PipelineCache(tmp))

    batched_seconds, batched = _best_time(batched_run, repeats)
    _assert_equivalent(sequential, batched)

    size = len(scenarios)
    return [
        BenchResult(
            kernel="noise_sweep_family",
            variant="sequential",
            size=size,
            seconds=sequential_seconds,
            checksum=scan_checksum(*sequential),
        ),
        BenchResult(
            kernel="noise_sweep_family",
            variant="batched",
            size=size,
            seconds=batched_seconds,
            checksum=sweep_report_checksum(batched),
        ),
    ]

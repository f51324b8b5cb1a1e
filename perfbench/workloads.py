"""The two batch workloads and what every workload hands the harness.

A workload sets up (several times, so ``setup_s`` is a median) and then
runs *iterations* until the harness's time budget is spent.  One batch
iteration is one fresh sign-off; it reports an :class:`Iteration`.

- :class:`SweepFamily` (``sweep_family``): the 24-density, 20-segment
  16-bit non-aligned-bus ``nwVPEC`` family of
  :func:`repro.bench.sweep.sweep_grid`, run through
  ``run_sweep(parallel=1)`` against a fresh pipeline cache.  Its time
  goes to multi-RHS transients and numerical windowing on a dense ``L``.
- :class:`ScaleHier` (``scale_hier4096``): ``scale_geometry(4096)``
  through hierarchical extraction, the gw8 ``windowed_inverse`` and a
  screen-only noise scan -- the chain of
  :mod:`repro.bench.extraction_scale`, called through its own helpers.
  Its time goes to hierarchical extraction and windowing on
  ``LazyInductance``; the circuit layer does nothing.

Every sign-off is fresh: the process-wide GMD memo of
:mod:`repro.extraction.inductance` is cleared before it, outside the
timed region, so each one pays the quadrature a first sign-off pays.

The seed does not reach these two: their inputs are the fixed families
whose checksums the committed trajectory pins (``BENCH_noise_sweep.json``
size 24, ``BENCH_extraction_scale.json`` size 4096), so every run checks
its outputs against those exact digests.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.extraction_scale import (
    _extract_checksum,
    _noise_scan,
    _scan_checksum,
    _window_solve,
    scale_geometry,
)
from repro.bench.results import array_checksum
from repro.bench.sweep import sweep_grid
from repro.extraction.inductance import clear_gmd_cache
from repro.extraction.parasitics import Parasitics, extract
from repro.noise.engine import NoiseScanReport
from repro.noise.sweep import run_sweep, sweep_report_checksum
from repro.pipeline.cache import PipelineCache
from repro.pipeline.profiling import collect, max_rss_bytes

import hostspeed
from spans import Tracer

#: ``sweep_report_checksum`` of the 24-density family
#: (``BENCH_noise_sweep.json``, ``noise_sweep_family`` size 24).
SWEEP_CHECKSUM = "4328889dcb174a70722df6e896c1311c099d5ee3924be49148386d6c16095a5c"

#: Extract, window-solve and scan checksums of the 4096-filament rung
#: (``BENCH_extraction_scale.json``, size 4096).
SCALE_CHECKSUMS = (
    "34f6ff5120d89399a88f3fb09ac79abfab8bdf6036609ca18fc50ae306708d7d",
    "b32ee6c1ef49fba9ced89ea6c11227bad394bd14ef9d7be5cc5288df7db183bc",
    "89ea4669439888c7b6b2b73c48c103a9d4c9a718a9f1a5e3396b82d9bc7fed50",
)


@dataclass
class Iteration:
    """What one sign-off (a batch run, or one service round) measured."""

    #: Reference seconds of the sign-off (see :mod:`hostspeed`).
    signoff: float = 0.0
    #: Wall seconds of the sign-off.
    signoff_wall: float = 0.0
    victims: int = 0
    escalated: int = 0
    #: Latency of each cold (non-memoized) job, reference seconds.
    cold: List[float] = field(default_factory=list)
    #: Memo-hit latency samples, reference seconds (service only).
    hits: List[float] = field(default_factory=list)
    #: Requests completed in the sign-off, cold and memo hits.
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Set-up samples taken inside the iteration (the service restarts
    #: its server every round), reference seconds.
    setup: List[float] = field(default_factory=list)
    #: Program counters of a traced iteration.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Extra per-layer values of a traced iteration (service stats).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Whether the iteration ran traced, and its root span id if so.
    traced: bool = False
    root: Optional[str] = None

    def check(self, what: str, got: str, expected: str) -> None:
        """Count one checked output; a mismatch is a failure, not a crash."""
        self.attempted += 1
        if got != expected:
            self.failed += 1
            self.errors.append(f"{what}: checksum {got[:12]} != {expected[:12]}")

    def fail(self, what: str, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(error).__name__}: {error}")


def traced(
    tracer: Optional[Tracer],
    iteration: Iteration,
    fn: Callable[[], Any],
) -> Any:
    """Run ``fn`` as the root span of a traced iteration (or plainly)."""
    if tracer is None:
        return fn()
    with collect() as profile:
        result = tracer.call("root.signoff", fn)
    iteration.root = tracer.spans[-1]["id"]
    iteration.counters = dict(profile.counters)
    return result


def timed_signoff(
    tracer: Optional[Tracer], out: Iteration, fn: Callable[[], Any]
) -> Any:
    """One fresh, timed batch sign-off: clear the GMD memo, then time ``fn``."""
    clear_gmd_cache()
    start = time.perf_counter()
    result = traced(tracer, out, fn)
    end = time.perf_counter()
    out.signoff = hostspeed.seconds(start, end)
    out.signoff_wall = end - start
    out.cold.append(out.signoff)
    out.requests = 1
    return result


def peak_rss_mb(child_bytes: int = 0) -> float:
    """Resident high-water mark of this process and its helpers, MB."""
    return max(max_rss_bytes(), child_bytes) / float(1 << 20)


class SweepFamily:
    """The corner-storm sweep family (see module docstring)."""

    sets_up_per_round = False
    #: A user's job is the whole family: one sign-off per job.
    jobs_are_signoffs = True

    def __init__(
        self,
        out_dir: Path,
        segments: int = 20,
        densities: int = 24,
        expected: str = SWEEP_CHECKSUM,
    ) -> None:
        self.out_dir = out_dir
        self.segments = segments
        self.densities = densities
        self.expected = expected
        self.grid: Any = None

    def setup(self) -> None:
        """Build the scenario grid and each distinct geometry of the family.

        ``run_sweep`` builds its geometries again from the specs; building
        them here is the family's geometry set-up, checked and timed apart
        from the sign-off.
        """
        self.grid = sweep_grid(segments=self.segments, num_densities=self.densities)
        for spec in {scenario.geometry() for scenario in self.grid.scenarios()}:
            spec.build()

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        out = Iteration()
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            cache = PipelineCache(tmp)
            try:
                report = timed_signoff(
                    tracer, out, lambda: run_sweep(self.grid, parallel=1, cache=cache)
                )
            except Exception as error:  # noqa: BLE001 - counted, run continues
                out.fail("sweep", error)
                return out
        out.victims = sum(r.report.num_victims for r in report.results)
        out.escalated = sum(r.report.num_escalated for r in report.results)
        out.check("sweep", sweep_report_checksum(report), self.expected)
        return out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


def window_checksum(inverses: Sequence[Any]) -> str:
    """The window-solve digest :mod:`repro.bench.extraction_scale` records."""
    return array_checksum(
        *(s.diagonal() for s in inverses), *(s.data for s in inverses)
    )


class ScaleHier:
    """Hierarchical extract -> gw8 window solve -> screen-only scan."""

    sets_up_per_round = False
    #: A user's job is the whole chain: one sign-off per job.
    jobs_are_signoffs = True

    def __init__(
        self,
        out_dir: Path,
        size: int = 4096,
        expected: Tuple[str, str, str] = SCALE_CHECKSUMS,
    ) -> None:
        self.out_dir = out_dir
        self.size = size
        self.expected = expected
        self.system: Any = None

    def setup(self) -> None:
        self.system = scale_geometry(self.size)

    def _chain(self) -> Tuple[Parasitics, List[Any], NoiseScanReport]:
        parasitics = extract(self.system, method="hierarchical")
        return parasitics, _window_solve(parasitics), _noise_scan(parasitics)

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        out = Iteration()
        try:
            parasitics, inverses, report = timed_signoff(tracer, out, self._chain)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            out.fail("scale chain", error)
            return out
        out.victims = report.num_victims
        out.escalated = report.num_escalated
        expect_extract, expect_window, expect_scan = self.expected
        out.check("extract", _extract_checksum(parasitics), expect_extract)
        out.check("window", window_checksum(inverses), expect_window)
        out.check("scan", _scan_checksum(report), expect_scan)
        return out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

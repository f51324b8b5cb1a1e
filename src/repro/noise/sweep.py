"""Design-space noise sweeps: one batched job over a scenario family.

The tiered scan of :mod:`repro.noise.engine` signs off *one* bus.  A
methodology signs off a *family*: bus widths x wire widths x spacings x
driver strengths x switching-schedule densities x topology.  This
module expands a declarative :class:`SweepGrid` into content-keyed
:class:`Scenario` objects and runs them as one batched job -- the noise
plan of :mod:`repro.noise.engine`, of which a one-shot scan is the
one-scenario case -- through the existing pipeline plumbing:

- each geometry's screen item and each simulate item is a picklable
  work item fanned out over the process pool via
  :func:`repro.experiments.jobs.fan_out` (results in plan order,
  profiles merged);
- scenarios that differ only in electrical knobs (driver strength,
  schedule density) share one geometry, which one screen item builds,
  extracts, fingerprints and bounds once for all of them;
- extraction, model building, and whole noise reports flow through the
  shared content-addressed :class:`~repro.pipeline.cache.PipelineCache`,
  so the simulate items reuse the screen's extraction and share one
  model build per testbench;
- scenarios that share a testbench circuit (same geometry, driver,
  supply, time step) merge their escalated victims into one simulate
  item, whose one
  :func:`~repro.circuit.transient.transient_analysis_multi` march has
  a column per driven source, not per victim -- merging k
  near-boundary scenarios that share their aggressors costs about one
  scan instead of k (see ``BENCH_noise_sweep.json``); each victim's
  waveform is superposed on its own scenario's horizon, matching
  independent scans.

The merged :class:`SweepReport` reports distribution-level results:
per-topology-family peak/margin quantiles, an escalation-rate histogram
over scenarios, a screen-conservatism histogram (screen bound / exact
simulated peak for escalated victims -- values below 1 would mean a
non-conservative screen), and the worst offenders across the whole
family.  ``repro noise sweep`` renders :meth:`SweepReport.to_table`;
the service's ``sweep`` job kind streams per-scenario progress and
returns :meth:`SweepReport.to_json_dict`.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DRIVER_RESISTANCE
from repro.experiments.jobs import GeometrySpec, fan_out, geometry_spec
from repro.experiments.runner import ModelSpec
from repro.health import FallbackPolicy
from repro.noise.engine import (
    MAX_COLUMNS_PER_SIM,  # noqa: F401 - the cap sweeps batch under
    EscalationTierResult,
    NoiseConfig,
    NoiseScanReport,
    ScreenedScenario,
    SimulateItem,
    assemble_plan,
    escalate,
    plan_marches,
    plan_simulations,
    scan_checksum,
    screen_scenarios,
)
from repro.pipeline.cache import PipelineCache, cached_extract
from repro.pipeline.profiling import StageProfile, add_counter, collect, stage

#: Topologies a sweep can exercise (``width`` means bus bits, or wires
#: per layer for a crossbar).
SWEEP_TOPOLOGIES = ("bus", "nonaligned_bus", "crossbar")

#: Escalation-rate histogram bin edges (fixed, so histograms from
#: different grids are comparable).
ESCALATION_BINS = tuple(np.round(np.linspace(0.0, 1.0, 11), 2))

#: Screen-conservatism (screen bound / simulated peak) bin edges.  The
#: first bin catches would-be non-conservative victims (< 1).
CONSERVATISM_BINS = (0.0, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, float("inf"))

@dataclass(frozen=True)
class Scenario:
    """One point of the design-space grid, fully declarative."""

    topology: str
    width: int
    wire_width: float
    spacing: float
    driver: float
    density: float
    #: Filament segments per line -- the extraction-fidelity knob.  More
    #: segments sharpen the parasitic model (and cube the inductive
    #: model-build cost); crossbars only support 1.
    segments: int = 1

    def __post_init__(self) -> None:
        if self.topology not in SWEEP_TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {SWEEP_TOPOLOGIES}, "
                f"got {self.topology!r}"
            )
        if self.width < 2:
            raise ValueError("width must be >= 2 wires")
        if min(self.wire_width, self.spacing, self.driver) <= 0:
            raise ValueError("wire_width, spacing, driver must be positive")
        if self.density <= 0:
            raise ValueError("density must be positive")
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if self.topology == "crossbar" and self.segments != 1:
            raise ValueError("crossbar topologies support segments=1 only")

    @property
    def label(self) -> str:
        suffix = f"_g{self.segments}" if self.segments != 1 else ""
        return (
            f"{self.topology}{self.width}"
            f"_w{self.wire_width * 1e9:.0f}n"
            f"_s{self.spacing * 1e9:.0f}n"
            f"_r{self.driver:g}"
            f"_d{self.density:g}"
            f"{suffix}"
        )

    def geometry(self) -> GeometrySpec:
        """The scenario's geometry as an experiments spec.

        Scenarios differing only in electrical knobs map to the *same*
        spec -- the content-addressed cache key -- so they share one
        extraction.
        """
        if self.topology == "crossbar":
            return geometry_spec(
                "crossbar",
                x_wires=self.width,
                y_wires=self.width,
                width=self.wire_width,
                spacing=self.spacing,
            )
        kind = "aligned_bus" if self.topology == "bus" else "nonaligned_bus"
        params = dict(
            bits=self.width,
            width=self.wire_width,
            spacing=self.spacing,
        )
        if self.segments != 1:
            params["segments_per_line"] = self.segments
        return geometry_spec(kind, **params)

    def config(self, base: NoiseConfig) -> NoiseConfig:
        """The scenario's scan config: grid knobs over the base."""
        return replace(
            base,
            driver_resistance=self.driver,
            switch_width=base.switch_width * self.density,
        )


@dataclass(frozen=True)
class SweepGrid:
    """A declarative scenario family: the cartesian product of axes.

    ``densities`` scale the base config's launch-window width (denser
    schedules overlap more, aligning more simultaneous aggressors);
    every other axis is literal.  ``base`` carries the shared physics
    (supply, rise time, threshold or receiver model, envelope).
    """

    topologies: Tuple[str, ...] = ("bus",)
    widths: Tuple[int, ...] = (8,)
    wire_widths: Tuple[float, ...] = (1e-6,)
    spacings: Tuple[float, ...] = (2e-6,)
    drivers: Tuple[float, ...] = (DRIVER_RESISTANCE,)
    densities: Tuple[float, ...] = (1.0,)
    segments: Tuple[int, ...] = (1,)
    base: NoiseConfig = NoiseConfig()
    model: ModelSpec = ModelSpec("gw", window=8)

    def __post_init__(self) -> None:
        for name in (
            "topologies", "widths", "wire_widths", "spacings",
            "drivers", "densities", "segments",
        ):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")

    @property
    def num_scenarios(self) -> int:
        return (
            len(self.topologies) * len(self.widths) * len(self.wire_widths)
            * len(self.spacings) * len(self.drivers) * len(self.densities)
            * len(self.segments)
        )

    def scenarios(self) -> Tuple[Scenario, ...]:
        """Grid points in deterministic axis-major product order."""
        return tuple(
            Scenario(
                topology, width, wire_width, spacing, driver, density,
                segments,
            )
            for topology, width, wire_width, spacing, driver, density,
            segments
            in itertools.product(
                self.topologies, self.widths, self.wire_widths,
                self.spacings, self.drivers, self.densities, self.segments,
            )
        )


@dataclass
class ScenarioResult:
    """One scenario's scan outcome.

    ``seconds`` is the scenario's share of its geometry's screen item
    (see :func:`screen_grid`): the first scenario of each geometry also
    carries the geometry's build and extraction.
    """

    scenario: Scenario
    report: NoiseScanReport
    seconds: float

    @property
    def worst_peak(self) -> float:
        return max(v.effective_peak for v in self.report.victims)

    @property
    def min_margin(self) -> float:
        return min(self.report.margin(v) for v in self.report.victims)


@dataclass
class SweepReport:
    """Distribution-level results of one sweep."""

    grid: SweepGrid
    results: List[ScenarioResult]
    seconds: float = 0.0

    #: Quantile levels reported per family.
    QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)

    @property
    def num_scenarios(self) -> int:
        return len(self.results)

    def by_family(self) -> Dict[str, List[ScenarioResult]]:
        families: Dict[str, List[ScenarioResult]] = {}
        for result in self.results:
            families.setdefault(result.scenario.topology, []).append(result)
        return families

    def family_quantiles(self) -> Dict[str, Dict[str, List[float]]]:
        """Per-family quantiles of pooled per-victim peaks and margins."""
        out: Dict[str, Dict[str, List[float]]] = {}
        for family, results in self.by_family().items():
            peaks = np.concatenate([
                [v.effective_peak for v in r.report.victims]
                for r in results
            ])
            margins = np.concatenate([
                [r.report.margin(v) for v in r.report.victims]
                for r in results
            ])
            out[family] = {
                "peak_V": [
                    float(q) for q in np.quantile(peaks, self.QUANTILES)
                ],
                "margin_V": [
                    float(q) for q in np.quantile(margins, self.QUANTILES)
                ],
            }
        return out

    def escalation_histogram(self) -> Dict[str, List[float]]:
        """Scenario counts per escalation-rate bin."""
        ratios = [r.report.escalation_ratio for r in self.results]
        counts, _ = np.histogram(ratios, bins=np.asarray(ESCALATION_BINS))
        return {
            "bins": [float(b) for b in ESCALATION_BINS],
            "counts": [int(c) for c in counts],
        }

    def conservatism_ratios(self) -> np.ndarray:
        """Screen bound / simulated peak for every escalated victim."""
        ratios = [
            v.screen_peak / v.sim_peak
            for r in self.results
            for v in r.report.victims
            if v.escalated and v.sim_peak is not None and v.sim_peak > 0
        ]
        return np.asarray(ratios, dtype=float)

    def conservatism_histogram(self) -> Dict[str, List[float]]:
        """Escalated-victim counts per screen-conservatism bin."""
        ratios = self.conservatism_ratios()
        counts, _ = np.histogram(ratios, bins=np.asarray(CONSERVATISM_BINS))
        return {
            "bins": [float(b) for b in CONSERVATISM_BINS],
            "counts": [int(c) for c in counts],
        }

    def worst_offenders(self, k: int = 5) -> List[Dict[str, object]]:
        """The ``k`` victims with the smallest margin, family-wide."""
        offenders = [
            {
                "scenario": r.scenario.label,
                "wire": v.wire,
                "tier": "sim" if v.escalated else "screen",
                "peak_V": v.effective_peak,
                "margin_V": r.report.margin(v),
            }
            for r in self.results
            for v in r.report.victims
        ]
        offenders.sort(key=lambda o: (o["margin_V"], o["scenario"], o["wire"]))
        return offenders[:k]

    def failing_scenarios(self) -> List[ScenarioResult]:
        return [r for r in self.results if r.report.failing()]

    def to_table(self) -> str:
        header = (
            f"{'scenario':<28} {'victims':>7} {'esc':>5} {'worst mV':>9} "
            f"{'min margin mV':>14} {'fail':>5} {'sec':>7}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            lines.append(
                f"{r.scenario.label:<28} {r.report.num_victims:>7} "
                f"{r.report.num_escalated:>5} {r.worst_peak * 1e3:>9.3f} "
                f"{r.min_margin * 1e3:>14.3f} "
                f"{len(r.report.failing()):>5} {r.seconds:>7.2f}"
            )
        lines.append("")
        for family, quantiles in sorted(self.family_quantiles().items()):
            peaks = quantiles["peak_V"]
            margins = quantiles["margin_V"]
            lines.append(
                f"{family}: peak p50 {peaks[2] * 1e3:.3f} mV, "
                f"p90 {peaks[4] * 1e3:.3f} mV, max {peaks[5] * 1e3:.3f} mV; "
                f"margin min {margins[0] * 1e3:.3f} mV"
            )
        escalation = self.escalation_histogram()
        lines.append(
            "escalation-rate histogram: "
            + " ".join(str(c) for c in escalation["counts"])
        )
        conservatism = self.conservatism_histogram()
        lines.append(
            "screen-conservatism histogram: "
            + " ".join(str(c) for c in conservatism["counts"])
        )
        lines.append(
            f"-- {self.num_scenarios} scenarios, "
            f"{len(self.failing_scenarios())} failing, "
            f"{self.seconds:.2f} s total"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "num_scenarios": self.num_scenarios,
            "seconds": self.seconds,
            "scenarios": [
                {
                    "label": r.scenario.label,
                    "topology": r.scenario.topology,
                    "width": r.scenario.width,
                    "wire_width_m": r.scenario.wire_width,
                    "spacing_m": r.scenario.spacing,
                    "driver_ohm": r.scenario.driver,
                    "density": r.scenario.density,
                    "segments": r.scenario.segments,
                    "num_victims": r.report.num_victims,
                    "num_escalated": r.report.num_escalated,
                    "escalation_ratio": r.report.escalation_ratio,
                    "worst_peak_V": r.worst_peak,
                    "min_margin_V": r.min_margin,
                    "failing": [v.wire for v in r.report.failing()],
                    "seconds": r.seconds,
                }
                for r in self.results
            ],
            "family_quantiles": self.family_quantiles(),
            "quantile_levels": list(self.QUANTILES),
            "escalation_histogram": self.escalation_histogram(),
            "conservatism_histogram": self.conservatism_histogram(),
            "worst_offenders": self.worst_offenders(),
        }


def sweep_report_checksum(report: SweepReport) -> str:
    """Digest pinning every scenario's per-victim peaks and decisions.

    The :func:`~repro.noise.engine.scan_checksum` of the scenarios'
    reports in grid order, so a one-scenario sweep hashes like its scan.
    """
    return scan_checksum(*(r.report for r in report.results))


@dataclass
class _ScreenedGeometry:
    """One geometry's screen item: its scenarios, in grid order."""

    screened: List[ScreenedScenario]
    profile: StageProfile


def _screen_geometry(
    item: Tuple[GeometrySpec, Sequence[NoiseConfig]],
    model: ModelSpec,
    cache: Optional[PipelineCache],
) -> _ScreenedGeometry:
    """Extract one geometry through the cache, screen its scenarios."""
    geometry, configs = item
    start = time.perf_counter()
    with collect() as profile:
        parasitics = cached_extract(geometry.build(), cache=cache)
        extracted = time.perf_counter()
        screened = screen_scenarios(
            parasitics, model, configs, cache=cache, source=geometry
        )
    screened[0].seconds += extracted - start
    return _ScreenedGeometry(screened, profile)


def screen_grid(
    grid: SweepGrid,
    parallel: Optional[int] = None,
    cache: Optional[PipelineCache] = None,
) -> List[ScreenedScenario]:
    """Step 1 of :func:`run_sweep`: every scenario's screen, grid order.

    Scenarios group by :meth:`Scenario.geometry` in first-appearance
    order, one work item per geometry over the process pool.  The item
    builds and extracts its geometry once (through the cache when one
    is given) and screens all its scenarios on that one model with
    :func:`~repro.noise.engine.screen_scenarios`, which fingerprints
    the parasitics once for every scan key and computes the pair bounds
    once per distinct screen config.
    """
    scenarios = grid.scenarios()
    members: Dict[GeometrySpec, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        members.setdefault(scenario.geometry(), []).append(index)
    items = fan_out(
        functools.partial(_screen_geometry, model=grid.model, cache=cache),
        [
            (geometry, [scenarios[i].config(grid.base) for i in indices])
            for geometry, indices in members.items()
        ],
        parallel=parallel,
    )
    placed: Dict[int, ScreenedScenario] = {}
    for indices, item in zip(members.values(), items):
        placed.update(zip(indices, item.screened))
    return [placed[index] for index in range(len(scenarios))]


def _simulate_item(
    item: SimulateItem,
    cache: Optional[PipelineCache],
    policy: Optional[FallbackPolicy],
) -> EscalationTierResult:
    """One simulate item, on parasitics loaded from its geometry."""
    with collect() as profile:
        parasitics = cached_extract(item.source.build(), cache=cache)
        tier = escalate(parasitics, item, policy=policy, cache=cache)
    return replace(tier, profile=profile)


def run_sweep(
    grid: SweepGrid,
    parallel: Optional[int] = None,
    cache: Optional[PipelineCache] = None,
    policy: Optional[FallbackPolicy] = None,
) -> SweepReport:
    """Run a whole scenario family as one batched job.

    The noise plan of :mod:`repro.noise.engine` over the grid:

    1. **Screen** -- every geometry fans out over the process pool
       (:func:`screen_grid`): one build and extraction through the
       shared cache for all the scenarios that differ only in
       electrical knobs, one parasitics fingerprint for their scan
       keys, cached-scan short-circuit, then the closed-form screen
       tier, with one set of pair bounds per distinct screen config.
    2. **Simulate** -- escalated victims regroup by testbench circuit
       (same geometry, model, driver, supply, step): each group is one
       simulate item whose columns share a single model build, MNA
       assembly and LU factorization, and one march per
       :data:`~repro.noise.engine.MAX_COLUMNS_PER_SIM` driven sources.
       Each victim's waveform is superposed on its own scenario's
       horizon, so results match independent per-scenario scans.
    3. **Assemble** -- per-scenario reports merge screen bounds and
       simulated metrics, and are stored in the cache under the exact
       key :func:`~repro.noise.engine.run_noise_scan` uses -- a later
       independent scan of any grid point is a cache hit.

    Results always come back in grid order, so ``parallel=8`` is
    numerically identical to ``parallel=1``.
    """
    scenarios = grid.scenarios()
    start = time.perf_counter()
    with stage("noise_sweep"):
        screened = screen_grid(grid, parallel=parallel, cache=cache)
        add_counter(
            "noise_sweep_cache_hits",
            sum(1 for item in screened if item.report is not None),
        )
        items = plan_simulations(screened)
        add_counter("noise_sweep_sim_groups", len(items))
        add_counter(
            "noise_sweep_batched_columns",
            sum(len(item.columns) for item in items),
        )
        add_counter(
            "noise_sweep_sim_calls",
            sum(
                len(march.chunks())
                for item in items
                for march in plan_marches(item)
            ),
        )
        tiers = fan_out(
            functools.partial(_simulate_item, cache=cache, policy=policy),
            items,
            parallel=parallel,
        )
        reports = assemble_plan(screened, tiers, cache=cache)
    add_counter("noise_sweep_scenarios", len(scenarios))
    return SweepReport(
        grid=grid,
        results=[
            ScenarioResult(scenario, report, item.seconds)
            for scenario, item, report in zip(scenarios, screened, reports)
        ],
        seconds=time.perf_counter() - start,
    )

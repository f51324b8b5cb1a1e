"""The tiered screen-then-simulate static noise flow.

Every wire of a parasitic model is a victim and every other wire a
potential aggressor:

1. **Screen** -- closed-form pair bounds (:mod:`repro.noise.screening`)
   plus worst-case alignment within each victim's sensitive window
   (:mod:`repro.noise.worst_case`).  Victims whose aligned bound stays
   below the failure threshold are *screened out* -- they can never
   fail, by conservatism of the bound -- and cost nothing further.
2. **Simulate** -- each screened-in victim is one escalated column: its
   aligned aggressors launch at the alignment instant, every other
   wire holds quiet.  The linear testbench gives every victim's
   waveform as a sum of time-shifted unit-ramp responses of its
   aggressors (superposition), and those responses depend on the
   testbench circuit alone -- not on the schedule or the threshold.
   They are marched once per *driven source*, not per victim, with
   :func:`~repro.circuit.transient.transient_analysis_multi`.

The flow is written once, as a plan over scenarios shaped like the
hierarchical extractor's plan/execute split: :func:`screen_scenario` is
one scenario's screen item, :func:`plan_simulations` groups the
escalated columns of many scenarios into one :class:`SimulateItem` per
testbench circuit, :func:`plan_marches` turns an item into
:class:`MarchItem` work items that bring a :class:`ResponseEntry` up to
the item's needs, :func:`simulate_escalated` runs one march item,
:func:`superpose` builds the item's victims from the entry, and
:func:`assemble_plan` finishes every scenario's report.  Items are plain
picklable data, so a runner may execute them inline, over the process
pool, or on the service's workers:

- :func:`run_noise_scan` is the one-scenario plan, run inline;
- :func:`repro.noise.sweep.run_sweep` fans a scenario family's items
  out over the pipeline pool;
- both run each item against a throwaway entry (:func:`escalate`);
- :class:`repro.service.server.AnalysisService` keeps one retained
  entry per circuit, which later noise and sweep jobs extend instead of
  marching again (see :mod:`repro.service.responses`).

Scans run on any VPEC/wVPEC/PEEC model family via
:class:`~repro.experiments.runner.ModelSpec`, memoize whole reports in
the content-addressed pipeline cache under kind ``"noise"``, and raise
the :mod:`repro.health` taxonomy on numerical trouble.  A scan's
``verify=True`` additionally re-simulates every escalated victim
directly and records the relative peak deviation -- the cross-check
quoted in the acceptance gate.  The check shares the fixed-step march
with the escalation tier; it stays independent through its circuit (a
separately built model with the aggressor stimuli baked in at
construction, no quiet-driver overrides) and through direct simulation
of the aligned launches instead of superposed ramp responses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.results import array_checksum
from repro.circuit.sources import Stimulus, dc, step
from repro.circuit.transient import transient_analysis, transient_analysis_multi
from repro.circuit.waveform import Waveform
from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE, VDD
from repro.experiments.runner import ModelSpec, build_model, gw_spec
from repro.extraction.parasitics import Parasitics
from repro.health import FallbackPolicy
from repro.analysis.timing import arrival_times
from repro.noise.receiver import ReceiverModel
from repro.noise.screening import (
    REFERENCE_RISE_TIME,
    KappaEnvelope,
    ScreenConfig,
    screen_pairs,
)
from repro.noise.windows import (
    Window,
    WindowSet,
    sensitive_windows,
    staggered_schedule,
)
from repro.noise.worst_case import Alignment, align_all
from repro.peec.builder import (
    ElectricalSkeleton,
    attach_multi_aggressor_testbench,
)
from repro.pipeline.cache import (
    CACHE_VERSION,
    PipelineCache,
    parasitics_fingerprint,
)
from repro.pipeline.hashing import stable_hash
from repro.pipeline.profiling import StageProfile, add_counter, stage

#: Source-column cap per escalation march.  It bounds each march's
#: ``(size, columns)`` states and solves and its ``(samples, probes,
#: columns)`` responses.  It was measured when the march's source block
#: was still ``size`` rows tall (it now spans the source rows only): on
#: the 64-bit bus with every victim escalated (64 driven sources),
#: three capped marches took no longer than one uncapped march
#: (5.2-7.1 s against 6.0-7.0 s over three runs, 2-CPU host, one BLAS
#: thread) but peaked at 544 MB of resident memory instead of 825 MB.
MAX_COLUMNS_PER_SIM = 24


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of one noise scan."""

    vdd: float = VDD
    rise_time: float = REFERENCE_RISE_TIME
    #: Failure threshold as a fraction of ``vdd`` (the quarter-supply
    #: receiver criterion).
    threshold_fraction: float = 0.25
    #: Clock period bounding all switching windows.
    period: float = 3000e-12
    #: Width of each net's scheduled launch window.
    switch_width: float = 10e-12
    #: Seed of the default scattered switching schedule.
    schedule_seed: int = 2003
    driver_resistance: float = DRIVER_RESISTANCE
    load_capacitance: float = LOAD_CAPACITANCE
    #: Simulation step of the escalation tier.
    dt: float = 1e-12
    #: Simulated settle time after the latest aggressor launch.
    settle_time: float = 300e-12
    #: Screening-tier calibration knobs (see :class:`ScreenConfig`).
    headroom: float = 1.2
    safety: float = 1.1
    #: Nonlinear receiver model.  When set, its effective input
    #: threshold replaces ``threshold_fraction * vdd`` in every tier
    #: (see :mod:`repro.noise.receiver`).
    receiver: Optional[ReceiverModel] = None
    #: Inductive screening envelope override.  When set it replaces the
    #: built-in two-table calibration (see
    #: :func:`repro.noise.calibration.calibrate_family`).
    envelope: Optional[KappaEnvelope] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        if self.dt <= 0 or self.settle_time <= 0:
            raise ValueError("dt and settle_time must be positive")

    @property
    def threshold(self) -> float:
        """Absolute failure threshold, volts.

        The receiver model, when present, folds its VTC and output
        criterion into an effective input threshold; otherwise the
        fixed-fraction criterion applies.  Every tier resolves its
        threshold through this one property.
        """
        if self.receiver is not None:
            return self.receiver.input_threshold(self.vdd)
        return self.threshold_fraction * self.vdd

    @property
    def screen_config(self) -> ScreenConfig:
        return ScreenConfig(
            vdd=self.vdd,
            rise_time=self.rise_time,
            driver_resistance=self.driver_resistance,
            load_capacitance=self.load_capacitance,
            headroom=self.headroom,
            safety=self.safety,
            envelope=self.envelope,
        )


@dataclass(frozen=True)
class VictimScanResult:
    """One victim's outcome across both tiers."""

    wire: int
    screen_peak: float
    screen_area: float
    alignment_time: float
    aligned: Tuple[int, ...]
    feasible: Tuple[int, ...]
    noise_windows: WindowSet
    escalated: bool
    sim_peak: Optional[float] = None
    sim_area: Optional[float] = None
    verify_deviation: Optional[float] = None

    @property
    def effective_peak(self) -> float:
        """Best available peak: simulated when escalated, else the bound."""
        return self.sim_peak if self.sim_peak is not None else self.screen_peak

    @property
    def effective_area(self) -> float:
        return self.sim_area if self.sim_area is not None else self.screen_area


@dataclass
class NoiseScanReport:
    """Full result of a tiered noise scan."""

    spec_label: str
    config: NoiseConfig
    victims: List[VictimScanResult]
    switching: List[Window]
    build_seconds: float = 0.0
    screen_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def num_victims(self) -> int:
        return len(self.victims)

    @property
    def num_escalated(self) -> int:
        return sum(1 for v in self.victims if v.escalated)

    @property
    def escalation_ratio(self) -> float:
        return self.num_escalated / max(1, self.num_victims)

    @property
    def threshold(self) -> float:
        return self.config.threshold

    def margin(self, victim: VictimScanResult) -> float:
        """Failure margin, volts; negative means the victim fails."""
        return self.threshold - victim.effective_peak

    def failing(self) -> List[VictimScanResult]:
        return [v for v in self.victims if self.margin(v) < 0]

    def to_table(self) -> str:
        header = (
            f"{'victim':>6} {'tier':>6} {'peak mV':>9} {'margin mV':>10} "
            f"{'area fV.s':>10} {'aggressors':>10} {'t* ps':>8}  noise windows (ps)"
        )
        lines = [header, "-" * len(header)]
        for v in self.victims:
            t_star = "-" if np.isnan(v.alignment_time) else (
                f"{v.alignment_time * 1e12:.1f}"
            )
            windows = " ".join(
                f"[{w.start * 1e12:.0f},{w.end * 1e12:.0f}]"
                for w in v.noise_windows
            ) or "-"
            lines.append(
                f"{v.wire:>6} {('sim' if v.escalated else 'screen'):>6} "
                f"{v.effective_peak * 1e3:>9.3f} {self.margin(v) * 1e3:>10.3f} "
                f"{v.effective_area * 1e15:>10.3f} {len(v.aligned):>10} "
                f"{t_star:>8}  {windows}"
            )
        lines.append(
            f"-- {self.num_escalated}/{self.num_victims} escalated "
            f"(ratio {self.escalation_ratio:.2f}), threshold "
            f"{self.threshold * 1e3:.1f} mV, {len(self.failing())} failing"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec_label,
            "threshold_V": self.threshold,
            "escalation_ratio": self.escalation_ratio,
            "num_victims": self.num_victims,
            "num_escalated": self.num_escalated,
            "build_seconds": self.build_seconds,
            "screen_seconds": self.screen_seconds,
            "sim_seconds": self.sim_seconds,
            "victims": [
                {
                    "wire": v.wire,
                    "tier": "sim" if v.escalated else "screen",
                    "peak_V": v.effective_peak,
                    "area_Vs": v.effective_area,
                    "margin_V": self.margin(v),
                    "aligned": list(v.aligned),
                    "alignment_time_s": None
                    if np.isnan(v.alignment_time)
                    else v.alignment_time,
                    "noise_windows_s": [
                        [w.start, w.end] for w in v.noise_windows
                    ],
                    "verify_deviation": v.verify_deviation,
                }
                for v in self.victims
            ],
        }


def attach_quiet_bus_testbench(
    skeleton: ElectricalSkeleton,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> None:
    """All-quiet bus testbench with one *named* source per wire.

    Unlike :func:`attach_multi_aggressor_testbench`, every wire --
    including quiet ones -- gets a ``Vdrv{wire}`` source (holding 0 V)
    behind ``Rd``, so a ``transient_analysis_multi`` scenario can turn
    any subset of drivers into aggressors by overriding their stimuli.
    """
    for wire, ports in skeleton.ports.items():
        source_node = f"drv{wire}"
        skeleton.circuit.add_voltage_source(
            source_node, "0", dc(0.0), name=f"Vdrv{wire}"
        )
        skeleton.circuit.add_resistor(
            source_node, ports.near, driver_resistance, name=f"Rd{wire}"
        )
        if load_capacitance > 0:
            skeleton.circuit.add_capacitor(
                ports.far, "0", load_capacitance, name=f"CL{wire}"
            )


def _launch_time(t_star: float, window: Window) -> float:
    """Alignment instant clamped into the aggressor's launch window."""
    return min(max(t_star, window.start), window.end)


def _masked_metrics(
    waveform: Waveform, sensitive: WindowSet
) -> Tuple[float, float]:
    """(peak, area) of ``|v|`` restricted to the sensitive windows."""
    mask = np.zeros(waveform.t.shape, dtype=bool)
    for window in sensitive:
        mask |= (waveform.t >= window.start) & (waveform.t <= window.end)
    if not mask.any():
        return 0.0, 0.0
    magnitude = np.abs(np.real(waveform.v))
    peak = float(magnitude[mask].max())
    area = float(np.trapezoid(np.where(mask, magnitude, 0.0), waveform.t))
    return peak, area


@dataclass(frozen=True)
class ScreenTierResult:
    """Output of the closed-form screening tier.

    ``alignments`` holds every victim's worst-case alignment,
    ``escalated`` the subset whose aligned bound meets the threshold
    (the victims the simulation tier must resolve), ``sensitive`` each
    wire's sensitive :class:`WindowSet`.  The whole object is picklable,
    so a worker can run the screen in one process and the planner can
    ship its escalated columns to simulate items in others.
    """

    alignments: Tuple[Alignment, ...]
    escalated: Tuple[Alignment, ...]
    sensitive: Tuple[WindowSet, ...]
    seconds: float


@dataclass(frozen=True)
class EscalationTierResult:
    """Output of one simulate item.

    ``metrics`` maps ``(owner, victim)`` -- the owning scenario's index
    in the plan and the victim wire -- to (peak, area) over the victim's
    sensitive windows.  Each column's waveform is superposed from its
    aggressors' unit-ramp responses on the fixed ``k * dt`` grid, on
    exactly its owner's ``ceil(horizon / dt) + 1`` samples, so results
    of items simulated separately merge by dict union.  The seconds are
    those of the marches run for the item (zero when a retained entry
    already held every response).
    """

    metrics: Dict[Tuple[int, int], Tuple[float, float]]
    build_seconds: float
    sim_seconds: float
    profile: Optional[StageProfile] = None


def screen_tier(
    parasitics: Parasitics,
    config: NoiseConfig,
    switching: Sequence[Window],
) -> ScreenTierResult:
    """Tier 1: closed-form pair bounds + worst-case alignment.

    Pads each launch window by the wire's Elmore delay plus slew,
    intersects into sensitive windows, screens every aggressor/victim
    pair, and aligns.  Victims whose aligned bound stays below
    ``config.threshold`` are conservatively safe and never simulated.
    """
    start = time.perf_counter()
    arrivals = arrival_times(
        parasitics, config.driver_resistance, config.load_capacitance
    )
    pad = arrivals.delays + arrivals.slews
    padded = [
        Window(w.start, w.end + float(pad[i]))
        for i, w in enumerate(switching)
    ]
    sensitive = sensitive_windows(padded, config.period)
    estimates = screen_pairs(parasitics, config.screen_config)
    alignments = align_all(
        estimates.peak, estimates.area, padded, sensitive, config.threshold
    )
    escalated = tuple(a for a in alignments if a.peak >= config.threshold)
    add_counter("noise_victims_screened_out", len(alignments) - len(escalated))
    add_counter("noise_victims_escalated", len(escalated))
    return ScreenTierResult(
        alignments=tuple(alignments),
        escalated=escalated,
        sensitive=tuple(sensitive),
        seconds=time.perf_counter() - start,
    )


def escalation_horizon(
    escalated: Sequence[Alignment],
    config: NoiseConfig,
    switching: Sequence[Window],
) -> float:
    """A scenario's simulation end time: its latest aligned launch plus
    rise and settle time.

    Computed once over the scenario's *whole* escalated set: every
    column of the scenario is built on this horizon's samples, whichever
    simulate item integrated it, so its masked metrics never depend on
    how the plan split the work.
    """
    launches = [
        max(_launch_time(a.time, switching[agg]) for agg in a.aggressors)
        for a in escalated
    ]
    return max(launches) + config.rise_time + config.settle_time


@dataclass
class ScreenedScenario:
    """One planned scenario after its screen item.

    Picklable, so screens run in any process and the planner regroups
    the outcomes.  ``source`` is the runner's hashable handle to the
    scenario's parasitics -- whatever its simulate items need to load
    them again: a geometry spec in a sweep, a shared-memory segment name
    in the service, ``None`` when the caller holds them.  ``report`` is
    set when the pipeline cache already held the finished scan, and
    ``key`` is the scan's cache key when a cache was given.
    """

    source: Any
    spec: ModelSpec
    config: NoiseConfig
    switching: List[Window]
    key: Optional[str] = None
    report: Optional[NoiseScanReport] = None
    screen: Optional[ScreenTierResult] = None
    #: The scenario's own :func:`escalation_horizon` -- the exact
    #: ``t_stop`` an independent scan would integrate to.
    horizon: float = 0.0
    #: Wall time of the screen item.
    seconds: float = 0.0
    #: Counters and stage times of a screen item run in another process.
    profile: Optional[StageProfile] = None

    @property
    def circuit(self) -> Tuple:
        """Scenarios sharing this key share one testbench circuit.

        The circuit is fixed by the parasitics, the model spec and the
        electrical knobs below; such scenarios differ only in their
        stimuli, so their escalated victims merge into one simulate item
        and share its source columns.
        """
        return _circuit_key(self.source, self.spec, self.config)


def _circuit_key(source: Any, spec: ModelSpec, config: NoiseConfig) -> Tuple:
    return (
        source,
        spec,
        config.driver_resistance,
        config.load_capacitance,
        config.dt,
        config.vdd,
        config.rise_time,
    )


@dataclass(frozen=True)
class EscalatedColumn:
    """One escalated victim of a simulate item."""

    #: Index of the owning scenario in the plan.
    owner: int
    victim: int
    #: ``(aggressor wire, launch instant)`` of every aligned aggressor.
    launches: Tuple[Tuple[int, float], ...]
    sensitive: WindowSet
    #: The owner's escalation horizon.
    horizon: float


@dataclass(frozen=True)
class SimulateItem:
    """The escalated columns of one testbench circuit.

    ``config`` carries the circuit's electrical knobs (equal across the
    owners, see :attr:`ScreenedScenario.circuit`).  Columns are sorted by
    horizon.  ``wires`` counts the circuit's wires, every one a possible
    source and probe of a complete :class:`ResponseEntry`.
    """

    source: Any
    spec: ModelSpec
    config: NoiseConfig
    columns: Tuple[EscalatedColumn, ...]
    wires: Optional[int] = None

    @property
    def circuit(self) -> Tuple:
        """The testbench key (see :attr:`ScreenedScenario.circuit`)."""
        return _circuit_key(self.source, self.spec, self.config)

    def reach(self) -> Dict[int, int]:
        """The last response sample each driven source must reach.

        A launch at ``(m + f) * dt`` on a column of ``ceil(horizon /
        dt) + 1`` samples reads its source's responses up to sample
        ``ceil(horizon / dt) - m``.
        """
        dt = self.config.dt
        reach: Dict[int, int] = {}
        for column in self.columns:
            count = int(np.ceil(column.horizon / dt))
            for agg, delay in column.launches:
                whole, _ = _grid_offset(delay, dt)
                reach[agg] = max(reach.get(agg, 0), count - whole)
        return reach


@dataclass(frozen=True)
class MarchItem:
    """One march work item: unit responses of some sources of a circuit.

    Every source of ``sources`` is driven by its own unit-ramp column
    (plus a unit-step column when ``rise / dt`` is fractional, see
    :func:`_ramp_knot`) and probed at the far end of every ``probes``
    wire, from sample ``start`` to at least its ``reach``.  A march with
    ``start > 0`` resumes stored columns: ``states`` holds each
    source's ``(size, bases)`` solution at sample ``start``.
    """

    source: Any
    spec: ModelSpec
    config: NoiseConfig
    sources: Tuple[int, ...]
    reach: Tuple[int, ...]
    probes: Tuple[int, ...]
    start: int = 0
    states: Optional[Tuple[np.ndarray, ...]] = None

    def chunks(self) -> List[Tuple[int, ...]]:
        """The sources in runs of at most :data:`MAX_COLUMNS_PER_SIM`,
        one :func:`transient_analysis_multi` call each."""
        return [
            tuple(self.sources[lo: lo + MAX_COLUMNS_PER_SIM])
            for lo in range(0, len(self.sources), MAX_COLUMNS_PER_SIM)
        ]


@dataclass(frozen=True)
class ResponseSegment:
    """One march's unit responses over a run of samples.

    ``values[b, j, p]`` is source ``sources[j]``'s response to basis
    ``b`` (0: the unit ramp, 1: the unit step) at the far end of wire
    ``probes[p]``, samples ``start ...``; ``states[j]`` is that source's
    ``(size, bases)`` solution at the last sample, where a later march
    resumes it.
    """

    sources: Tuple[int, ...]
    probes: Tuple[int, ...]
    start: int
    values: np.ndarray
    states: np.ndarray

    @property
    def stop(self) -> int:
        """The last sample held."""
        return self.start + self.values.shape[-1] - 1

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.states.nbytes)


@dataclass(frozen=True)
class MarchResult:
    """Output of one march item: one segment per march chunk."""

    segments: Tuple[ResponseSegment, ...]
    build_seconds: float
    sim_seconds: float


class ResponseEntry:
    """Unit responses of one testbench circuit, kept as march segments.

    Segments are held as the marches returned them and never joined
    into one array; :meth:`response` stitches the few samples one
    superposed launch reads.  A source's segments must arrive in sample
    order, each starting right after the last one's stop.
    """

    def __init__(self) -> None:
        #: source -> [(segment, column of the source in it)], in order.
        self._pieces: Dict[int, List[Tuple[ResponseSegment, int]]] = {}
        self.nbytes = 0

    def add(self, segments: Sequence[ResponseSegment]) -> None:
        for segment in segments:
            for source in segment.sources:
                if segment.start != self.reach(source) + 1:
                    raise ValueError(
                        f"source {source}'s segment starts at sample "
                        f"{segment.start}, after {self.reach(source)}"
                    )
            for column, source in enumerate(segment.sources):
                self._pieces.setdefault(source, []).append((segment, column))
            self.nbytes += segment.nbytes

    def reach(self, source: int) -> int:
        """The last sample held for ``source`` (-1: none)."""
        pieces = self._pieces.get(source)
        return pieces[-1][0].stop if pieces else -1

    def state(self, source: int) -> np.ndarray:
        """``source``'s ``(size, bases)`` solution at its reach."""
        segment, column = self._pieces[source][-1]
        return segment.states[column]

    def response(
        self, source: int, basis: int, probe: int, samples: int
    ) -> np.ndarray:
        """The first ``samples`` samples of ``source``'s response to
        ``basis`` at the far end of wire ``probe``."""
        parts = []
        held = 0
        for segment, column in self._pieces[source]:
            if held >= samples:
                break
            row = segment.values[basis, column, segment.probes.index(probe)]
            parts.append(row[: samples - held])
            held += len(parts[-1])
        if held < samples:
            raise ValueError(
                f"source {source} holds {held} samples, {samples} needed"
            )
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def screen_scenario(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: Optional[Sequence[Window]] = None,
    cache: Optional[PipelineCache] = None,
    verify: bool = False,
    source: Any = None,
) -> ScreenedScenario:
    """The screen item of one planned scenario.

    ``switching`` gives each wire's driver *launch* window; by default
    the seeded scattered schedule of :func:`staggered_schedule`.  No
    window may start before ``t = 0`` (``ValueError`` naming the wire).
    With a cache, a stored report under the scan's key short-circuits
    the scenario; otherwise the screen tier runs and fixes the
    scenario's own escalation horizon.
    """
    start = time.perf_counter()
    num_wires = parasitics.system.num_wires
    if switching is None:
        switching = staggered_schedule(
            num_wires,
            config.period,
            config.switch_width,
            seed=config.schedule_seed,
        )
    switching = list(switching)
    if len(switching) != num_wires:
        raise ValueError(
            f"switching must have one window per wire ({num_wires}), "
            f"got {len(switching)}"
        )
    for wire, window in enumerate(switching):
        if window.start < 0:
            # The escalation tier superposes responses from the
            # all-quiet 0 V start, which a launch before t = 0 breaks.
            raise ValueError(
                f"wire {wire}'s switching window starts at "
                f"{window.start:.6g} s, before t = 0"
            )
    screened = ScreenedScenario(source, spec, config, switching)
    if cache is not None:
        screened.key = noise_scan_key(
            parasitics, spec, config, switching, verify
        )
        screened.report = cache.get("noise", screened.key)
    if screened.report is None:
        screened.screen = screen_tier(parasitics, config, switching)
        if screened.screen.escalated:
            screened.horizon = escalation_horizon(
                screened.screen.escalated, config, switching
            )
    screened.seconds = time.perf_counter() - start
    return screened


def plan_simulations(
    screened: Sequence[ScreenedScenario],
) -> List[SimulateItem]:
    """Group the escalated columns of a plan into simulate items.

    Columns group by testbench circuit in first-appearance order, one
    item each, and sort by ``(horizon, owner, victim)``, so the plan is
    deterministic.  Scenarios answered from the cache or fully screened
    out contribute no columns.
    """
    groups: Dict[Tuple, List[EscalatedColumn]] = {}
    firsts: Dict[Tuple, ScreenedScenario] = {}
    for owner, scenario in enumerate(screened):
        if scenario.screen is None or not scenario.screen.escalated:
            continue
        circuit = scenario.circuit
        firsts.setdefault(circuit, scenario)
        columns = groups.setdefault(circuit, [])
        for a in scenario.screen.escalated:
            columns.append(
                EscalatedColumn(
                    owner=owner,
                    victim=a.victim,
                    launches=tuple(
                        (agg, _launch_time(a.time, scenario.switching[agg]))
                        for agg in a.aggressors
                    ),
                    sensitive=scenario.screen.sensitive[a.victim],
                    horizon=scenario.horizon,
                )
            )
    items: List[SimulateItem] = []
    for circuit, columns in groups.items():
        columns.sort(key=lambda c: (c.horizon, c.owner, c.victim))
        first = firsts[circuit]
        items.append(
            SimulateItem(
                source=first.source,
                spec=first.spec,
                config=first.config,
                columns=tuple(columns),
                wires=len(first.switching),
            )
        )
    return items


def _bases(config: NoiseConfig) -> List[Stimulus]:
    """The unit drives every source is marched under (see
    :func:`_ramp_knot`): the ramp, and the step when ``rise / dt`` is
    fractional."""
    bases = [step(1.0, rise_time=config.rise_time)]
    if _ramp_knot(config.rise_time / config.dt) is not None:
        bases.append(step(1.0, rise_time=config.dt))
    return bases


def complete_bytes(item: SimulateItem, reach: int) -> int:
    """Bytes of a complete entry of ``item``'s circuit held to ``reach``:
    every wire a source and a probe, one column per basis."""
    assert item.wires is not None
    return len(_bases(item.config)) * item.wires**2 * (reach + 1) * 8


def complete_reach(item: SimulateItem) -> int:
    """The reach a complete entry of ``item``'s circuit is extended to.

    The longest reach the item needs, and at least the longest any
    schedule inside its clock period can need: launches lie in ``[0,
    period]``, so no column reads past ``ceil((period + rise + settle)
    / dt)`` samples.  Extended that far, an entry serves every later job
    under that clock whatever its horizon.
    """
    config = item.config
    span = config.period + config.rise_time + config.settle_time
    return max(max(item.reach().values()), int(np.ceil(span / config.dt)))


def plan_marches(
    item: SimulateItem,
    shards: int = 1,
    entry: Optional[ResponseEntry] = None,
) -> List[MarchItem]:
    """March items that give ``item`` every response it reads.

    Without ``entry`` -- a throwaway entry -- only the item's driven
    sources march, each chunk to its own sources' reach, probed at the
    item's victims.  With ``entry`` -- a *complete* entry, retained
    across jobs -- every wire is a source and a probe.  An empty entry
    marches every column from sample 0 to the longest reach the item
    needs; an entry that falls short of it resumes every column from
    its stored state out to :func:`complete_reach`, so under one clock
    an entry is extended at most once, whatever order the jobs come in;
    an entry that already reaches far enough needs no march.  The
    sources split ``shards`` ways (fewer when there are fewer sources),
    each item marching its share in :meth:`MarchItem.chunks`.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    needed = item.reach()
    start = 0
    states = None
    if entry is None:
        sources = sorted(needed)
        reach = [needed[agg] for agg in sources]
        probes = tuple(sorted({column.victim for column in item.columns}))
    else:
        assert item.wires is not None
        sources = list(range(item.wires))
        held = min(entry.reach(wire) for wire in sources)
        longest = max(needed.values())
        if held >= longest:
            return []
        probes = tuple(sources)
        if held >= 0:
            longest = complete_reach(item)
            start = held
            states = [entry.state(wire) for wire in sources]
        reach = [longest] * len(sources)
    marches: List[MarchItem] = []
    for part in np.array_split(
        np.arange(len(sources)), min(shards, len(sources))
    ):
        marches.append(
            MarchItem(
                source=item.source,
                spec=item.spec,
                config=item.config,
                sources=tuple(sources[i] for i in part),
                reach=tuple(reach[i] for i in part),
                probes=probes,
                start=start,
                states=None
                if states is None
                else tuple(states[i] for i in part),
            )
        )
    return marches


def _grid_offset(delay: float, dt: float) -> Tuple[int, float]:
    """``(m, f)``: ``delay = (m + f) * dt``, ``m`` whole, ``0 <= f < 1``."""
    position = delay / dt
    whole = int(np.floor(position))
    return whole, position - whole


def _ramp_knot(ratio: float) -> Optional[int]:
    """The one sample after a launch that the two-sample ramp blend misses.

    A clipped ramp launched at ``(m + f) * dt`` samples to the blend
    ``(1 - f) r[k - m] + f r[k - m - 1]`` of the unit ramp ``r`` launched
    at 0, wherever no kink of the ramp falls strictly between two grid
    points.  Its start kink sits on the grid; its end kink, ``ratio =
    rise / dt`` samples in, does too unless that ratio is fractional --
    then the blend is wrong at sample ``m + ceil(ratio)`` only.  Returns
    that offset ``ceil(ratio)``, or ``None`` when the ratio is whole.
    """
    if abs(ratio - round(ratio)) <= 1e-9 * ratio:
        return None
    return int(np.ceil(ratio))


def _ramp_residual(knot: int, fraction: float, ratio: float) -> float:
    """Unit-ramp sample minus its two-sample blend at ``knot`` samples
    after the launch's grid point (see :func:`_ramp_knot`)."""

    def ramp(samples: float) -> float:
        return min(max(samples / ratio, 0.0), 1.0)

    blend = (1.0 - fraction) * ramp(knot) + fraction * ramp(knot - 1)
    return ramp(knot - fraction) - blend


def simulate_escalated(
    parasitics: Parasitics,
    march: MarchItem,
    policy: Optional[FallbackPolicy] = None,
    cache: Optional[PipelineCache] = None,
) -> MarchResult:
    """Tier 2's march: run one march item on one model build.

    The testbench is linear, starts all-quiet at 0 V, and every drive is
    the same clipped ramp, so a victim's waveform is a sum of
    time-shifted responses to one unit ramp per driven source.  Each
    chunk of sources (:meth:`MarchItem.chunks`) is one
    :func:`~repro.circuit.transient.transient_analysis_multi` call with
    one unit-ramp column per source launched at ``t = 0`` (and one
    unit-step column per source when ``rise / dt`` is fractional),
    integrated only as far as the latest reach of its sources needs and,
    for a resumed item, from its stored states.  A resumed chunk's
    segment starts one sample after ``start``: the march's first sample
    repeats the stored last one.
    """
    config = march.config
    dt = config.dt
    built = build_model(march.spec, parasitics, cache=cache)
    attach_quiet_bus_testbench(
        built.skeleton, config.driver_resistance, config.load_capacitance
    )
    probes = [built.skeleton.ports[wire].far for wire in march.probes]
    bases = _bases(config)
    reach = dict(zip(march.sources, march.reach))
    states = dict(zip(march.sources, march.states or ()))
    skip = 1 if march.start else 0
    segments: List[ResponseSegment] = []
    sim_seconds = 0.0
    for sources in march.chunks():
        scenarios = [
            {f"Vdrv{agg}": basis} for basis in bases for agg in sources
        ]
        x0 = None
        if states:
            x0 = np.column_stack(
                [
                    states[agg][:, b]
                    for b in range(len(bases))
                    for agg in sources
                ]
            )
        sim_start = time.perf_counter()
        with stage("noise_escalation"):
            results = transient_analysis_multi(
                built.circuit,
                max(reach[agg] for agg in sources) * dt,
                dt,
                scenarios,
                probe_nodes=probes,
                policy=policy,
                x0=x0,
                start=march.start,
            )
        sim_seconds += time.perf_counter() - sim_start
        # Result k is basis k // len(sources) of source k % len(sources).
        values = np.array(
            [[r.node_voltages[node][skip:] for node in probes] for r in results]
        )
        final = np.stack([r.state for r in results])
        segments.append(
            ResponseSegment(
                sources=sources,
                probes=march.probes,
                start=march.start + skip,
                values=values.reshape(
                    (len(bases), len(sources)) + values.shape[1:]
                ),
                states=final.reshape(len(bases), len(sources), -1).transpose(
                    1, 2, 0
                ),
            )
        )
    return MarchResult(
        segments=tuple(segments),
        build_seconds=built.build_seconds,
        sim_seconds=sim_seconds,
    )


def superpose(
    item: SimulateItem, responses: ResponseEntry
) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """Every column of ``item`` as a sum of its aggressors' responses.

    Each column's waveform is built on its owner's own ``ceil(horizon /
    dt) + 1`` samples: an aggressor launched at ``(m + f) * dt`` adds
    ``vdd * ((1 - f) y[k - m] + f y[k - m - 1])`` of its unit-ramp
    response ``y``.  When ``rise / dt`` is fractional that blend misses
    one sample per launch (:func:`_ramp_knot`), which the unit-step
    response supplies as an impulse response.  Returns ``(owner,
    victim) -> (peak, area)`` over each victim's sensitive windows.
    """
    config = item.config
    dt = config.dt
    ratio = config.rise_time / dt
    knot = _ramp_knot(ratio)
    metrics: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for column in item.columns:
        count = int(np.ceil(column.horizon / dt))
        v = np.zeros(count + 1)
        for agg, delay in column.launches:
            whole, fraction = _grid_offset(delay, dt)
            span = count + 1 - whole
            y = responses.response(agg, 0, column.victim, span)
            before = np.concatenate(([0.0], y[: span - 1]))
            v[whole:] += config.vdd * (
                (1.0 - fraction) * y + fraction * before
            )
            if knot is not None and whole + knot <= count:
                z = responses.response(agg, 1, column.victim, span)
                span -= knot
                v[whole + knot:] += (
                    config.vdd
                    * _ramp_residual(knot, fraction, ratio)
                    * (z[1: span + 1] - z[:span])
                )
        waveform = Waveform(t=np.arange(count + 1) * dt, v=v)
        metrics[(column.owner, column.victim)] = _masked_metrics(
            waveform, column.sensitive
        )
    return metrics


def escalate(
    parasitics: Parasitics,
    item: SimulateItem,
    policy: Optional[FallbackPolicy] = None,
    cache: Optional[PipelineCache] = None,
) -> EscalationTierResult:
    """Tier 2 for one simulate item, against a throwaway entry.

    Marches only the item's driven sources, probed at its victims
    (:func:`plan_marches` without an entry), then superposes.  The
    one-shot runners call this; the service keeps retained entries.
    """
    responses = ResponseEntry()
    build_seconds = sim_seconds = 0.0
    for march in plan_marches(item):
        result = simulate_escalated(parasitics, march, policy, cache)
        responses.add(result.segments)
        build_seconds += result.build_seconds
        sim_seconds += result.sim_seconds
    return EscalationTierResult(
        metrics=superpose(item, responses),
        build_seconds=build_seconds,
        sim_seconds=sim_seconds,
    )


def assemble_report(
    spec: ModelSpec,
    config: NoiseConfig,
    switching: Sequence[Window],
    screen: ScreenTierResult,
    metrics: Dict[int, Tuple[float, float]],
    build_seconds: float = 0.0,
    sim_seconds: float = 0.0,
) -> NoiseScanReport:
    """Merge screen-tier alignments and simulated metrics into a report.

    ``metrics`` must cover exactly the escalated victims (the union of
    all simulate items); screened-out victims keep their closed-form
    bounds.
    """
    victims: Dict[int, VictimScanResult] = {
        a.victim: VictimScanResult(
            wire=a.victim,
            screen_peak=a.peak,
            screen_area=a.area,
            alignment_time=a.time,
            aligned=a.aggressors,
            feasible=a.feasible,
            noise_windows=a.noise_windows,
            escalated=False,
        )
        for a in screen.alignments
    }
    for a in screen.escalated:
        peak, area = metrics[a.victim]
        victims[a.victim] = replace(
            victims[a.victim], escalated=True, sim_peak=peak, sim_area=area
        )
    return NoiseScanReport(
        spec_label=spec.label,
        config=config,
        victims=[victims[i] for i in sorted(victims)],
        switching=list(switching),
        build_seconds=build_seconds,
        screen_seconds=screen.seconds,
        sim_seconds=sim_seconds,
    )


def noise_scan_key(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: Sequence[Window],
    verify: bool,
) -> str:
    """Content-addressed cache key of one scan."""
    return stable_hash(
        "noise",
        CACHE_VERSION,
        parasitics_fingerprint(parasitics),
        spec,
        config,
        tuple((w.start, w.end) for w in switching),
        verify,
    )


def assemble_plan(
    screened: Sequence[ScreenedScenario],
    tiers: Sequence[EscalationTierResult],
    cache: Optional[PipelineCache] = None,
) -> List[NoiseScanReport]:
    """Finish every scenario of a plan, in plan order.

    Merges each scenario's screen bounds with its columns' metrics from
    ``tiers`` (the results of the plan's simulate items, in any order)
    and stores the report under the scenario's scan key -- the key
    :func:`run_noise_scan` looks up, so a later scan of the same
    scenario is a cache hit.  A scenario's build and simulation seconds
    sum over the items that simulated any of its columns.
    """
    metrics: List[Dict[int, Tuple[float, float]]] = [{} for _ in screened]
    build_seconds = [0.0] * len(screened)
    sim_seconds = [0.0] * len(screened)
    for tier in tiers:
        for owner in {owner for owner, _ in tier.metrics}:
            build_seconds[owner] += tier.build_seconds
            sim_seconds[owner] += tier.sim_seconds
        for (owner, victim), values in tier.metrics.items():
            metrics[owner][victim] = values
    reports: List[NoiseScanReport] = []
    for owner, scenario in enumerate(screened):
        report = scenario.report
        if report is None:
            assert scenario.screen is not None
            report = assemble_report(
                scenario.spec,
                scenario.config,
                scenario.switching,
                scenario.screen,
                metrics[owner],
                build_seconds[owner],
                sim_seconds[owner],
            )
            if cache is not None and scenario.key is not None:
                cache.put("noise", scenario.key, report)
        reports.append(report)
    return reports


def scan_checksum(*reports: NoiseScanReport) -> str:
    """Digest of per-victim effective peaks and escalation decisions.

    Concatenates the reports in order, so one report gives a scan's
    checksum and a sweep's scenarios in grid order give the sweep's.
    """
    victims = [v for report in reports for v in report.victims]
    peaks = np.array([v.effective_peak for v in victims])
    escalated = np.array([float(v.escalated) for v in victims])
    return array_checksum(peaks, escalated)


def run_noise_scan(
    parasitics: Parasitics,
    spec: Optional[ModelSpec] = None,
    config: NoiseConfig = NoiseConfig(),
    switching: Optional[Sequence[Window]] = None,
    cache: Optional[PipelineCache] = None,
    policy: Optional[FallbackPolicy] = None,
    verify: bool = False,
) -> NoiseScanReport:
    """Scan every victim of a parasitic model under timing windows.

    The one-scenario plan, run inline.  ``switching`` gives each wire's
    driver *launch* window; by default the seeded scattered schedule of
    :func:`staggered_schedule`.  The feasibility/alignment algebra
    widens each launch window by the wire's Elmore delay plus slew (the
    output keeps transitioning after the input settles); the simulated
    realization launches each aligned aggressor at the alignment instant
    clamped into its own launch window.
    """
    parasitics.validate()
    spec = spec if spec is not None else gw_spec(8)
    screened = screen_scenario(
        parasitics, spec, config, switching, cache=cache, verify=verify
    )
    if screened.report is not None:
        return screened.report
    tiers = [
        escalate(parasitics, item, policy=policy, cache=cache)
        for item in plan_simulations([screened])
    ]
    [report] = assemble_plan([screened], tiers)
    assert screened.screen is not None
    if verify and screened.screen.escalated:
        by_victim = {v.wire: i for i, v in enumerate(report.victims)}
        for a in screened.screen.escalated:
            index = by_victim[a.victim]
            deviation = _verify_victim(
                parasitics, spec, config, screened.switching,
                screened.screen.sensitive[a.victim],
                a, report.victims[index].sim_peak or 0.0, screened.horizon,
                policy, cache,
            )
            report.victims[index] = replace(
                report.victims[index], verify_deviation=deviation
            )
    if cache is not None and screened.key is not None:
        cache.put("noise", screened.key, report)
    return report


def _verify_victim(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: List[Window],
    sensitive: WindowSet,
    alignment: Alignment,
    batched_peak: float,
    t_stop: float,
    policy: Optional[FallbackPolicy],
    cache: Optional[PipelineCache] = None,
) -> float:
    """Relative peak deviation of an independent direct simulation.

    Builds a *fresh* model with the aggressor stimuli baked into a
    :func:`attach_multi_aggressor_testbench` (quiet wires have no
    source at all there, so nothing is overridden) and simulates the
    aligned launches directly with :func:`transient_analysis`.  The
    march is the escalation tier's own; the independence is in the
    circuit and in skipping superposition of ramp responses.
    """
    built = build_model(spec, parasitics, cache=cache)
    drives: Dict[int, Stimulus] = {
        agg: step(
            config.vdd,
            rise_time=config.rise_time,
            delay=_launch_time(alignment.time, switching[agg]),
        )
        for agg in alignment.aggressors
    }
    attach_multi_aggressor_testbench(
        built.skeleton,
        drives,
        config.driver_resistance,
        config.load_capacitance,
    )
    # Same horizon as the batched run, so the masked metrics see
    # identical sample sets.
    probe = built.skeleton.ports[alignment.victim].far
    result = transient_analysis(
        built.circuit,
        t_stop,
        config.dt,
        probe_nodes=[probe],
        policy=policy,
    )
    peak, _ = _masked_metrics(result.voltage(probe), sensitive)
    scale = max(abs(peak), 1e-30)
    return abs(batched_peak - peak) / scale

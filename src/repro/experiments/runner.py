"""Shared build / simulate plumbing for the experiment drivers.

A :class:`ModelSpec` names one of the paper's model families with its
sparsification parameters; :func:`build_model` turns a spec plus
extracted parasitics into a circuit (timing the model-building step);
the ``run_*`` helpers attach the paper's standard testbenches, simulate,
and return waveforms keyed by observation point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.circuit.ac import ac_analysis
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus
from repro.circuit.spice_writer import netlist_size_bytes
from repro.circuit.transient import transient_analysis
from repro.circuit.waveform import Waveform
from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE
from repro.extraction.parasitics import Parasitics
from repro.peec.builder import (
    ElectricalSkeleton,
    attach_bus_testbench,
    attach_two_port_testbench,
)
from repro.peec.model import build_peec
from repro.pipeline.cache import (
    CACHE_VERSION,
    PipelineCache,
    parasitics_fingerprint,
)
from repro.pipeline.hashing import stable_hash
from repro.vpec.flow import (
    VpecBuildResult,
    full_vpec,
    localized_vpec,
    truncated_vpec,
    windowed_vpec,
)

_KINDS = ("peec", "full", "localized", "gt", "nt", "gw", "nw")


@dataclass(frozen=True)
class ModelSpec:
    """One of the paper's model families plus its parameters.

    ``kind`` is one of ``peec`` (the baseline), ``full`` (full VPEC),
    ``localized`` (the [15] baseline), ``gt``/``nt`` (geometric /
    numerical truncation), ``gw``/``nw`` (geometric / numerical
    windowing).

    ``solver`` has one value, ``"direct"``: every window solve runs the
    batched LAPACK path of :func:`repro.vpec.windowing.windowed_inverse`.
    The field stays because :func:`model_key` and
    :meth:`repro.service.jobs.JobRequest.key` hash every spec field by
    name, so dropping it would move every model and request key; it
    goes when the service's request digests are next re-recorded.
    """

    kind: str
    nw: int = 0
    nl: int = 0
    window: int = 0
    threshold: float = 0.0
    solver: str = "direct"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "gt" and (self.nw < 1 or self.nl < 1):
            raise ValueError("gt needs nw >= 1 and nl >= 1")
        if self.kind == "gw" and self.window < 1:
            raise ValueError("gw needs window >= 1")
        if self.kind in ("nt", "nw") and self.threshold <= 0:
            raise ValueError(f"{self.kind} needs a positive threshold")
        if self.solver != "direct":
            raise ValueError(f"solver must be 'direct', got {self.solver!r}")

    @property
    def label(self) -> str:
        if self.kind == "gt":
            return f"gtVPEC({self.nw},{self.nl})"
        if self.kind == "nt":
            return f"ntVPEC({self.threshold:g})"
        if self.kind == "gw":
            return f"gwVPEC(b={self.window})"
        if self.kind == "nw":
            return f"nwVPEC({self.threshold:g})"
        return {"peec": "PEEC", "full": "full VPEC", "localized": "localized VPEC"}[
            self.kind
        ]


def peec_spec() -> ModelSpec:
    return ModelSpec("peec")


def full_spec() -> ModelSpec:
    return ModelSpec("full")


def localized_spec() -> ModelSpec:
    return ModelSpec("localized")


def gt_spec(nw: int, nl: int) -> ModelSpec:
    return ModelSpec("gt", nw=nw, nl=nl)


def nt_spec(threshold: float) -> ModelSpec:
    return ModelSpec("nt", threshold=threshold)


def gw_spec(window: int) -> ModelSpec:
    return ModelSpec("gw", window=window)


def nw_spec(threshold: float) -> ModelSpec:
    return ModelSpec("nw", threshold=threshold)


@dataclass
class BuiltModel:
    """A spec materialized into a circuit, with build metadata."""

    spec: ModelSpec
    circuit: Circuit
    skeleton: ElectricalSkeleton
    build_seconds: float
    sparse_factor: float

    @property
    def label(self) -> str:
        return self.spec.label

    def element_count(self) -> int:
        return len(self.circuit)

    def netlist_bytes(self) -> int:
        return netlist_size_bytes(self.circuit)


def model_key(spec: ModelSpec, parasitics: Parasitics) -> str:
    """Cache key of one built model.

    Keyed on the parasitics *content* (not the options that produced
    it), so bit-identical extractions share their built models.
    """
    return stable_hash(
        "model", CACHE_VERSION, parasitics_fingerprint(parasitics), spec
    )


def build_model(
    spec: ModelSpec,
    parasitics: Parasitics,
    cache: Optional[PipelineCache] = None,
) -> BuiltModel:
    """Materialize a model spec (timing the model-building step).

    With a cache, a warm hit skips inversion / sparsification / stamping
    and returns a bit-exact copy of the cold build; ``build_seconds``
    then reports the (much smaller) load time.  Each hit unpickles a
    fresh object, so attaching a testbench to one never contaminates
    later fetches.
    """
    if cache is not None:
        key = model_key(spec, parasitics)
        start = time.perf_counter()
        cached = cache.get("models", key)
        if cached is not None:
            cached.build_seconds = time.perf_counter() - start
            return cached
        built = _build_model_cold(spec, parasitics)
        cache.put("models", key, built)
        return built
    return _build_model_cold(spec, parasitics)


def _build_model_cold(spec: ModelSpec, parasitics: Parasitics) -> BuiltModel:
    if spec.kind == "peec":
        start = time.perf_counter()
        model = build_peec(parasitics)
        elapsed = time.perf_counter() - start
        return BuiltModel(
            spec=spec,
            circuit=model.circuit,
            skeleton=model.skeleton,
            build_seconds=elapsed,
            sparse_factor=1.0,
        )
    result = build_vpec(spec, parasitics)
    return BuiltModel(
        spec=spec,
        circuit=result.model.circuit,
        skeleton=result.model.skeleton,
        build_seconds=result.build_seconds,
        sparse_factor=result.sparse_factor,
    )


def build_vpec(spec: ModelSpec, parasitics: Parasitics) -> VpecBuildResult:
    """Run the VPEC flow of a spec (uncached; any kind but ``peec``).

    :func:`build_model` keeps only the circuit of the result; the
    passivity and health audits read its per-direction networks.
    """
    if spec.kind == "full":
        return full_vpec(parasitics)
    if spec.kind == "localized":
        return localized_vpec(parasitics)
    if spec.kind == "gt":
        return truncated_vpec(parasitics, nw=spec.nw, nl=spec.nl)
    if spec.kind == "nt":
        return truncated_vpec(parasitics, threshold=spec.threshold)
    if spec.kind == "gw":
        return windowed_vpec(parasitics, window_size=spec.window)
    if spec.kind == "nw":
        return windowed_vpec(parasitics, threshold=spec.threshold)
    raise ValueError(f"{spec.label} has no VPEC flow")


@dataclass
class TransientRun:
    """A transient simulation plus its observed waveforms."""

    model: BuiltModel
    sim_seconds: float
    waveforms: Dict[str, Waveform] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Model building plus simulation (the paper's runtime metric)."""
        return self.model.build_seconds + self.sim_seconds


@dataclass
class ACRun:
    """An AC sweep plus the observed complex-magnitude waveforms."""

    model: BuiltModel
    sim_seconds: float
    waveforms: Dict[str, Waveform] = field(default_factory=dict)


def run_bus_transient(
    built: BuiltModel,
    stimulus: Stimulus,
    t_stop: float,
    dt: float,
    observe_bits: Sequence[int],
    aggressor: int = 0,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> TransientRun:
    """Paper-standard bus transient: drive one bit, probe far ends.

    Waveforms are keyed ``"far{bit}"``.  The testbench is attached to the
    built circuit, so a :class:`BuiltModel` can serve exactly one run.
    """
    attach_bus_testbench(
        built.skeleton,
        stimulus,
        aggressor=aggressor,
        driver_resistance=driver_resistance,
        load_capacitance=load_capacitance,
    )
    probes = [built.skeleton.ports[bit].far for bit in observe_bits]
    start = time.perf_counter()
    result = transient_analysis(
        built.circuit, t_stop, dt, probe_nodes=probes
    )
    elapsed = time.perf_counter() - start
    waveforms = {
        f"far{bit}": result.voltage(node)
        for bit, node in zip(observe_bits, probes)
    }
    return TransientRun(model=built, sim_seconds=elapsed, waveforms=waveforms)


def run_bus_ac(
    built: BuiltModel,
    stimulus: Stimulus,
    frequencies: Sequence[float],
    observe_bits: Sequence[int],
    aggressor: int = 0,
) -> ACRun:
    """Paper-standard bus AC sweep; waveforms are |V(f)| keyed ``far{bit}``."""
    attach_bus_testbench(built.skeleton, stimulus, aggressor=aggressor)
    probes = [built.skeleton.ports[bit].far for bit in observe_bits]
    start = time.perf_counter()
    result = ac_analysis(built.circuit, frequencies, probe_nodes=probes)
    elapsed = time.perf_counter() - start
    waveforms = {
        f"far{bit}": result.magnitude(node)
        for bit, node in zip(observe_bits, probes)
    }
    return ACRun(model=built, sim_seconds=elapsed, waveforms=waveforms)


def run_two_port_transient(
    built: BuiltModel,
    stimulus: Stimulus,
    t_stop: float,
    dt: float,
    wire: int = 0,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> TransientRun:
    """Two-port transient (the spiral experiment); waveform key ``"out"``."""
    _, out_node = attach_two_port_testbench(
        built.skeleton,
        stimulus,
        wire=wire,
        driver_resistance=driver_resistance,
        load_capacitance=load_capacitance,
    )
    start = time.perf_counter()
    result = transient_analysis(
        built.circuit, t_stop, dt, probe_nodes=[out_node]
    )
    elapsed = time.perf_counter() - start
    return TransientRun(
        model=built,
        sim_seconds=elapsed,
        waveforms={"out": result.voltage(out_node)},
    )

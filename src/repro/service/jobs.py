"""Job model of the analysis service: requests, records, lifecycle.

A :class:`JobRequest` is the service's unit of work -- one extraction,
crosstalk simulation, or tiered noise scan, fully described by plain
data (geometry spec, model spec, physics parameters), so it can travel
as JSON over the wire, hash into a content-addressed key, and pickle
into a worker process unchanged.

Requests are *content-addressed* like everything else in the pipeline:
two jobs with identical requests share one computation (the service
memoizes finished results by :meth:`JobRequest.key`), exactly as two
CLI runs share cache entries.

A :class:`JobRecord` tracks one submitted job through the lifecycle
``queued -> running -> done | failed | cancelled | timeout``.  Failures
carry the :mod:`repro.health` taxonomy: the worker's typed exception
class name rides in ``error["kind"]``, so a client can distinguish a
singular matrix from a passivity violation from a plain bug, the same
way the CLI's exit-code-2 path does.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.experiments.runner import ModelSpec
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.spiral import square_spiral
from repro.geometry.system import FilamentSystem
from repro.noise.engine import NoiseConfig
from repro.noise.receiver import ReceiverModel
from repro.noise.screening import KappaEnvelope
from repro.noise.sweep import SweepGrid
from repro.pipeline.hashing import stable_hash

#: The analysis operations the service accepts.
ANALYSIS_OPS = ("extract", "simulate", "noise", "sweep")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED, TIMEOUT)


class JobCancelledError(Exception):
    """Raised inside the execution path when a job's cancel flag is set."""


@dataclass(frozen=True)
class GeometrySpec:
    """A serializable geometry request.

    ``kind`` selects the generator (``bus``, ``nonaligned_bus``,
    ``spiral``); ``size`` is the bus bit count or spiral turn count;
    ``segments`` the per-line segment count (buses) or total segment
    count (spirals, where 0 means the generator default).
    """

    kind: str
    size: int
    segments: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("bus", "nonaligned_bus", "spiral"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("geometry size must be >= 1")

    @property
    def label(self) -> str:
        """Short display name, e.g. ``bus8`` or ``nonaligned_bus16_g4``."""
        suffix = f"_g{self.segments}" if self.segments != 1 else ""
        return f"{self.kind}{self.size}{suffix}"

    def build(self) -> FilamentSystem:
        if self.kind == "bus":
            return aligned_bus(self.size, segments_per_line=self.segments)
        if self.kind == "nonaligned_bus":
            return nonaligned_bus(self.size, segments_per_line=self.segments)
        if self.segments > 1:
            return square_spiral(turns=self.size, total_segments=self.segments)
        return square_spiral(turns=self.size)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GeometrySpec":
        return cls(
            kind=str(payload["kind"]),
            size=int(payload["size"]),
            segments=int(payload.get("segments", 1)),
        )


@dataclass(frozen=True)
class SimParams:
    """Parameters of one crosstalk simulation request."""

    aggressor: int = 0
    vdd: float = 1.0
    rise_time: float = 10e-12
    t_stop: float = 300e-12
    dt: float = 1e-12

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimParams":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def model_spec_to_dict(spec: ModelSpec) -> Dict[str, Any]:
    return dataclasses.asdict(spec)


def model_spec_from_dict(payload: Mapping[str, Any]) -> ModelSpec:
    known = {f.name for f in dataclasses.fields(ModelSpec)}
    return ModelSpec(**{k: v for k, v in payload.items() if k in known})


def noise_config_to_dict(config: NoiseConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def noise_config_from_dict(payload: Mapping[str, Any]) -> NoiseConfig:
    known = {f.name for f in dataclasses.fields(NoiseConfig)}
    kwargs = {k: v for k, v in payload.items() if k in known}
    # The nested receiver / envelope sections arrive as plain dicts
    # after a JSON round trip; rebuild the frozen dataclasses.
    receiver = kwargs.get("receiver")
    if isinstance(receiver, Mapping):
        kwargs["receiver"] = ReceiverModel(
            vtc=tuple(
                (float(p[0]), float(p[1])) for p in receiver["vtc"]
            ),
            output_fraction=float(receiver.get("output_fraction", 0.25)),
        )
    envelope = kwargs.get("envelope")
    if isinstance(envelope, Mapping):
        kwargs["envelope"] = KappaEnvelope(
            edge=tuple(float(v) for v in envelope["edge"]),
            center=tuple(float(v) for v in envelope["center"]),
            edge_reach=int(envelope["edge_reach"]),
            edge_boost=float(envelope["edge_boost"]),
            family=str(envelope.get("family", "bus")),
        )
    return NoiseConfig(**kwargs)


def sweep_grid_to_dict(grid: SweepGrid) -> Dict[str, Any]:
    return {
        "topologies": list(grid.topologies),
        "widths": list(grid.widths),
        "wire_widths": list(grid.wire_widths),
        "spacings": list(grid.spacings),
        "drivers": list(grid.drivers),
        "densities": list(grid.densities),
        "segments": list(grid.segments),
        "base": noise_config_to_dict(grid.base),
        "model": model_spec_to_dict(grid.model),
    }


def sweep_grid_from_dict(payload: Mapping[str, Any]) -> SweepGrid:
    kwargs: Dict[str, Any] = {}
    for axis, kind in (
        ("topologies", str),
        ("widths", int),
        ("wire_widths", float),
        ("spacings", float),
        ("drivers", float),
        ("densities", float),
        ("segments", int),
    ):
        if axis in payload:
            kwargs[axis] = tuple(kind(v) for v in payload[axis])
    if "base" in payload:
        kwargs["base"] = noise_config_from_dict(payload["base"])
    if "model" in payload:
        kwargs["model"] = model_spec_from_dict(payload["model"])
    return SweepGrid(**kwargs)


@dataclass(frozen=True)
class JobRequest:
    """One fully-specified analysis request.

    ``model`` applies to ``simulate`` and ``noise``; ``sim`` only to
    ``simulate``; ``noise`` (the config) only to ``noise``.  Unused
    sections keep their defaults so the content key stays stable.

    A ``sweep`` job carries its whole design-space grid in ``sweep``
    and no ``geometry`` -- each scenario of the grid names its own;
    every other op requires ``geometry`` and forbids ``sweep``.
    """

    op: str
    geometry: Optional[GeometrySpec] = None
    model: ModelSpec = ModelSpec("gw", window=8)
    sim: SimParams = SimParams()
    noise: NoiseConfig = NoiseConfig()
    verify: bool = False
    sweep: Optional[SweepGrid] = None

    def __post_init__(self) -> None:
        if self.op not in ANALYSIS_OPS:
            raise ValueError(
                f"op must be one of {ANALYSIS_OPS}, got {self.op!r}"
            )
        if self.op == "sweep":
            if self.sweep is None:
                raise ValueError("sweep jobs require a sweep grid")
            if self.geometry is not None:
                raise ValueError(
                    "sweep jobs take geometry from the grid's scenarios"
                )
        else:
            if self.geometry is None:
                raise ValueError(f"{self.op} jobs require geometry")
            if self.sweep is not None:
                raise ValueError(f"{self.op} jobs do not take a sweep grid")

    def key(self) -> str:
        """Content hash identifying this request's result."""
        return stable_hash(
            "service-job",
            self.op,
            self.geometry,
            self.model,
            self.sim,
            self.noise,
            self.verify,
            self.sweep,
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "op": self.op,
            "model": model_spec_to_dict(self.model),
            "sim": self.sim.to_dict(),
            "noise": noise_config_to_dict(self.noise),
            "verify": self.verify,
        }
        if self.geometry is not None:
            payload["geometry"] = self.geometry.to_dict()
        if self.sweep is not None:
            payload["sweep"] = sweep_grid_to_dict(self.sweep)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRequest":
        kwargs: Dict[str, Any] = {"op": str(payload["op"])}
        if payload.get("geometry") is not None:
            kwargs["geometry"] = GeometrySpec.from_dict(payload["geometry"])
        if "model" in payload:
            kwargs["model"] = model_spec_from_dict(payload["model"])
        if "sim" in payload:
            kwargs["sim"] = SimParams.from_dict(payload["sim"])
        if "noise" in payload:
            kwargs["noise"] = noise_config_from_dict(payload["noise"])
        if "verify" in payload:
            kwargs["verify"] = bool(payload["verify"])
        if payload.get("sweep") is not None:
            kwargs["sweep"] = sweep_grid_from_dict(payload["sweep"])
        return cls(**kwargs)


@dataclass
class JobRecord:
    """One submitted job's lifecycle, timings, and outcome."""

    id: str
    request: JobRequest
    status: str = QUEUED
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    checksum: Optional[str] = None
    error: Optional[Dict[str, str]] = None
    #: Set by :meth:`request_cancel`; the execution path checks it
    #: between work items (extract, screen, simulate).
    cancel_requested: bool = False
    #: True when the result came from the service's content-addressed
    #: result memo instead of a fresh computation.
    memoized: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock run time (started -> finished), when known."""
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def request_cancel(self) -> bool:
        """Flag the job for cancellation; returns False once terminal."""
        if self.terminal:
            return False
        self.cancel_requested = True
        return True

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelledError` if a cancel was requested."""
        if self.cancel_requested:
            raise JobCancelledError(self.id)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able status summary (without the full result payload)."""
        return {
            "job": self.id,
            "op": self.request.op,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "seconds": self.seconds,
            "memoized": self.memoized,
            "checksum": self.checksum,
            "error": self.error,
        }

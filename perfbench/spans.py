"""In-memory span tracing of the layer entry points the benchmark calls.

A :class:`Tracer` replaces public functions and methods of ``repro`` with
wrappers that record one span per call: name, start, end, parent span
and process.  Spans of one workload run share the tracer's ``run_id``.
Spans stay in memory while the run is timed; the harness writes them
out with the run's result at the end.

Wrapping happens from the benchmark's own files -- the program is not
edited.  A function imported by name into other modules (``from x import
f``) is replaced in every loaded module that holds it, so the wrapper
sees the calls no matter which import path the caller used.

Worker processes forked while the tracer is installed inherit the
wrappers.  Their spans and :mod:`repro.pipeline.profiling` counters are
appended to one JSON-lines file per worker (``worker_dir``) at the end
of every top-level work item, and :meth:`Tracer.collect_workers` folds
them back in.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


#: ``(module, attribute, span name)`` of every wrapped function.  The
#: span name's first dotted component is the layer it is billed to.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.geometry.bus", "aligned_bus", "geometry.aligned_bus"),
    ("repro.geometry.bus", "nonaligned_bus", "geometry.nonaligned_bus"),
    ("repro.extraction.parasitics", "extract", "extraction.extract"),
    ("repro.pipeline.cache", "cached_extract", "pipeline.cached_extract"),
    ("repro.vpec.windowing", "geometric_windows", "vpec.geometric_windows"),
    ("repro.vpec.windowing", "windowed_inverse", "vpec.windowed_inverse"),
    ("repro.vpec.flow", "windowed_vpec", "vpec.windowed_vpec"),
    ("repro.experiments.runner", "build_model", "vpec.build_model"),
    ("repro.circuit.mna", "build_mna", "circuit.build_mna"),
    ("repro.circuit.transient", "transient_analysis", "circuit.transient"),
    (
        "repro.circuit.transient",
        "transient_analysis_multi",
        "circuit.transient_multi",
    ),
    ("repro.noise.sweep", "run_sweep", "noise.run_sweep"),
    ("repro.noise.engine", "run_noise_scan", "noise.run_noise_scan"),
    ("repro.noise.engine", "screen_tier", "noise.screen_tier"),
    ("repro.noise.engine", "simulate_escalated", "noise.simulate_escalated"),
    ("repro.noise.engine", "assemble_report", "noise.assemble_report"),
    ("repro.noise.screening", "screen_pairs", "noise.screen_pairs"),
    ("repro.noise.worst_case", "align_all", "noise.align_all"),
    ("repro.noise.windows", "sensitive_windows", "noise.sensitive_windows"),
    ("repro.noise.windows", "staggered_schedule", "noise.staggered_schedule"),
    ("repro.analysis.timing", "arrival_times", "noise.arrival_times"),
)

#: ``(module, class, method, span name)`` of every wrapped method.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.experiments.jobs", "GeometrySpec", "build", "geometry.spec_build"),
    ("repro.service.jobs", "GeometrySpec", "build", "geometry.spec_build"),
    ("repro.pipeline.cache", "PipelineCache", "get", "pipeline.cache_get"),
    ("repro.pipeline.cache", "PipelineCache", "put", "pipeline.cache_put"),
    ("repro.extraction.parasitics", "Parasitics", "validate", "extraction.validate"),
)

#: Service work items: top-level spans of a worker process.
WORKER_ENTRIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.workers", "extract_worker", "service.extract_worker"),
    ("repro.service.workers", "screen_worker", "service.screen_worker"),
    ("repro.service.workers", "sim_shard_worker", "service.sim_shard_worker"),
)

#: Layers in reporting order.
LAYERS = (
    "geometry",
    "extraction",
    "vpec",
    "circuit",
    "noise",
    "pipeline",
    "service",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder for one workload run (see module docstring)."""

    def __init__(self, run_id: str, worker_dir: Optional[Path] = None) -> None:
        self.run_id = run_id
        self.worker_dir = worker_dir
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._next = 0
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}:{self._next}"

    def _record(
        self, span_id: str, parent: Optional[str], name: str, start: float, end: float
    ) -> str:
        self.spans.append(
            {
                "run": self.run_id,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "pid": os.getpid(),
            }
        )
        return span_id

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
    ) -> str:
        """Record a span whose bounds were measured elsewhere."""
        return self._record(self._new_id(), parent, name, start, end)

    def begin(self, name: str) -> Tuple[str, Optional[str], str, float]:
        """Open a span; calls recorded until :meth:`end` become its children."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def end(self, opened: Tuple[str, Optional[str], str, float]) -> str:
        end = time.perf_counter()
        span_id, parent, name, start = opened
        self._stack.remove(span_id)
        return self._record(span_id, parent, name, start, end)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        opened = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(opened)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def _replace_everywhere(self, original: Any, wrapper: Any) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _function_wrapper(self, name: str, original: Callable[..., Any]) -> Any:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, **kwargs)

        return wrapper

    def _worker_wrapper(self, name: str, original: Callable[..., Any]) -> Any:
        from repro.pipeline.profiling import collect

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == self._pid:
                return self.call(name, original, *args, **kwargs)
            # A forked worker: record this work item's spans and
            # counters, then append them to the worker's own file.
            self.spans = []
            self._stack = []
            with collect() as profile:
                try:
                    return self.call(name, original, *args, **kwargs)
                finally:
                    self._dump_worker(profile.counters)

        return wrapper

    def _dump_worker(self, counters: Dict[str, int]) -> None:
        if self.worker_dir is None:
            return
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"spans": self.spans, "counters": counters}) + "\n"
            )

    def install(self) -> None:
        """Wrap every entry point listed in this module."""
        import importlib

        for module_name, attr, name in FUNCTIONS + WORKER_ENTRIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            make = (
                self._worker_wrapper
                if (module_name, attr, name) in WORKER_ENTRIES
                else self._function_wrapper
            )
            self._replace_everywhere(original, make(name, original))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._function_wrapper(name, original))
            self._patches.append((cls, method, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def collect_workers(
        self, parent: Optional[str] = None, since: float = float("-inf")
    ) -> Dict[str, int]:
        """Fold in the spans forked workers wrote; returns their counters.

        Worker top-level spans that start at or after ``since`` are
        attached to ``parent``; earlier ones (set-up work) stay roots.
        """
        counters: Dict[str, int] = {}
        if self.worker_dir is None or not self.worker_dir.is_dir():
            return counters
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    item = json.loads(line)
                    for span in item["spans"]:
                        if span["parent"] is None and span["start"] >= since:
                            span["parent"] = parent
                        self.spans.append(span)
                    for key, value in item["counters"].items():
                        counters[key] = counters.get(key, 0) + value
            path.unlink()
        return counters


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part its children cover, by id.

    Children are clipped to their parent's interval: a worker span in
    another process is timed by that process and may straddle it.
    """
    bounds = {span["id"]: (span["start"], span["end"]) for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] in bounds:
            start, end = bounds[span["parent"]]
            clipped = (max(span["start"], start), min(span["end"], end))
            if clipped[1] > clipped[0]:
                children.setdefault(span["parent"], []).append(clipped)
    return {
        span["id"]: (span["end"] - span["start"])
        - _union_length(children.get(span["id"], ()))
        for span in spans
    }


def subtree(spans: List[Dict[str, Any]], root_id: str) -> List[Dict[str, Any]]:
    """The span ``root_id`` and all its descendants."""
    by_parent: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    found = [s for s in spans if s["id"] == root_id]
    frontier = list(found)
    while frontier:
        span = frontier.pop()
        kids = by_parent.get(span["id"], [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def busy_by_name(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Inclusive seconds spent inside spans of each name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + (
            span["end"] - span["start"]
        )
    return totals


def self_by_layer(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds billed to each layer (plus ``root`` for the root spans)."""
    own = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals

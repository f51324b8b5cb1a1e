"""Benchmark-regression subsystem: a machine-readable perf trajectory.

The paper's headline claim is wall-clock (``O(N b^3)`` window
construction beating the ``O(N^3)`` inversion), so kernel performance is
a tracked artifact here, not folklore: :mod:`repro.bench.runner` times
the micro-kernel suite, :mod:`repro.bench.results` records each run as a
:class:`~repro.bench.results.BenchResult` (kernel, size, wall time, and
a checksum of the numerical output), and
:mod:`repro.bench.regression` compares fresh runs against the committed
``BENCH_kernels.json`` trajectory -- time regressions warn, checksum
mismatches fail.  ``repro bench`` is the CLI entry point.
"""

from repro.bench.reference import (
    scalar_partial_inductance,
    scalar_windowed_inverse,
)
from repro.bench.regression import Comparison, RegressionReport, check_results
from repro.bench.results import (
    SCHEMA_VERSION,
    BenchResult,
    array_checksum,
    load_trajectory,
    merge_trajectory,
    save_trajectory,
)
from repro.bench.runner import DEFAULT_KERNELS, run_suite
from repro.bench.sim import SIM_KERNELS, run_sim_suite

# The noise and service suites live in repro.bench.noise and
# repro.bench.service and are imported directly (the service suite
# depends on repro.service, whose workers depend on
# repro.bench.results -- importing it here would be circular).

__all__ = [
    "SIM_KERNELS",
    "run_sim_suite",
    "SCHEMA_VERSION",
    "BenchResult",
    "Comparison",
    "DEFAULT_KERNELS",
    "RegressionReport",
    "array_checksum",
    "check_results",
    "load_trajectory",
    "merge_trajectory",
    "run_suite",
    "save_trajectory",
    "scalar_partial_inductance",
    "scalar_windowed_inverse",
]

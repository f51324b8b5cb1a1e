"""Acceptance benchmarks of the columnar simulation backend.

Counterpart of :class:`bench_micro_kernels.TestVectorizedSpeedups` for
the circuit layer: one sim-suite run measures the columnar fast paths
and the object-path seed references together, and the ratios below are
the committed floors of the columnar-netlist PR -- most importantly the
>= 10x build + MNA assembly speedup on the 256-bit Fig. 8 bus.

Two layers of enforcement:

- ``TestSimSpeedups`` re-measures live (timing asserts stay here in
  ``benchmarks/``, outside the tier-1 ``tests/`` collection, so hot CI
  runners cannot flake the main suite);
- ``test_committed_assembly_ratio`` checks the ratio recorded in the
  committed ``BENCH_sim.json`` trajectory, which is deterministic.

``test_march_step_costs_about_one_solve`` gates the transient march's
per-step glue live: a step of the escalation's own shape must cost
little more than its bare product and back-substitution.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.bench import load_trajectory
from repro.bench.sim import SIM_KERNELS, run_sim_suite
from repro.circuit.mna import build_mna
from repro.circuit.sources import step
from repro.circuit.transient import transient_analysis_multi
from repro.experiments.runner import build_model, gw_spec
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.noise.engine import attach_quiet_bus_testbench

_REPO_ROOT = Path(__file__).resolve().parent.parent
_TRAJECTORY = _REPO_ROOT / "BENCH_sim.json"


class TestSimSpeedups:
    """Columnar backend vs the object-path seed, measured live."""

    @pytest.fixture(scope="class")
    def suite(self):
        results = run_sim_suite(
            kernels=SIM_KERNELS, repeats=3, include_seed=True
        )
        return {(r.kernel, r.variant): r for r in results}

    def _ratio(self, suite, kernel):
        seed = suite[(kernel, "seed")]
        columnar = suite[(kernel, "columnar")]
        assert seed.checksum == columnar.checksum, (
            f"{kernel}: seed and columnar outputs diverge"
        )
        return seed.seconds / columnar.seconds

    def test_assembly_bus256_speedup(self, suite):
        """The PR acceptance floor: >= 10x build + assembly."""
        assert self._ratio(suite, "peec_assembly_bus256") >= 10.0

    def test_transient_bus64_not_slower(self, suite):
        # Solve-dominated, so the floor only guards regressions (the
        # batched-RHS win is the per-step Python loop, not the LU).
        assert self._ratio(suite, "transient_bus64") >= 0.8

    def test_ac_sweep_bus64_not_slower(self, suite):
        assert self._ratio(suite, "ac_sweep_bus64") >= 0.8


def test_committed_assembly_ratio():
    """The committed trajectory must record the >= 10x acceptance ratio."""
    entries = load_trajectory(_TRAJECTORY)
    by_key = {(r.kernel, r.variant): r for r in entries}
    seed = by_key[("peec_assembly_bus256", "seed")]
    columnar = by_key[("peec_assembly_bus256", "columnar")]
    assert seed.checksum == columnar.checksum
    assert seed.seconds / columnar.seconds >= 10.0


#: Ceiling of a march step over a bare ``lu.solve(history @ x)`` step on
#: the 16-wire, 16-column gw8 testbench, best of 5 each, interleaved
#: (2-CPU Xeon, one BLAS thread, a busy shared host): the lean march
#: read 1.24-1.41 (median 1.25, 5 runs), the march before it 1.67-2.00
#: (median 1.72), so the ceiling fails a return of the per-step glue.
MARCH_STEP_RATIO = 1.5


def test_march_step_costs_about_one_solve():
    """The escalation's march shape: the gw8 quiet testbench of a 16-wire
    bus, every wire driven by its own unit ramp, over the clock's reach
    of 3 311 samples.  Every step does one product, one solve and one
    probe gather; the rest of the march is set-up, amortized here.  The
    two loops alternate, so a busy stretch of the host slows both."""
    dt, t_stop = 1e-12, 3310e-12
    steps = int(np.ceil(t_stop / dt))
    built = build_model(gw_spec(8), extract(aligned_bus(16)))
    attach_quiet_bus_testbench(built.skeleton)
    ports = built.skeleton.ports
    probes = [ports[wire].far for wire in sorted(ports)]
    ramp = step(1.0, rise_time=10e-12)
    scenarios = [{f"Vdrv{wire}": ramp} for wire in sorted(ports)]

    system = build_mna(built.circuit)
    g_mat = system.G.tocsc()
    c_scaled = (2.0 / dt) * system.C.tocsc()
    history = c_scaled - g_mat
    lu = splu((g_mat + c_scaled).tocsc())

    def march():
        transient_analysis_multi(
            built.circuit, t_stop, dt, scenarios, probe_nodes=probes
        )

    def bare():
        x = np.zeros((system.size, len(scenarios)))
        for _ in range(steps):
            x = lu.solve(history @ x)

    best = {march: float("inf"), bare: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[march] / best[bare]
    print(f"march step / bare step: {ratio:.2f}")
    assert ratio <= MARCH_STEP_RATIO

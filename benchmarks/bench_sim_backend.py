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
``test_symmetric_factor_halves_the_sweep_step`` gates the solve itself
on the sweep family's testbench: the chain's symmetric-mode factor
against COLAMD with partial pivoting.
``test_sweep_march_step_costs_about_its_solve`` gates the rest of that
testbench's step: the trapezoidal history multiplies ``C`` alone, so
the dense effective-resistance block of ``G`` never enters the step.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.analysis.tables import format_table
from repro.bench import load_trajectory
from repro.bench.sim import SIM_KERNELS, run_sim_suite
from repro.bench.sweep import sweep_grid
from repro.circuit.mna import build_mna
from repro.circuit.sources import step
from repro.circuit.transient import transient_analysis_multi
from repro.experiments.runner import build_model, gw_spec
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.health.solvers import factorize
from repro.noise.engine import attach_quiet_bus_testbench
from repro.pipeline.profiling import collect

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


#: Ceiling of a march step over a bare step of the march's own
#: trapezoidal recurrence, ``x = lu.solve((4/h) C x) - x`` on the same
#: factor, on the 16-wire, 16-column gw8 testbench, best of 5 each,
#: interleaved (2-CPU Xeon, one BLAS thread, a busy shared host).  Over
#: six alternating runs it read 1.23-1.25 (median 1.24); the bare loop
#: it replaced, a product with ``2C/h - G`` and no subtraction, read
#: 1.22-1.25 there (7.6 us a step against 4.8 us for ``(4/h) C`` plus
#: 1.6 us for the subtraction, beside a 51 us solve).  The march before
#: the lean one read 1.67-2.00 (median 1.72), so the ceiling fails a
#: return of the per-step glue.
MARCH_STEP_RATIO = 1.5


def test_march_step_costs_about_one_solve():
    """The escalation's march shape: the gw8 quiet testbench of a 16-wire
    bus, every wire driven by its own unit ramp, over the clock's reach
    of 3 311 samples.  Every step does one product, one solve, one
    subtraction and one probe gather; the rest of the march is set-up,
    amortized here.  The two loops alternate, so a busy stretch of the
    host slows both."""
    dt, t_stop = 1e-12, 3310e-12
    steps = int(np.ceil(t_stop / dt))
    built = build_model(gw_spec(8), extract(aligned_bus(16)))
    attach_quiet_bus_testbench(built.skeleton)
    ports = built.skeleton.ports
    probes = [ports[wire].far for wire in sorted(ports)]
    ramp = step(1.0, rise_time=10e-12)
    scenarios = [{f"Vdrv{wire}": ramp} for wire in sorted(ports)]

    system = build_mna(built.circuit)
    c_mat = system.C.tocsc()
    history = (4.0 / dt) * c_mat
    lu = splu((system.G.tocsc() + (2.0 / dt) * c_mat).tocsc())

    def march():
        transient_analysis_multi(
            built.circuit, t_stop, dt, scenarios, probe_nodes=probes
        )

    def bare():
        x = np.zeros((system.size, len(scenarios)))
        for _ in range(steps):
            x = lu.solve(history @ x) - x

    best = {march: float("inf"), bare: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[march] / best[bare]
    print(f"march step / bare step: {ratio:.2f}")
    assert ratio <= MARCH_STEP_RATIO


#: Ceiling of 362 six-column solves on the factor the chain serves for
#: the sweep family's march left-hand side (2 608 unknowns, SuperLU's
#: symmetric mode) over the same solves on COLAMD with partial
#: pivoting, best of 5 each, interleaved (2-CPU Xeon, one BLAS thread,
#: a busy shared host).  It read 0.46-0.52 over five runs; the ceiling
#: fails a return to partial pivoting on large systems (ratio 1.0).
SYMMETRIC_SOLVE_RATIO = 0.75

#: Solves of a ``sweep_family`` sign-off: 362 of 6 columns, its DC
#: start and 361 march steps (``circuit.lu_factorizations`` of a traced
#: run).
SWEEP_STEPS, SWEEP_COLUMNS = 362, 6


def test_symmetric_factor_halves_the_sweep_step(report):
    """The escalation march's trapezoidal left-hand side of
    :func:`sweep_grid`'s testbench, solved as often and as wide as one
    sign-off solves it."""
    dt = 1e-12
    grid = sweep_grid()
    scenario = grid.scenarios()[0]
    config = scenario.config(grid.base)
    built = build_model(grid.model, extract(scenario.geometry().build()))
    attach_quiet_bus_testbench(
        built.skeleton, config.driver_resistance, config.load_capacitance
    )
    system = build_mna(built.circuit)
    lhs = (system.G.tocsc() + (2.0 / dt) * system.C.tocsc()).tocsc()
    block = np.random.default_rng(0).standard_normal(
        (system.size, SWEEP_COLUMNS)
    )

    with collect() as profile:
        start = time.perf_counter()
        chain = factorize(lhs, name="sweep LHS")
        chain.solve(block)
        chain_factor_s = time.perf_counter() - start
    start = time.perf_counter()
    partial = splu(lhs)
    partial.solve(block)
    partial_factor_s = time.perf_counter() - start
    assert chain.log.attempts[0].detail == "symmetric mode"

    def symmetric():
        for _ in range(SWEEP_STEPS):
            chain.solve(block)

    def colamd():
        for _ in range(SWEEP_STEPS):
            partial.solve(block)

    best = {symmetric: float("inf"), colamd: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[symmetric] / best[colamd]
    report(
        "sim_symmetric_factor",
        format_table(
            ["metric", "symmetric mode", "COLAMD, partial pivoting"],
            [
                ["unknowns", system.size, system.size],
                ["L+U nonzeros", profile.counters["lu_nonzeros"], partial.nnz],
                [
                    "factor + first solve (ms)",
                    f"{chain_factor_s * 1e3:.1f}",
                    f"{partial_factor_s * 1e3:.1f}",
                ],
                [
                    f"{SWEEP_STEPS} x {SWEEP_COLUMNS}-column solves, "
                    "best of 5 (ms)",
                    f"{best[symmetric] * 1e3:.1f}",
                    f"{best[colamd] * 1e3:.1f}",
                ],
                ["solve time / COLAMD", f"{ratio:.2f}", "1.00"],
            ],
        ),
    )
    assert ratio <= SYMMETRIC_SOLVE_RATIO


#: Ceiling of a ``sweep_family`` march -- 361 six-column trapezoidal
#: steps on :func:`sweep_grid`'s testbench, set-up included -- over 362
#: bare six-column solves on the chain's factor of its left-hand side,
#: best of 5 each, interleaved (2-CPU Xeon, one BLAS thread, a busy
#: shared host).  Over seven alternating runs the C-only march read
#: 0.99-1.57 (median 1.19) and the march whose history was ``2C/h - G``
#: (107 920 nonzeros of ``G`` against 1 286 of ``C``, ~0.5 ms a step)
#: read 1.31-1.80 (median 1.53): the ceiling fails a return of ``G`` to
#: the step.
SWEEP_MARCH_RATIO = 1.4


def test_sweep_march_step_costs_about_its_solve(report):
    """One sign-off's march of :func:`sweep_grid`'s testbench (six
    unit-ramp columns, all far ends probed, 361 steps) against the
    solves it cannot avoid: its DC start and 361 steps on one factor."""
    dt = 1e-12
    grid = sweep_grid()
    scenario = grid.scenarios()[0]
    config = scenario.config(grid.base)
    built = build_model(grid.model, extract(scenario.geometry().build()))
    attach_quiet_bus_testbench(
        built.skeleton, config.driver_resistance, config.load_capacitance
    )
    ports = built.skeleton.ports
    wires = sorted(ports)
    probes = [ports[wire].far for wire in wires]
    ramp = step(1.0, rise_time=config.rise_time)
    scenarios = [{f"Vdrv{wire}": ramp} for wire in wires[:SWEEP_COLUMNS]]
    system = build_mna(built.circuit)
    chain = factorize(
        (system.G.tocsc() + (2.0 / dt) * system.C.tocsc()).tocsc(),
        name="sweep LHS",
    )
    block = np.random.default_rng(0).standard_normal(
        (system.size, SWEEP_COLUMNS)
    )

    def march():
        transient_analysis_multi(
            built.circuit, (SWEEP_STEPS - 1) * dt, dt, scenarios,
            probe_nodes=probes,
        )

    def bare():
        for _ in range(SWEEP_STEPS):
            chain.solve(block)

    best = {march: float("inf"), bare: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    ratio = best[march] / best[bare]
    report(
        "sim_sweep_march_step",
        format_table(
            ["metric", "value"],
            [
                ["unknowns", system.size],
                ["G nonzeros", system.G.nnz],
                ["C nonzeros", system.C.nnz],
                [
                    f"march, {SWEEP_STEPS - 1} x {SWEEP_COLUMNS} columns, "
                    "best of 5 (ms)",
                    f"{best[march] * 1e3:.1f}",
                ],
                [
                    f"{SWEEP_STEPS} bare solves, best of 5 (ms)",
                    f"{best[bare] * 1e3:.1f}",
                ],
                ["march / bare solves", f"{ratio:.2f}"],
            ],
        ),
    )
    assert ratio <= SWEEP_MARCH_RATIO

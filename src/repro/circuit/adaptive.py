"""Adaptive-timestep transient analysis (LTE-controlled trapezoidal).

The fixed-step engine in :mod:`repro.circuit.transient` is what the
benchmark comparisons use (identical step counts on both models keep
runtime ratios meaningful).  This module adds the production-SPICE
counterpart: trapezoidal integration with local-truncation-error control
by step doubling --

1. advance one full step ``h`` and, independently, two half steps;
2. the trapezoidal rule is second order, so
   ``LTE ~ (x_full - x_half) / 3`` (Richardson);
3. reject and halve when the estimate exceeds the tolerance; accept the
   (more accurate) half-step result otherwise, and double the step when
   the estimate is comfortably small.

Steps move on a binary grid (``h = h_max / 2^k``), so the LU
factorizations -- one per step size per scheme -- are cached and reused,
keeping the adaptive run close to fixed-step cost on smooth intervals.
Each is the fixed-step engine's own one-step operator, factorized
through the same resilient chain (:data:`~repro.health.solvers.DEFAULT_POLICY`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.transient import _factorize_step, _resolve_probes
from repro.circuit.waveform import TransientResult

#: Safety margin between "accept" and "grow the step".
_GROWTH_MARGIN = 0.125


@dataclass
class AdaptiveStats:
    """Bookkeeping of one adaptive run."""

    accepted: int = 0
    rejected: int = 0
    min_dt_used: float = float("inf")
    max_dt_used: float = 0.0


class _StepSolver:
    """One-step solver (trapezoidal or BE) with per-step-size operators.

    Each ``(method, h)`` pair's factorized left-hand side and history
    operator come from the fixed-step engine's
    :func:`~repro.circuit.transient._factorize_step` -- the same
    one-step operator behind the same resilient factorization chain --
    and are cached, since steps move on a binary grid.
    """

    def __init__(self, system: MnaSystem) -> None:
        self._system = system
        self._cache: Dict[Tuple[str, float], Tuple[object, object]] = {}

    def advance(
        self, x: np.ndarray, t: float, h: float, method: str = "trapezoidal"
    ) -> np.ndarray:
        """One integration step from ``t`` to ``t + h``."""
        ops = self._cache.get((method, h))
        if ops is None:
            ops = _factorize_step(self._system, h, method, None)
            self._cache[(method, h)] = ops
        lu, history = ops
        rhs = history @ x + self._system.rhs_transient(t + h)
        if method == "trapezoidal":
            rhs += self._system.rhs_transient(t)
        return lu.solve(rhs)


def adaptive_transient_analysis(
    circuit: Circuit,
    t_stop: float,
    dt_max: float,
    dt_min: Optional[float] = None,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-9,
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    x0: Optional[np.ndarray] = None,
) -> Tuple[TransientResult, AdaptiveStats]:
    """Integrate with trapezoidal steps sized by local truncation error.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop:
        Final time, seconds.
    dt_max:
        Largest step allowed (also the initial step), seconds.
    dt_min:
        Smallest step allowed; default ``dt_max / 2**12``.  Reaching it
        raises rather than silently producing garbage.
    rel_tol, abs_tol:
        LTE acceptance: a step passes when the Richardson estimate is
        below ``abs_tol + rel_tol * max|x|`` (infinity norm).
    probe_nodes, probe_branches:
        Names to record, resolved as in the fixed-step engine: all nodes
        by default on small systems (< 3000 unknowns); larger systems
        must name their probes, and ``probe_branches`` alone suffices.

    Returns
    -------
    (result, stats):
        The transient result on the (nonuniform) accepted time grid and
        the step bookkeeping.
    """
    if t_stop <= 0 or dt_max <= 0:
        raise ValueError("t_stop and dt_max must be positive")
    if dt_min is None:
        dt_min = dt_max / 4096.0
    if dt_min <= 0 or dt_min > dt_max:
        raise ValueError("need 0 < dt_min <= dt_max")

    system = build_mna(circuit)
    nodes, branches, node_rows, branch_rows = _resolve_probes(
        system, circuit, probe_nodes, probe_branches
    )

    x = solve_dc(system) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (system.size,):
        raise ValueError("x0 has the wrong size for this circuit")

    solver = _StepSolver(system)
    stats = AdaptiveStats()
    times: List[float] = [0.0]
    samples: List[np.ndarray] = [x.copy()]
    t = 0.0
    h = dt_max
    first_step = True
    while t < t_stop - 0.5 * dt_min:
        h = min(h, t_stop - t)
        # The first step integrates with backward Euler: trapezoidal is
        # not L-stable and an inconsistent initial state (a charged
        # source against x0 = 0, say) excites an undamped alternating
        # mode in the algebraic unknowns that the LTE estimator would
        # reject forever; one damped step removes it (TR-BDF-style
        # startup, standard SPICE practice).
        method = "backward_euler" if first_step else "trapezoidal"
        richardson = 1.0 if first_step else 3.0
        x_full = solver.advance(x, t, h, method)
        x_mid = solver.advance(x, t, h / 2.0, method)
        x_half = solver.advance(x_mid, t + h / 2.0, h / 2.0, method)
        error = float(np.max(np.abs(x_full - x_half))) / richardson
        scale = abs_tol + rel_tol * float(np.max(np.abs(x_half)))
        if error > scale and h > dt_min:
            stats.rejected += 1
            h = max(h / 2.0, dt_min)
            continue
        # Accept the more accurate half-step solution.
        t += h
        x = x_half
        times.append(t)
        samples.append(x.copy())
        stats.accepted += 1
        stats.min_dt_used = min(stats.min_dt_used, h)
        stats.max_dt_used = max(stats.max_dt_used, h)
        first_step = False
        if error < _GROWTH_MARGIN * scale and h < dt_max:
            h = min(h * 2.0, dt_max)

    data = np.array(samples).T
    times_arr = np.array(times)
    result = TransientResult(
        times=times_arr,
        node_voltages={
            n: (data[row] if row >= 0 else np.zeros(times_arr.size))
            for n, row in zip(nodes, node_rows)
        },
        branch_currents={
            b: data[row] for b, row in zip(branches, branch_rows)
        },
        method="trapezoidal-adaptive",
        dt=dt_max,
    )
    return result, stats

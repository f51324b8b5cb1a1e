"""Fixed-step transient analysis (trapezoidal rule or backward Euler).

From the descriptor form ``G x + C x' = b(t)`` the one-step recurrences
are::

    trapezoidal:    (G + 2C/h) x_{n+1} = (2C/h - G) x_n + b_n + b_{n+1}
    backward Euler: (G +  C/h) x_{n+1} = (C/h) x_n + b_{n+1}

The left-hand matrix is constant for a fixed step ``h``, so it is
factorized once (scipy SuperLU) and reused for every step -- the same
structural win a production SPICE gets from fixed-timestep regions, and
the mechanism behind the paper's PEEC-vs-VPEC runtime comparison: the
factorization (and each back-substitution) is cheap exactly when the
reactive/ resistive stamps stay sparse.

The initial condition is the DC operating point with the sources at their
``t = 0`` transient values.

There is one march: :func:`transient_analysis` is the one-scenario case
of :func:`transient_analysis_multi`, and the adaptive engine
(:mod:`repro.circuit.adaptive`) builds its one-step operators with the
same :func:`_factorize_step`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus
from repro.circuit.waveform import TransientResult
from repro.health.solvers import DEFAULT_POLICY, FallbackPolicy, factorize
from repro.pipeline.profiling import add_counter, stage

_METHODS = ("trapezoidal", "backward_euler")


def _resolve_probes(
    system: MnaSystem,
    circuit: Circuit,
    probe_nodes: Optional[Sequence[str]],
    probe_branches: Optional[Sequence[str]],
):
    """Resolve probe names to solution rows, defaulting sensibly.

    ``probe_nodes=None`` means "all nodes" only while that stays cheap
    (< 3000 unknowns).  On larger systems a caller who already named
    ``probe_branches`` clearly bounded the result -- node probes just
    default to none -- and only a caller who named nothing is asked,
    by option name, to do so.
    """
    if probe_nodes is None:
        if system.size < 3000:
            probe_nodes = circuit.nodes
        elif probe_branches is not None:
            probe_nodes = []
        else:
            raise ValueError(
                f"system has {system.size} unknowns; pass probe_nodes "
                "(and/or probe_branches) to bound result memory"
            )
    nodes = list(probe_nodes)
    branches = list(probe_branches) if probe_branches is not None else []
    node_rows = np.array([system.node_row(n) for n in nodes], dtype=int)
    branch_rows = np.array([system.branch_row(b) for b in branches], dtype=int)
    return nodes, branches, node_rows, branch_rows


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    method: str = "trapezoidal",
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    x0: Optional[np.ndarray] = None,
    policy: Optional[FallbackPolicy] = None,
) -> TransientResult:
    """Integrate a circuit from 0 to ``t_stop`` with fixed step ``dt``.

    The one-scenario case of :func:`transient_analysis_multi`: both run
    the same march, this one on a single source column.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop, dt:
        Final time and time step, seconds; the time axis is
        ``0, dt, 2 dt, ..., >= t_stop``.
    method:
        ``"trapezoidal"`` (second order, the default) or
        ``"backward_euler"`` (first order, heavily damped).
    probe_nodes, probe_branches:
        Names to record.  Defaults to all nodes when the system is small
        (< 3000 unknowns); larger systems must name their probes to keep
        memory bounded.
    x0:
        Optional initial solution vector (defaults to the DC operating
        point at the sources' ``t = 0`` values).
    policy:
        Fallback policy of the left-hand-side factorization (resilient
        by default): LU -> Tikhonov retry -> GMRES + ILU, with typed
        errors when the chain is exhausted.
    """
    return _march(
        circuit, t_stop, dt, [{}], method, probe_nodes, probe_branches,
        policy, x0=x0,
    )[0]


def _factorize_step(
    system: MnaSystem,
    dt: float,
    method: str,
    policy: Optional[FallbackPolicy],
):
    """Factorize the constant one-step LHS; return (factor, history op)."""
    g_mat = system.G.tocsc()
    c_mat = system.C.tocsc()
    if method == "trapezoidal":
        c_scaled = (2.0 / dt) * c_mat
        history = c_scaled - g_mat
    else:
        c_scaled = (1.0 / dt) * c_mat
        history = c_scaled
    lhs = factorize(
        (g_mat + c_scaled).tocsc(),
        policy=policy if policy is not None else DEFAULT_POLICY,
        name=f"transient LHS ({method}, dt={dt:.3g}s)",
    )
    add_counter("lu_orderings")
    return lhs, history


def transient_analysis_multi(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    scenarios: Sequence[Mapping[str, Stimulus]],
    method: str = "trapezoidal",
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    policy: Optional[FallbackPolicy] = None,
    x0: Optional[np.ndarray] = None,
    start: int = 0,
) -> List[TransientResult]:
    """Integrate one circuit under several source scenarios at once.

    Each scenario maps independent-source names to replacement
    :class:`Stimulus` objects (the multi-aggressor / multi-victim sweep
    of a noise analysis); unnamed sources keep their own stimulus, and
    an empty mapping reproduces :func:`transient_analysis` exactly.

    The circuit is assembled and the one-step matrix factorized *once*;
    every step then advances all scenarios together through one SuperLU
    back-substitution on a ``(size, num_scenarios)`` block -- the
    classic structure-sharing multi-RHS win.  Returns one
    :class:`TransientResult` per scenario, in order.

    A march resumes where an earlier one stopped: ``start`` is that
    march's last whole step and ``x0`` its final states, ``(size,
    num_scenarios)`` (each result's :attr:`TransientResult.state`, one
    column per scenario).  The resumed results hold samples ``start,
    ..., ceil(t_stop / dt)`` and equal that tail of one uninterrupted
    march bit for bit: every step does the same arithmetic on the same
    operands.
    """
    return _march(
        circuit, t_stop, dt, scenarios, method, probe_nodes, probe_branches,
        policy, x0=x0, start=start,
    )


def _march(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    scenarios: Sequence[Mapping[str, Stimulus]],
    method: str,
    probe_nodes: Optional[Sequence[str]],
    probe_branches: Optional[Sequence[str]],
    policy: Optional[FallbackPolicy],
    x0: Optional[np.ndarray] = None,
    start: int = 0,
) -> List[TransientResult]:
    """The fixed-step march behind both public transient entry points.

    ``x0`` replaces the DC operating point: a ``(size,)`` vector (the
    single-scenario entry's initial state) broadcasts across the
    scenario columns, a ``(size, count)`` block sets each column's.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    if t_stop < dt:
        raise ValueError("t_stop must be at least one time step")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not scenarios:
        raise ValueError("scenarios must name at least one source mapping")

    system = build_mna(circuit)
    nodes, branches, node_rows, branch_rows = _resolve_probes(
        system, circuit, probe_nodes, probe_branches
    )

    steps = int(np.ceil(t_stop / dt))
    if not 0 <= start < steps:
        raise ValueError(
            f"start must be a whole step in [0, {steps}), got {start}"
        )
    if start and x0 is None:
        raise ValueError("a march resumed at start > 0 needs its states x0")
    times = np.arange(start, steps + 1) * dt
    count = len(scenarios)

    # (samples, rows, count): every scenario's source trajectory on the
    # source rows, time axis leading so each step reads one contiguous
    # block.  The base stimulus matrix is evaluated once and shared;
    # each scenario re-evaluates only its overridden sources.
    rows = system.source_rows()
    b_all = system.rhs_transient_batch_multi(times, scenarios)
    add_counter("rhs_batched_steps", len(times) * count)

    if x0 is None:
        b0 = np.zeros((system.size, count))
        b0[rows] = b_all[0]
        x = solve_dc(system, rhs=b0)
    else:
        x = np.array(x0, dtype=float)
        if x.ndim == 1:
            x = np.repeat(x[:, None], count, axis=1)
        if x.shape != (system.size, count):
            raise ValueError(
                f"x0 must have shape ({system.size},) or "
                f"({system.size}, {count}), got {np.shape(x0)}"
            )
    volt = np.empty((count, len(nodes), len(times)))
    curr = np.empty((count, len(branches), len(times)))
    with stage("solve"):
        lhs, history = _factorize_step(system, dt, method, policy)
        _record_block(volt, curr, 0, x, node_rows, branch_rows)
        for n in range(1, len(times)):
            # The source rows add b in the order ``history @ x + b[n-1]
            # + b[n]`` would; every other row of b is zero.
            rhs = history @ x
            if method == "trapezoidal":
                rhs[rows] += b_all[n - 1]
            rhs[rows] += b_all[n]
            x = lhs.solve(rhs)
            _record_block(volt, curr, n, x, node_rows, branch_rows)
        add_counter("transient_steps", (steps - start) * count)

    return [
        TransientResult(
            times=times,
            node_voltages={n: volt[k, i] for i, n in enumerate(nodes)},
            branch_currents={b: curr[k, i] for i, b in enumerate(branches)},
            method=method,
            dt=dt,
            state=x[:, k].copy(),
        )
        for k in range(count)
    ]


def _record_block(
    volt: np.ndarray,
    curr: np.ndarray,
    step: int,
    x: np.ndarray,
    node_rows: np.ndarray,
    branch_rows: np.ndarray,
) -> None:
    # x is (size, scenarios), targets are (scenarios, probes, steps).
    # One gather per step; ground probes carry row -1, which the mask
    # zeroes before the wrapped-index value can leak through.
    volt[:, :, step] = np.where(node_rows[:, None] >= 0, x[node_rows, :], 0.0).T
    curr[:, :, step] = x[branch_rows, :].T

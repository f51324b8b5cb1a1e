"""AC small-signal analysis: solve ``(G + j 2 pi f C) x = b_ac`` per point.

Used by the paper's frequency-domain accuracy comparisons (Fig. 2(b) and
the spiral experiment): a 1-V AC source drives the aggressor and the
complex response is swept from 1 Hz to 10 GHz.

Every sweep matrix ``G + j omega C`` shares one sparsity structure (the
union of G's and C's patterns), so the sweep is batched: the structure is
assembled once, and the fill-reducing column ordering computed by the
first factorization is reused for every later frequency.  SciPy's SuperLU
exposes no symbolic-reuse API, but its COLAMD ordering is a function of
the structure only -- pre-permuting the columns and factorizing with
``permc_spec="NATURAL"`` skips the ordering work at each subsequent
point.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.circuit.mna import build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.waveform import ACResult
from repro.health.solvers import DEFAULT_POLICY, FallbackPolicy, factorize
from repro.pipeline.profiling import add_counter, stage


def logspace_frequencies(
    f_start: float = 1.0,
    f_stop: float = 10e9,
    points_per_decade: int = 20,
) -> np.ndarray:
    """Logarithmically spaced sweep like SPICE ``.AC DEC``."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), count)


def _expand_onto(mat: csc_matrix, union: csc_matrix) -> Optional[np.ndarray]:
    """Scatter ``mat``'s data into ``union``-structure layout.

    Both matrices must be canonical CSC (sorted indices, no duplicates);
    entries are then totally ordered by ``(column, row)``, so one
    ``searchsorted`` on the fused key locates every entry's slot in the
    union data array.  Returns ``None`` when ``mat`` has an entry outside
    ``union``'s pattern (possible only through exact cancellation in the
    ``G + C`` sum), signalling the caller to fall back.
    """
    mat = mat.tocsc()
    mat.sort_indices()
    n_rows = np.int64(union.shape[0])
    mat_key = (
        np.repeat(np.arange(mat.shape[1], dtype=np.int64), np.diff(mat.indptr))
        * n_rows
        + mat.indices
    )
    union_key = (
        np.repeat(
            np.arange(union.shape[1], dtype=np.int64), np.diff(union.indptr)
        )
        * n_rows
        + union.indices
    )
    slots = np.searchsorted(union_key, mat_key)
    if np.any(slots >= union_key.size) or np.any(
        union_key[np.minimum(slots, union_key.size - 1)] != mat_key
    ):
        return None
    out = np.zeros(union.nnz, dtype=complex)
    out[slots] = mat.data
    return out


class SweepSolver:
    """Batched solves of ``(G + j omega C) x = b`` over a frequency sweep.

    The constructor aligns G and C onto their union sparsity structure
    (each matrix's data is scattered into the union layout by a fused
    column-row key lookup, so both data arrays index the same
    pattern).  The first :meth:`solve` runs a full SuperLU
    factorization and records its fill-reducing column ordering; later
    solves factorize the pre-permuted matrix with
    ``permc_spec="NATURAL"``, reusing that ordering.  If the alignment
    cannot be established (a degenerate pattern mismatch) the solver
    falls back to an independent factorization per point.

    Numerical failures escalate per sweep point: when the fast direct
    path cannot factorize (or returns a non-finite solution), the point
    is re-solved through :func:`repro.health.solvers.factorize` --
    Tikhonov-regularized LU, then GMRES + incomplete LU -- raising
    typed errors only when the whole chain is exhausted.
    """

    def __init__(self, g_mat, c_mat, policy: Optional[FallbackPolicy] = None) -> None:
        g_csc = g_mat.tocsc().astype(complex)
        c_csc = c_mat.tocsc().astype(complex)
        self._g = g_csc
        self._c = c_csc
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._perm_c: Optional[np.ndarray] = None
        self._perm_structure: Optional[tuple] = None

        union = (g_csc + c_csc).tocsc()
        union.sort_indices()
        g_data = _expand_onto(g_csc, union)
        c_data = _expand_onto(c_csc, union)
        self._aligned = g_data is not None and c_data is not None
        if self._aligned:
            self._indptr = union.indptr
            self._indices = union.indices
            self._shape = union.shape
            self._g_data = g_data
            self._c_data = c_data

    def solve(self, omega: float, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(G + j omega C) x = rhs`` for one sweep point.

        ``rhs`` may be 2-D ``(size, k)`` -- all ``k`` scenario columns
        are back-substituted against the point's one factorization.
        """
        if not self._aligned:
            a_mat = (self._g + 1j * omega * self._c).tocsc()
            try:
                add_counter("lu_orderings")
                x = splu(a_mat).solve(rhs)
                if np.all(np.isfinite(x)):
                    return x
            except (RuntimeError, ValueError):
                pass
            return self._escalate(a_mat, rhs, omega)
        data = self._g_data + 1j * omega * self._c_data
        a_mat = csc_matrix(
            (data, self._indices, self._indptr), shape=self._shape
        )
        try:
            if self._perm_c is None:
                lu = splu(a_mat)
                self._perm_c = lu.perm_c.copy()
                add_counter("lu_orderings")
                x = lu.solve(rhs)
            else:
                permuted = csc_matrix(
                    (data[self._permuted_gather()],) + self._perm_structure,
                    shape=self._shape,
                )
                lu = splu(permuted, permc_spec="NATURAL")
                y = lu.solve(rhs)
                x = np.empty_like(y)
                x[self._perm_c] = y
            if np.all(np.isfinite(x)):
                return x
        except (RuntimeError, ValueError):
            pass
        return self._escalate(a_mat, rhs, omega)

    def _permuted_gather(self) -> np.ndarray:
        """Data-gather realizing ``a_mat[:, perm_c]`` without re-slicing.

        The column permutation only *moves* entries, so slicing an
        index-valued template matrix once yields, in its ``data``, the
        gather that maps any future point's aligned data array straight
        into the permuted CSC layout -- every sweep point after the
        first reuses the same indptr/indices and just refreshes data.
        """
        if self._perm_structure is None:
            template = csc_matrix(
                (
                    np.arange(self._indices.size, dtype=np.int64),
                    self._indices,
                    self._indptr,
                ),
                shape=self._shape,
            )
            permuted = template[:, self._perm_c].tocsc()
            permuted.sort_indices()
            self._perm_structure = (permuted.indices, permuted.indptr)
            self._gather = permuted.data
        return self._gather

    def _escalate(
        self, a_mat: csc_matrix, rhs: np.ndarray, omega: float
    ) -> np.ndarray:
        """Route one defective sweep point through the fallback chain."""
        add_counter("solve_fallbacks")
        return factorize(
            a_mat,
            policy=self._policy,
            name=f"AC system at omega={omega:.4g} rad/s",
        ).solve(rhs)


def ac_analysis(
    circuit: Circuit,
    frequencies: Iterable[float],
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    policy: Optional[FallbackPolicy] = None,
) -> ACResult:
    """Frequency sweep of a linear circuit.

    The one-scenario case of :func:`ac_analysis_multi`: both run the
    same sweep, this one on a single source column.

    Parameters
    ----------
    circuit:
        The netlist; sources participate through their ``Stimulus.ac``
        phasors (quiet sources have ``ac = 0``).
    frequencies:
        Sweep points in Hz (see :func:`logspace_frequencies`).
    probe_nodes, probe_branches:
        Names to record; all nodes (and no branches) by default.
    """
    return ac_analysis_multi(
        circuit, frequencies, [{}], probe_nodes, probe_branches, policy
    )[0]


def ac_analysis_multi(
    circuit: Circuit,
    frequencies: Iterable[float],
    scenarios: Sequence[dict],
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    policy: Optional[FallbackPolicy] = None,
) -> List[ACResult]:
    """Frequency sweep of one circuit under several source scenarios.

    Each scenario maps independent-source names to AC phasors (see
    :meth:`~repro.circuit.mna.MnaSystem.rhs_ac_batch`); an empty mapping
    keeps every source's own ``Stimulus.ac``.  All scenarios share each
    sweep point's factorization -- the solve is one multi-RHS
    back-substitution per frequency -- and the result is one
    :class:`ACResult` per scenario, in order.
    """
    system = build_mna(circuit)
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency sweep is empty")
    if np.any(freqs < 0):
        raise ValueError("frequencies must be non-negative")
    if not scenarios:
        raise ValueError("scenarios must name at least one source mapping")

    nodes = list(probe_nodes) if probe_nodes is not None else circuit.nodes
    branches = list(probe_branches) if probe_branches is not None else []
    node_rows = np.array([system.node_row(n) for n in nodes], dtype=int)
    branch_rows = np.array([system.branch_row(b) for b in branches], dtype=int)

    rhs = system.rhs_ac_batch(scenarios)
    add_counter("rhs_batched_steps", rhs.shape[1])
    solutions = np.empty(
        (system.size, freqs.size, len(scenarios)), dtype=complex
    )
    with stage("solve"):
        solver = SweepSolver(system.G, system.C, policy=policy)
        for k, freq in enumerate(freqs):
            omega = 2.0 * np.pi * freq
            solutions[:, k, :] = solver.solve(omega, rhs)
        add_counter("ac_points", freqs.size)

    volt = np.where(
        node_rows[:, None, None] >= 0, solutions[node_rows], 0.0
    )
    curr = solutions[branch_rows]
    return [
        ACResult(
            frequencies=freqs,
            node_voltages={n: volt[i, :, s] for i, n in enumerate(nodes)},
            branch_currents={b: curr[i, :, s] for i, b in enumerate(branches)},
        )
        for s in range(len(scenarios))
    ]

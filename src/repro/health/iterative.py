"""Preconditioned iterative solves for operator-shaped systems.

The hierarchical extraction path (:mod:`repro.extraction.hierarchical`)
exposes ``L`` as a matvec, never as an ``(n, n)`` array, so anything
``L``-inverse-flavoured at the 10^6-filament tier must be solved
iteratively.  Two surfaces live here, both behind the same
:class:`~repro.health.solvers.FallbackPolicy` escalation discipline as
the dense chains:

- :func:`stacked_jacobi_cg` -- many small SPD systems at once (the
  wVPEC window solves: a ``(K, b, b)`` stack of gathered submatrices),
  Jacobi-preconditioned CG vectorized across the stack.  Systems that
  refuse to converge report back via the mask; the caller falls back to
  the direct LAPACK chain for exactly those.
- :func:`operator_solve` -- one big SPD operator with multiple
  right-hand sides, solved with block-Jacobi-preconditioned CG on the
  operator's ``matmat`` (the preconditioner is the exact inverse of the
  cluster tree's diagonal leaf blocks, i.e. the near-field envelope of
  ``L``).  Non-converged columns escalate to GMRES with the same
  preconditioner, then raise :class:`ConvergenceError` -- no silent
  densification, ever.

Every attempt records ``solve_<method>`` counters through the standard
:class:`~repro.health.solvers.AttemptLog`, so profiles show how often
the iterative fast path held.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, gmres

from repro.health.errors import ConvergenceError
from repro.health.solvers import (
    DEFAULT_POLICY,
    AttemptLog,
    FallbackPolicy,
    require_finite,
)
from repro.pipeline.profiling import add_counter

#: Relative residual target of the window-solve CG.  Direct solves are
#: accurate to machine precision; driving CG to 1e-12 keeps the sparse
#: approximate inverse (and every screening/peak decision built on it)
#: within 1e-8 of the direct construction on realistic conditioning.
WINDOW_CG_RTOL = 1e-12


def stacked_jacobi_cg(
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    rtol: float = WINDOW_CG_RTOL,
    maxiter: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobi-preconditioned CG on a ``(K, b, b)`` stack of SPD systems.

    Solves ``a_stack[k] @ x[k] = b_stack[k]`` for every ``k``
    simultaneously (einsum-vectorized across the stack, so the per-
    iteration cost is one batched matvec regardless of ``K``).  Returns
    ``(solutions, converged)`` where ``converged[k]`` certifies the true
    residual of system ``k`` met ``rtol * ||b[k]||``; callers route the
    holdouts through the direct chain.  Converged systems freeze (their
    updates are masked), so a stack member that converged early is
    untouched by later iterations -- the result is deterministic for a
    given stack regardless of its neighbors' conditioning.
    """
    a_stack = np.asarray(a_stack, dtype=float)
    b_stack = np.asarray(b_stack, dtype=float)
    count, width = b_stack.shape
    if maxiter is None:
        maxiter = 8 * width + 32
    x = np.zeros_like(b_stack)
    if count == 0:
        return x, np.ones(0, dtype=bool)
    diag = np.ascontiguousarray(
        a_stack[:, np.arange(width), np.arange(width)]
    )
    safe_diag = np.where(diag > 0.0, diag, 1.0)
    residual = b_stack.copy()
    target = rtol * np.linalg.norm(b_stack, axis=1)
    converged = np.linalg.norm(residual, axis=1) <= target
    z = residual / safe_diag
    direction = z.copy()
    rz = np.einsum("kb,kb->k", residual, z)
    broken = np.zeros(count, dtype=bool)
    for _ in range(maxiter):
        active = ~(converged | broken)
        if not active.any():
            break
        q = np.einsum("kij,kj->ki", a_stack, direction)
        pq = np.einsum("kb,kb->k", direction, q)
        # A non-positive curvature means the system is not SPD (or has
        # collapsed numerically); freeze it as non-converged so the
        # caller's direct chain -- which has a Tikhonov tier -- takes it.
        broken |= active & (pq <= 0.0)
        active &= ~broken
        step = np.where(active, rz / np.where(pq != 0.0, pq, 1.0), 0.0)
        x += step[:, None] * direction
        residual -= step[:, None] * q
        converged |= active & (np.linalg.norm(residual, axis=1) <= target)
        z = residual / safe_diag
        rz_next = np.einsum("kb,kb->k", residual, z)
        beta = np.where(
            active & ~converged, rz_next / np.where(rz != 0.0, rz, 1.0), 0.0
        )
        direction = np.where(
            (active & ~converged)[:, None],
            z + beta[:, None] * direction,
            direction,
        )
        rz = rz_next
    return x, converged & ~broken


class BlockJacobiPreconditioner:
    """Exact inverse of the cluster tree's diagonal leaf blocks.

    The hierarchical operator stores every diagonal leaf pair as an
    exact dense near-field block; block-diagonal of those is the
    strongest part of ``L`` (self plus nearest-neighbour coupling), so
    Cholesky-factoring each leaf once gives a cheap, spectrally
    effective preconditioner for CG on the full operator.  Leaves whose
    factorization fails (numerically non-SPD extractions under fault
    injection) fall back to LU, recorded on the shared log.
    """

    def __init__(self, operator: Any, log: Optional[AttemptLog] = None) -> None:
        log = log if log is not None else AttemptLog()
        self._perm = operator.perm
        self._n = operator.shape[0]
        self._solvers: List[Tuple[int, int, Callable[[np.ndarray], np.ndarray]]] = []
        for lo, hi, block in operator.leaf_diagonal_blocks():
            dense = np.asarray(block, dtype=float)
            try:
                factor = linalg.cho_factor(dense, lower=True, check_finite=False)
                self._solvers.append(
                    (
                        lo,
                        hi,
                        _CholeskyLeaf(factor),
                    )
                )
            except linalg.LinAlgError:
                log.record("leaf_cholesky", False, f"leaf [{lo}, {hi})")
                lu = linalg.lu_factor(dense, check_finite=False)
                self._solvers.append((lo, hi, _LULeaf(lu)))

    def __call__(self, residual: np.ndarray) -> np.ndarray:
        """Apply ``M^-1`` in axis-local coordinates (1-D or column stack)."""
        single = residual.ndim == 1
        tree = residual[self._perm]
        out = np.empty_like(tree)
        for lo, hi, solve in self._solvers:
            out[lo:hi] = solve(tree[lo:hi])
        result = np.empty_like(out)
        result[self._perm] = out
        return result if not single else result


class _CholeskyLeaf:
    __slots__ = ("_factor",)

    def __init__(self, factor: Tuple[np.ndarray, bool]) -> None:
        self._factor = factor

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        return linalg.cho_solve(self._factor, rhs, check_finite=False)


class _LULeaf:
    __slots__ = ("_factor",)

    def __init__(self, factor: Tuple[np.ndarray, np.ndarray]) -> None:
        self._factor = factor

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        return linalg.lu_solve(self._factor, rhs, check_finite=False)


def operator_solve(
    operator: Any,
    rhs: np.ndarray,
    policy: FallbackPolicy = DEFAULT_POLICY,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    rtol: float = 1e-12,
    maxiter: Optional[int] = None,
    name: str = "hierarchical system",
    log: Optional[AttemptLog] = None,
) -> np.ndarray:
    """Solve ``operator @ x = rhs`` through matvecs only.

    ``operator`` is anything with ``shape``, ``matmat`` and ``perm`` /
    ``leaf_diagonal_blocks`` (a
    :class:`~repro.extraction.hierarchical.LazyInductance`); ``rhs`` may
    be one vector or a column stack.  The chain is block-Jacobi CG ->
    GMRES (same preconditioner, policy tolerances) ->
    :class:`ConvergenceError`.  Nothing along it materializes the
    operator.
    """
    log = log if log is not None else AttemptLog()
    b = np.asarray(rhs, dtype=float)
    require_finite(b, name=f"{name} right-hand side")
    single = b.ndim == 1
    columns = b[:, None] if single else b
    n, k = columns.shape
    if maxiter is None:
        maxiter = max(200, 4 * int(np.sqrt(n)) + 64)
    apply_m = (
        preconditioner
        if preconditioner is not None
        else BlockJacobiPreconditioner(operator, log=log)
    )

    x = np.zeros_like(columns)
    residual = columns.copy()
    target = rtol * np.linalg.norm(columns, axis=0)
    converged = np.linalg.norm(residual, axis=0) <= target
    z = apply_m(residual)
    direction = z.copy()
    rz = np.einsum("nk,nk->k", residual, z)
    iterations = 0
    for _ in range(maxiter):
        if converged.all():
            break
        iterations += 1
        q = operator.matmat(direction)
        pq = np.einsum("nk,nk->k", direction, q)
        active = ~converged & (pq > 0.0)
        step = np.where(active, rz / np.where(pq != 0.0, pq, 1.0), 0.0)
        x += step[None, :] * direction
        residual -= step[None, :] * q
        converged |= np.linalg.norm(residual, axis=0) <= target
        z = apply_m(residual)
        rz_next = np.einsum("nk,nk->k", residual, z)
        beta = np.where(~converged, rz_next / np.where(rz != 0.0, rz, 1.0), 0.0)
        direction = np.where(
            ~converged[None, :], z + beta[None, :] * direction, direction
        )
        rz = rz_next
    add_counter("operator_cg_iterations", iterations)
    if converged.all():
        log.record("operator_cg", True, f"{iterations} iterations")
        return x[:, 0] if single else x
    log.record(
        "operator_cg",
        False,
        f"{int((~converged).sum())}/{k} columns past {maxiter} iterations",
    )

    if not policy.iterative:
        raise ConvergenceError(
            f"CG on {name} did not converge and the policy forbids "
            "further escalation",
            context={"name": name, "attempts": log.methods()},
        )
    shape = operator.shape
    linear = LinearOperator(shape, matvec=operator.matvec, dtype=np.float64)
    precond = LinearOperator(shape, matvec=apply_m, dtype=np.float64)
    for col in np.flatnonzero(~converged):
        solution, info = gmres(
            linear,
            columns[:, col],
            M=precond,
            rtol=max(policy.gmres_rtol, rtol),
            atol=0.0,
            restart=policy.gmres_restart,
            maxiter=policy.gmres_maxiter,
        )
        if info != 0 or not np.all(np.isfinite(solution)):
            log.record("operator_gmres", False, f"column {col}, info={info}")
            raise ConvergenceError(
                f"GMRES on {name} (column {col}) did not converge "
                f"(info={info})",
                context={"name": name, "attempts": log.methods()},
            )
        x[:, col] = solution
    log.record("operator_gmres", True)
    return x[:, 0] if single else x


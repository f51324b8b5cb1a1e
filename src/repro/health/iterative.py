"""Batched preconditioned CG for the wVPEC window solves.

:func:`stacked_jacobi_cg` solves many small SPD systems at once (a
``(K, b, b)`` stack of gathered window submatrices),
Jacobi-preconditioned CG vectorized across the stack.  It is the
backend :func:`repro.vpec.windowing.windowed_inverse` selects under
``solver="iterative"``.  Systems that refuse to converge report back
via the mask, and the caller solves exactly those on the direct path
(batched LAPACK, with :func:`repro.health.solvers.dense_solve` behind
it).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

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

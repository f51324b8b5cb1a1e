"""Passivity verification (Section III: Theorems 1 and 2, Lemma 1).

The paper proves three properties of the full VPEC circuit matrix and
designs both sparsifications to preserve the ones passivity needs:

- ``Ghat`` is symmetric positive definite (Theorem 1: the magnetic energy
  ``1/2 sum G_ij A_i A_j`` is positive);
- ``Ghat`` is *strictly diagonally dominant* (Theorem 2), which is what
  makes truncation safe;
- all effective resistances are positive (Lemma 1) -- equivalently every
  off-diagonal of ``Ghat`` is negative and every row sum positive.

These checks are used by the test suite (property-based tests assert them
over random geometries) and are available to users as a model audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vpec.effective import VpecNetwork


def is_symmetric(matrix: np.ndarray, rel_tol: float = 1e-9) -> bool:
    """Symmetry up to a relative tolerance."""
    scale = np.max(np.abs(matrix)) or 1.0
    return bool(np.all(np.abs(matrix - matrix.T) <= rel_tol * scale))


def is_positive_definite(matrix: np.ndarray) -> bool:
    """SPD test via Cholesky (the passivity criterion)."""
    if not is_symmetric(matrix):
        return False
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def is_strictly_diagonally_dominant(
    matrix: np.ndarray, rel_tol: float = 1e-12
) -> bool:
    """Strict row diagonal dominance ``|a_ii| > sum_j |a_ij|``.

    The tolerance absorbs floating-point cancellation; rows where the
    margin is within ``rel_tol`` of the diagonal are rejected.
    """
    diag = np.abs(np.diag(matrix))
    off = np.sum(np.abs(matrix), axis=1) - diag
    return bool(np.all(diag - off > rel_tol * diag))


def diagonal_dominance_margin(matrix: np.ndarray) -> float:
    """Worst-row margin ``min_i (|a_ii| - sum off) / |a_ii|``."""
    diag = np.abs(np.diag(matrix))
    off = np.sum(np.abs(matrix), axis=1) - diag
    return float(np.min((diag - off) / diag))


@dataclass(frozen=True)
class PassivityReport:
    """Audit result of one VPEC network."""

    symmetric: bool
    positive_definite: bool
    diagonally_dominant: bool
    dominance_margin: float
    resistances_positive: bool
    min_ground_conductance: float

    @property
    def passive(self) -> bool:
        """The passivity criterion proper: symmetric positive definite."""
        return self.symmetric and self.positive_definite


def audit_network(network: VpecNetwork) -> PassivityReport:
    """Full Section-III audit of one effective-resistance network."""
    dense = network.dense_ghat()
    off_diagonal = dense[~np.eye(dense.shape[0], dtype=bool)]
    ground = network.ground_conductances()
    return PassivityReport(
        symmetric=is_symmetric(dense),
        positive_definite=is_positive_definite(dense),
        diagonally_dominant=is_strictly_diagonally_dominant(dense),
        dominance_margin=diagonal_dominance_margin(dense),
        resistances_positive=bool(np.all(off_diagonal <= 0.0))
        and bool(np.all(ground > 0.0)),
        min_ground_conductance=float(np.min(ground)) if ground.size else 0.0,
    )

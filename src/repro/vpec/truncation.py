"""Truncation-based sparsification: the tVPEC model (Section IV).

Because ``Ghat`` is strictly diagonally dominant (Theorem 2), zeroing any
set of off-diagonal entries leaves it positive definite -- the truncated
model is guaranteed passive.  The paper gives two selection rules:

- *geometric* truncation (``gtVPEC``) for the aligned bus: keep coupling
  between segments whose bit distance is below ``NW`` and whose
  along-the-line segment distance is below ``NL``;
- *numerical* truncation (``ntVPEC``) for arbitrary shapes: keep entries
  whose coupling strength (off-diagonal over its row's diagonal) reaches
  a threshold.

Both return new :class:`~repro.vpec.effective.VpecNetwork` objects with
the same diagonal; the ground resistances are re-derived from the
truncated row sums, which preserves diagonal dominance.

The *localized VPEC* baseline of [15] -- couplings between adjacent
filaments only -- is implemented as one more truncation mask, following
the paper's own comparison methodology ("we find an accurate full VPEC
model and then only keep the adjacently coupled resistances").
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.geometry.system import FilamentSystem
from repro.vpec.effective import VpecNetwork


def _apply_mask(network: VpecNetwork, keep: np.ndarray) -> VpecNetwork:
    """New network keeping the diagonal plus the masked off-diagonals.

    ``keep`` is a boolean (n, n) matrix; it is symmetrized so the result
    stays symmetric.
    """
    dense = network.dense_ghat()
    keep = np.asarray(keep, dtype=bool)
    keep = keep | keep.T
    np.fill_diagonal(keep, True)
    truncated = np.where(keep, dense, 0.0)
    return VpecNetwork(
        indices=list(network.indices),
        lengths=network.lengths.copy(),
        ghat=sparse.csr_matrix(truncated),
    )


def coupling_strengths(network: VpecNetwork) -> np.ndarray:
    """Row-wise coupling strength ``|Ghat_ij| / Ghat_ii`` (zero diagonal)."""
    dense = network.dense_ghat()
    diag = np.diag(dense).copy()
    if np.any(diag <= 0):
        raise ValueError("Ghat diagonal must be positive")
    strengths = np.abs(dense) / diag[:, None]
    np.fill_diagonal(strengths, 0.0)
    return strengths


def truncate_numerical(network: VpecNetwork, threshold: float) -> VpecNetwork:
    """ntVPEC: drop couplings below the strength threshold.

    An off-diagonal entry is kept when its coupling strength reaches the
    threshold *in either of its two rows*, which keeps the mask symmetric
    (the stronger view of an asymmetric pair wins).
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    strengths = coupling_strengths(network)
    return _apply_mask(network, strengths >= threshold)


def truncate_geometric(
    network: VpecNetwork,
    system: FilamentSystem,
    nw: int,
    nl: int,
) -> VpecNetwork:
    """gtVPEC: keep couplings inside the ``(NW, NL)`` truncating window.

    ``NW`` counts coupled segments across the bus width (wire index
    distance), ``NL`` along the wire length (segment index distance); a
    window of ``(bits, segments)`` keeps everything.  Applicable to the
    aligned parallel bus, where every segment sees the same window.
    """
    if nw < 1 or nl < 1:
        raise ValueError("window dimensions must be >= 1")
    wires = system.filament_wires()[network.indices]
    segments = np.array([system[i].segment for i in network.indices])
    wire_dist = np.abs(wires[:, None] - wires[None, :])
    seg_dist = np.abs(segments[:, None] - segments[None, :])
    return _apply_mask(network, (wire_dist < nw) & (seg_dist < nl))


def localized_mask(
    network: VpecNetwork, system: FilamentSystem
) -> np.ndarray:
    """Adjacency mask of the localized-VPEC baseline of [15]."""
    position = {global_i: a for a, global_i in enumerate(network.indices)}
    n = network.size
    keep = np.zeros((n, n), dtype=bool)
    for i, j in system.adjacent_pairs():
        a, b = position.get(i), position.get(j)
        if a is not None and b is not None:
            keep[a, b] = keep[b, a] = True
    return keep


def localize(network: VpecNetwork, system: FilamentSystem) -> VpecNetwork:
    """The localized VPEC model: adjacent couplings only.

    This is the paper's stand-in for the integration-based model of [15]
    (see Section II-C, footnote 1: the localized model used for
    comparison keeps only the adjacently coupled resistances of the
    accurate full VPEC model).
    """
    return _apply_mask(network, localized_mask(network, system))

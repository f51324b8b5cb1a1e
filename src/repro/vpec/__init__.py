"""The VPEC model family -- the paper's contribution.

Public API
----------
- flows: :func:`~repro.vpec.flow.full_vpec`,
  :func:`~repro.vpec.flow.truncated_vpec`,
  :func:`~repro.vpec.flow.windowed_vpec`,
  :func:`~repro.vpec.flow.localized_vpec`
  (each returns a :class:`~repro.vpec.flow.VpecBuildResult`);
- the effective-resistance network:
  :class:`~repro.vpec.effective.VpecNetwork`,
  :func:`~repro.vpec.full.full_vpec_networks`,
  :func:`~repro.vpec.full.invert_spd`;
- sparsification primitives in :mod:`repro.vpec.truncation` and
  :mod:`repro.vpec.windowing`;
- circuit assembly: :func:`~repro.vpec.builder.build_vpec` /
  :class:`~repro.vpec.builder.VpecModel`;
- passivity audits in :mod:`repro.vpec.passivity`.
"""

from repro.vpec.builder import UNIT_INDUCTANCE, VpecModel, build_vpec
from repro.vpec.effective import VpecNetwork
from repro.vpec.flow import (
    VpecBuildResult,
    full_vpec,
    localized_vpec,
    truncated_vpec,
    windowed_vpec,
)
from repro.vpec.full import full_vpec_networks, invert_spd
from repro.vpec.passivity import (
    PassivityReport,
    audit_network,
    diagonal_dominance_margin,
    is_positive_definite,
    is_strictly_diagonally_dominant,
    is_symmetric,
)
from repro.vpec.truncation import (
    coupling_strengths,
    localize,
    truncate_geometric,
    truncate_numerical,
)
from repro.vpec.windowing import (
    MERGE_RULES,
    geometric_windows,
    numerical_windows,
    symmetrize_windows,
    windowed_inverse,
    windowed_vpec_networks,
)

__all__ = [
    "VpecModel",
    "VpecNetwork",
    "VpecBuildResult",
    "UNIT_INDUCTANCE",
    "build_vpec",
    "full_vpec",
    "truncated_vpec",
    "windowed_vpec",
    "localized_vpec",
    "full_vpec_networks",
    "invert_spd",
    "coupling_strengths",
    "truncate_geometric",
    "truncate_numerical",
    "localize",
    "geometric_windows",
    "numerical_windows",
    "symmetrize_windows",
    "windowed_inverse",
    "windowed_vpec_networks",
    "MERGE_RULES",
    "PassivityReport",
    "audit_network",
    "is_symmetric",
    "is_positive_definite",
    "is_strictly_diagonally_dominant",
    "diagonal_dominance_margin",
]

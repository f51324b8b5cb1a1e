"""Analytic 2.5-D capacitance extraction (the FastCap / lookup substitute).

The paper extracts capacitance from a 2.5-D lookup table interpolated from
FastCap [18] and -- because capacitive coupling is short range -- keeps
*adjacent couplings only*.  We reproduce that model class analytically with
the widely used Sakurai-Tamaru fitted formulas for a conductor above a
ground plane:

- ground capacitance per unit length:
  ``C_g/l = eps [ w/h + 0.77 + 1.06 (w/h)^0.25 + 1.06 (t/h)^0.5 ]``;
- lateral coupling per unit length between parallel neighbors at
  edge-to-edge spacing ``s``:
  ``C_c/l = eps [ 0.03 w/h + 0.83 t/h - 0.07 (t/h)^0.222 ] (s/h)^-1.34``.

Coupling is only generated for pairs the geometry layer marks *adjacent*
(same definition the paper uses), over their axial overlap length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.extraction.constants import EPS_0, LOW_K_EPS_R
from repro.geometry.system import FilamentSystem


@dataclass(frozen=True)
class CapacitanceModel:
    """Technology parameters of the 2.5-D capacitance model.

    Parameters
    ----------
    eps_r:
        Relative dielectric constant (the paper uses low-k, eps_r = 2).
    height:
        Dielectric height between the wire bottom and the ground plane,
        meters.
    """

    eps_r: float = LOW_K_EPS_R
    height: float = 1e-6

    @property
    def permittivity(self) -> float:
        """Dielectric permittivity, F/m."""
        return EPS_0 * self.eps_r

    def ground_capacitance_per_length(self, width: float, thickness: float) -> float:
        """Sakurai-Tamaru area + fringe capacitance to ground, F/m."""
        if width <= 0 or thickness <= 0:
            raise ValueError("width and thickness must be positive")
        w_h = width / self.height
        t_h = thickness / self.height
        return self.permittivity * (
            w_h + 0.77 + 1.06 * w_h**0.25 + 1.06 * t_h**0.5
        )

    def crossing_capacitance(self, area: float, gap: float) -> float:
        """Inter-layer crossing capacitance: plate term plus 15% fringe.

        ``area`` is the plan-view crossing footprint, ``gap`` the
        face-to-face dielectric thickness.
        """
        if area <= 0 or gap <= 0:
            raise ValueError("area and gap must be positive")
        return 1.15 * self.permittivity * area / gap

    def coupling_capacitance_per_length(
        self, thickness: float, spacing: float, width: float
    ) -> float:
        """Sakurai-Tamaru lateral coupling capacitance, F/m.

        ``spacing`` is the edge-to-edge gap between the two conductors.
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        w_h = width / self.height
        t_h = thickness / self.height
        s_h = spacing / self.height
        coefficient = 0.03 * w_h + 0.83 * t_h - 0.07 * t_h**0.222
        return self.permittivity * max(coefficient, 0.0) * s_h**-1.34


def extract_capacitances(
    system: FilamentSystem, model: CapacitanceModel = CapacitanceModel()
) -> Tuple[np.ndarray, Dict[Tuple[int, int], float]]:
    """Ground and coupling capacitances of a filament system.

    Returns
    -------
    ground:
        Array of per-filament capacitance to ground, farads, shape (n,).
    coupling:
        ``{(i, j): C}`` for each adjacent pair ``i < j`` (short-range
        coupling only, per the paper's setting), farads.
    """
    ground = np.array(
        [
            model.ground_capacitance_per_length(f.width, f.thickness) * f.length
            for f in system
        ]
    )
    # Per-filament geometry read once: axial span, and the two center
    # coordinates across the filament's axis (in axis order, as
    # ``Filament.lateral_distance_to`` takes them).
    spans = [f.axial_span for f in system]
    across = [
        tuple(c for k, c in enumerate(center) if k != f.axis.value)
        for f, center in zip(system, system.centers().tolist())
    ]
    widths = [f.width for f in system]
    thicknesses = [f.thickness for f in system]
    coupling: Dict[Tuple[int, int], float] = {}
    for i, j in system.adjacent_pairs():
        (lo_i, hi_i), (lo_j, hi_j) = spans[i], spans[j]
        overlap = min(hi_i, hi_j) - max(lo_i, lo_j)
        if overlap <= 0:
            continue
        (p_i, q_i), (p_j, q_j) = across[i], across[j]
        gap = math.hypot(p_j - p_i, q_j - q_i) - (widths[i] + widths[j]) / 2.0
        if gap <= 0:
            continue
        per_length = model.coupling_capacitance_per_length(
            thickness=min(thicknesses[i], thicknesses[j]),
            spacing=gap,
            width=min(widths[i], widths[j]),
        )
        coupling[(i, j)] = per_length * overlap
    # Inter-layer crossings (orthogonal wires): parallel-plate coupling
    # over the crossing footprint through the inter-layer dielectric.
    for i, j, area, gap in system.crossing_pairs():
        coupling[(i, j)] = coupling.get((i, j), 0.0) + model.crossing_capacitance(
            area, gap
        )
    return ground, coupling

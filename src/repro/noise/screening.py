"""Closed-form crosstalk screening estimates, evaluated columnar-style.

The screen computes a conservative peak-noise upper bound for *every*
victim/aggressor wire pair of a parasitic model in one vectorized pass.
Two physical channels are summed:

- **Capacitive (RC)**: the slope-limited Devgan bound.  For an RC
  circuit with monotone aggressor inputs, the victim excursion never
  exceeds ``slope * Cc * R_path`` where ``slope = Vdd / t_rise`` and
  ``R_path = Rd + R_wire`` is the resistance from the victim sink back
  to its holding driver.  This bound is provably conservative (the
  coupling current can never exceed ``Cc * slope``, and all of it would
  have to flow through ``R_path`` at DC to sustain the peak) -- the
  property suite exercises exactly this claim on randomized RC buses.
- **Inductive (RLC)**: partial-inductance coupling has no comparably
  tight closed form, so the screen uses a calibrated envelope::

      v_ind = Vdd * k(a, v) * kappa(d, prox) * boost(d, N) * headroom

  with ``k`` the wire-level inductive coupling coefficient
  ``|L_av| / sqrt(L_aa L_vv)`` and ``d`` the wire index distance.
  ``kappa(d, prox)`` blends two tables of normalized single-aggressor
  peaks (``peak / (Vdd k)``) measured on the paper's 64-bit bus
  geometry (1000 um lines, 10 ps rise): an *edge* table (aggressor at
  the bus edge, the worst positions) and an *interior* table ~30-45%
  lower, weighted by how close the pair's nearest member sits to a bus
  edge (the effect reaches ~16 wires in).  ``boost(d, N)`` grows
  linearly from 1 to 1.7 as a pair spans more than half of an
  ``N``-wire bus: 8/16-bit buses plateau above even the edge table
  (fewer neighbors carry the inductive return current).  ``headroom``
  (default 1.2) keeps the envelope above every measured calibration
  point -- across bus widths 8..64 and spacings 1..4 um the minimum
  margin including the default ``safety`` is ~1.03x (16-bit bus at
  4 um spacing, nearest neighbor) and >= 1.18x everywhere else.  The
  envelope scales up linearly for faster-than-reference rise times;
  slower edges keep the reference value (conservative, since slower
  aggressors inject less).

The measured calibration peaks *include* the capacitive contribution,
so the two channels are combined with ``max``, not ``+`` (summing
would double-count adjacent pairs); the ``max`` also preserves the
Devgan guarantee for RC-only models.  A global ``safety`` factor
multiplies the result.  The per-pair *noise area* estimate is the peak
bound times the victim's recovery time constant (rise time plus Elmore
delay), the width of the triangular pulse the bound describes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.timing import elmore_delays, wire_resistance
from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE, VDD
from repro.extraction.hierarchical import LazyInductance
from repro.extraction.parasitics import Parasitics
from repro.health import require_finite
from repro.pipeline.profiling import add_counter, stage

#: Rise time at which the inductive envelope constants were calibrated.
REFERENCE_RISE_TIME = 10e-12

#: Normalized single-aggressor peaks ``peak / (Vdd k)`` vs wire index
#: distance d = 1..63, measured on the 64-bit calibration bus (gwVPEC
#: b=8, 1 V / 10 ps step) with the *aggressor at the bus edge* -- the
#: worst pair positions.  Distances beyond the table clamp to the last
#: entry.
EDGE_KAPPA = (
    0.1359, 0.1566, 0.1451, 0.1327, 0.1191, 0.1044, 0.0938, 0.0923,
    0.0903, 0.0866, 0.0832, 0.0792, 0.0747, 0.0693, 0.0666, 0.0634,
    0.0593, 0.0544, 0.0494, 0.0467, 0.0427, 0.0386, 0.0361, 0.0330,
    0.0293, 0.0268, 0.0241, 0.0222, 0.0208, 0.0190, 0.0179, 0.0166,
    0.0151, 0.0144, 0.0134, 0.0130, 0.0122, 0.0116, 0.0107, 0.0098,
    0.0088, 0.0080, 0.0074, 0.0069, 0.0066, 0.0062, 0.0057, 0.0054,
    0.0049, 0.0044, 0.0041, 0.0037, 0.0032, 0.0030, 0.0028, 0.0027,
    0.0028, 0.0028, 0.0029, 0.0029, 0.0028, 0.0028, 0.0026,
)

#: The same measurement with both pair members in the bus *interior*
#: (aggressor at wire 32; quarter-position pairs measure identically).
#: Interior pairs see ~30-45% less normalized noise than edge pairs --
#: fewer-neighbor edges concentrate the inductive return current.
#: Sparse measurements linearly interpolated; beyond d = 31 any pair
#: of the calibration bus has a member near an edge, so the edge table
#: continues (conservative for wider buses).
CENTER_KAPPA = (
    0.0953, 0.1168, 0.1011, 0.0869, 0.0788, 0.0707, 0.0627, 0.0547,
    0.0522, 0.0498, 0.0473, 0.0448, 0.0421, 0.0393, 0.0366, 0.0339,
    0.0318, 0.0297, 0.0276, 0.0255, 0.0236, 0.0217, 0.0198, 0.0179,
    0.0179, 0.0178, 0.0178, 0.0177, 0.0177, 0.0176, 0.0176, 0.0166,
    0.0151, 0.0144, 0.0134, 0.0130, 0.0122, 0.0116, 0.0107, 0.0098,
    0.0088, 0.0080, 0.0074, 0.0069, 0.0066, 0.0062, 0.0057, 0.0054,
    0.0049, 0.0044, 0.0041, 0.0037, 0.0032, 0.0030, 0.0028, 0.0027,
    0.0028, 0.0028, 0.0029, 0.0029, 0.0028, 0.0028, 0.0026,
)

#: Wire-index reach of the edge effect: a pair blends from the center
#: to the edge table as its closest member comes within this many
#: wires of a bus edge (quarter-bus pairs of the 64-bit calibration,
#: 16 wires in, already measure center-identical).
EDGE_REACH = 16

#: Maximum additional boost for pairs *spanning* most of a small bus
#: (8/16-bit buses plateau above even the edge table; fit to cover
#: 8/16/32-bit measurements together with ``headroom``).
EDGE_BOOST = 0.7


class CalibrationRangeWarning(UserWarning):
    """The screened geometry falls outside the envelope's calibrated range.

    Raised (as a warning, the estimate still evaluates) when wire index
    distances exceed the kappa tables, so the envelope *extrapolates*
    by clamping to the last table entry.  The clamp is not an upper
    bound of the tail: the committed tables do not decay monotonically
    (both rise from 0.0027 at d = 56 to 0.0029 at d = 59-60, and the
    clamped d = 63 entry is 0.0026), so a clamped pair may be
    under-estimated.  ROADMAP.md open item 3 ("A screen calibrated
    where it runs") tracks the fix.  The ``noise_kappa_out_of_range``
    profiling counter records how many ordered pairs were clamped.
    """


@dataclass(frozen=True)
class KappaEnvelope:
    """One family's two-table inductive screening envelope.

    ``edge`` and ``center`` are the normalized-peak tables indexed by
    wire distance ``d - 1`` (see the module docstring); ``edge_reach``
    and ``edge_boost`` the blend/boost knobs measured with them.
    ``family`` labels the topology family the tables were calibrated
    on.  The module-level :data:`DEFAULT_ENVELOPE` carries the
    committed aligned-bus tables; :mod:`repro.noise.calibration` re-fits
    envelopes for other families from sampled exact solves.
    """

    edge: Tuple[float, ...]
    center: Tuple[float, ...]
    edge_reach: int = EDGE_REACH
    edge_boost: float = EDGE_BOOST
    family: str = "bus"

    def __post_init__(self) -> None:
        if len(self.edge) == 0 or len(self.edge) != len(self.center):
            raise ValueError(
                "edge and center tables must be non-empty and equally long"
            )
        if min(self.edge) <= 0 or min(self.center) <= 0:
            raise ValueError("kappa table entries must be positive")
        if self.edge_reach < 1:
            raise ValueError("edge_reach must be >= 1")
        if self.edge_boost < 0:
            raise ValueError("edge_boost must be >= 0")

    @property
    def reach(self) -> int:
        """Largest calibrated wire distance."""
        return len(self.edge)

    def to_dict(self) -> Dict[str, object]:
        return {
            "edge": list(self.edge),
            "center": list(self.center),
            "edge_reach": self.edge_reach,
            "edge_boost": self.edge_boost,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, payload) -> "KappaEnvelope":
        return cls(
            edge=tuple(float(v) for v in payload["edge"]),
            center=tuple(float(v) for v in payload["center"]),
            edge_reach=int(payload.get("edge_reach", EDGE_REACH)),
            edge_boost=float(payload.get("edge_boost", EDGE_BOOST)),
            family=str(payload.get("family", "bus")),
        )


#: The committed aligned-bus envelope (the measurements above).
DEFAULT_ENVELOPE = KappaEnvelope(edge=EDGE_KAPPA, center=CENTER_KAPPA)


@dataclass(frozen=True)
class ScreenConfig:
    """Parameters of the closed-form screening tier."""

    vdd: float = VDD
    rise_time: float = REFERENCE_RISE_TIME
    driver_resistance: float = DRIVER_RESISTANCE
    load_capacitance: float = LOAD_CAPACITANCE
    #: Envelope multiplier keeping the calibrated table conservative.
    headroom: float = 1.2
    #: Global conservatism multiplier on the combined pair bound.
    safety: float = 1.1
    #: Include the inductive channel (disable for RC-only models).
    include_inductive: bool = True
    #: Inductive envelope tables (``None``: the committed aligned-bus
    #: :data:`DEFAULT_ENVELOPE`).  Recalibrated per-family envelopes
    #: from :mod:`repro.noise.calibration` plug in here.
    envelope: Optional[KappaEnvelope] = None

    def __post_init__(self) -> None:
        if self.vdd <= 0 or self.rise_time <= 0:
            raise ValueError("vdd and rise_time must be positive")
        if self.safety < 1.0 or self.headroom < 1.0:
            raise ValueError("safety and headroom factors must be >= 1")


@dataclass(frozen=True)
class ScreenEstimates:
    """Vectorized pair estimates for one parasitic model.

    ``peak[v, a]`` bounds the noise that aggressor wire ``a`` alone can
    inject at victim wire ``v``'s far end; the diagonal is zero.  All
    matrices are ``(num_wires, num_wires)``.
    """

    config: ScreenConfig
    peak: np.ndarray
    area: np.ndarray
    coupling_capacitance: np.ndarray
    inductive_coupling: np.ndarray
    victim_resistance: np.ndarray
    victim_delay: np.ndarray

    @property
    def num_wires(self) -> int:
        return self.peak.shape[0]


def wire_inductance(parasitics: Parasitics) -> np.ndarray:
    """Wire-level partial inductance: filament blocks summed per wire.

    Hierarchical extractions aggregate block by block through
    :meth:`~repro.extraction.hierarchical.LazyInductance.wire_sums`
    (exact with respect to the stored factorization), so screening a
    100k-filament system never touches an ``(n, n)`` matrix; the dense
    path is the unchanged gather-matrix product.
    """
    system = parasitics.system
    wire_of = system.filament_wires()
    num_wires = system.num_wires
    if parasitics.is_hierarchical and not parasitics.has_dense_inductance:
        out = np.zeros((num_wires, num_wires))
        for indices, block in parasitics.inductance_blocks.values():
            local_wires = wire_of[np.asarray(indices, dtype=int)]
            if isinstance(block, LazyInductance):
                out += block.wire_sums(local_wires, num_wires)
            else:
                gather = np.zeros((num_wires, len(indices)))
                gather[local_wires, np.arange(len(indices))] = 1.0
                out += gather @ block @ gather.T
        return out
    gather = np.zeros((num_wires, len(system)))
    gather[wire_of, np.arange(len(system))] = 1.0
    return gather @ parasitics.inductance @ gather.T


def wire_coupling_capacitance(parasitics: Parasitics) -> np.ndarray:
    """Wire-level coupling capacitance summed from filament pairs."""
    system = parasitics.system
    wire_of = system.filament_wires()
    num_wires = system.num_wires
    coupling = np.zeros((num_wires, num_wires))
    for (i, j), value in parasitics.coupling_capacitance.items():
        a, b = wire_of[i], wire_of[j]
        if a == b:
            continue
        coupling[a, b] += value
        coupling[b, a] += value
    return coupling


def inductive_coupling_coefficients(wire_l: np.ndarray) -> np.ndarray:
    """``|L_ab| / sqrt(L_aa L_bb)`` with a zeroed diagonal."""
    diag = np.diag(wire_l)
    if np.any(diag <= 0):
        raise ValueError("wire self inductances must be positive")
    k = np.abs(wire_l) / np.sqrt(np.outer(diag, diag))
    np.fill_diagonal(k, 0.0)
    return k


def screen_pairs(
    parasitics: Parasitics, config: ScreenConfig = ScreenConfig()
) -> ScreenEstimates:
    """Evaluate the closed-form screen over all wire pairs at once."""
    with stage("noise_screen"):
        num_wires = parasitics.system.num_wires
        if num_wires < 2:
            raise ValueError("screening needs at least two wires")
        add_counter("noise_pairs_screened", num_wires * (num_wires - 1))

        r_victim = config.driver_resistance + wire_resistance(parasitics)
        tau = elmore_delays(
            parasitics, config.driver_resistance, config.load_capacitance
        )
        coupling = wire_coupling_capacitance(parasitics)

        # Devgan slope-limited capacitive bound, victims along rows.
        slope = config.vdd / config.rise_time
        rc_peak = slope * coupling * r_victim[:, None]

        if config.include_inductive:
            envelope = (
                config.envelope
                if config.envelope is not None
                else DEFAULT_ENVELOPE
            )
            k = inductive_coupling_coefficients(wire_inductance(parasitics))
            index = np.arange(num_wires)
            distance = np.abs(index[:, None] - index[None, :])
            distance[distance == 0] = 1  # diagonal masked by k's zero diagonal
            out_of_range = int(np.count_nonzero(distance > envelope.reach))
            if out_of_range:
                # The clamp below extrapolates beyond the calibrated
                # tables: record it loudly instead of silently.
                add_counter("noise_kappa_out_of_range", out_of_range)
                warnings.warn(
                    CalibrationRangeWarning(
                        f"{out_of_range} wire pairs exceed the "
                        f"{envelope.family!r} envelope's calibrated "
                        f"distance range (max distance "
                        f"{int(distance.max())} > table reach "
                        f"{envelope.reach}); clamping to the last "
                        "table entry"
                    ),
                    stacklevel=2,
                )
            clamped = np.minimum(distance, envelope.reach) - 1
            edge_kappa = np.asarray(envelope.edge)[clamped]
            center_kappa = np.asarray(envelope.center)[clamped]
            # Pair edge proximity: closest member's distance to a bus
            # edge, blended over the envelope's edge reach.
            to_edge = np.minimum(index, num_wires - 1 - index)
            pair_edge = np.minimum(to_edge[:, None], to_edge[None, :])
            weight = np.clip(1.0 - pair_edge / envelope.edge_reach, 0.0, 1.0)
            kappa = center_kappa + (edge_kappa - center_kappa) * weight
            span = distance / max(1, num_wires - 1)
            boost = 1.0 + envelope.edge_boost * np.maximum(
                0.0, (span - 0.5) / 0.5
            )
            scale = config.headroom * max(
                1.0, REFERENCE_RISE_TIME / config.rise_time
            )
            ind_peak = config.vdd * k * kappa * boost * scale
        else:
            k = np.zeros_like(rc_peak)
            ind_peak = k

        peak = config.safety * np.maximum(rc_peak, ind_peak)
        np.fill_diagonal(peak, 0.0)
        require_finite(peak, "noise screening peak estimates")

        area = peak * (config.rise_time + tau[:, None])
        return ScreenEstimates(
            config=config,
            peak=peak,
            area=area,
            coupling_capacitance=coupling,
            inductive_coupling=k,
            victim_resistance=r_victim,
            victim_delay=tau,
        )


def rc_only_bound(
    parasitics: Parasitics, config: ScreenConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """The bare Devgan bound and its row sums (property-test hook).

    Returns ``(peak, totals)`` where ``totals[v]`` bounds the victim's
    excursion when *all* aggressors switch together -- the quantity the
    conservatism property checks against full transient simulation.
    """
    rc_config = ScreenConfig(
        vdd=config.vdd,
        rise_time=config.rise_time,
        driver_resistance=config.driver_resistance,
        load_capacitance=config.load_capacitance,
        safety=1.0,
        include_inductive=False,
    )
    estimates = screen_pairs(parasitics, rc_config)
    return estimates.peak, estimates.peak.sum(axis=1)

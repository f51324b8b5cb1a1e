"""High-level VPEC model flows (Section III-C's sparsification flow).

One call per model family, mirroring the paper's flow chart:

- :func:`full_vpec` -- invert the full ``L`` (option baseline);
- :func:`truncated_vpec` -- option 1 (tVPEC): full inversion, then
  geometric ``(NW, NL)`` or numerical (threshold) truncation;
- :func:`windowed_vpec` -- option 2 (wVPEC): sparse approximate inverse
  from geometric (size ``b``) or numerical (threshold) windows;
- :func:`localized_vpec` -- the adjacent-coupling baseline of [15].

Each returns a :class:`VpecBuildResult` carrying the built model, the
*model building time* (the Fig. 4 metric: inversion / windowing plus
sparsification, excluding extraction of ``L`` itself and netlist
assembly), and the sparsification statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.extraction.parasitics import Parasitics
from repro.health.solvers import FallbackPolicy
from repro.pipeline.profiling import stage
from repro.vpec.builder import VpecModel, build_vpec
from repro.vpec.full import full_vpec_networks
from repro.vpec.truncation import localize, truncate_geometric, truncate_numerical
from repro.vpec.windowing import windowed_vpec_networks


@dataclass
class VpecBuildResult:
    """A built VPEC model plus flow metadata.

    Attributes
    ----------
    model:
        The SPICE-compatible circuit and its networks.
    build_seconds:
        Time spent deriving the effective-resistance networks (matrix
        inversion or window solves plus truncation) -- the extraction-
        time metric of Fig. 4.
    flavor:
        ``"full"``, ``"gtVPEC"``, ``"ntVPEC"``, ``"gwVPEC"``,
        ``"nwVPEC"``, or ``"localized"``.
    """

    model: VpecModel
    build_seconds: float
    flavor: str

    @property
    def sparse_factor(self) -> float:
        return self.model.sparse_factor()


def full_vpec(
    parasitics: Parasitics, policy: Optional[FallbackPolicy] = None
) -> VpecBuildResult:
    """The inversion-based full VPEC model (Section II).

    ``policy`` selects the inversion fallback behavior: strict typed
    errors by default, graceful Tikhonov / spectral escalation with a
    resilient :class:`~repro.health.solvers.FallbackPolicy`.
    """
    start = time.perf_counter()
    with stage("invert"):
        networks = full_vpec_networks(parasitics, policy=policy)
    elapsed = time.perf_counter() - start
    model = build_vpec(
        parasitics, networks, title=f"vpec-full:{parasitics.system.name}"
    )
    return VpecBuildResult(model=model, build_seconds=elapsed, flavor="full")


def truncated_vpec(
    parasitics: Parasitics,
    nw: Optional[int] = None,
    nl: Optional[int] = None,
    threshold: Optional[float] = None,
    policy: Optional[FallbackPolicy] = None,
) -> VpecBuildResult:
    """The tVPEC model (Section IV): full inversion plus truncation.

    Pass ``nw`` and ``nl`` for geometric truncation (aligned buses) or
    ``threshold`` for numerical truncation (any shape) -- exactly one of
    the two selections.
    """
    geometric = nw is not None or nl is not None
    numerical = threshold is not None
    if geometric == numerical:
        raise ValueError("choose either (nw, nl) or threshold")
    if geometric and (nw is None or nl is None):
        raise ValueError("geometric truncation needs both nw and nl")

    start = time.perf_counter()
    with stage("invert"):
        networks = full_vpec_networks(parasitics, policy=policy)
    with stage("sparsify"):
        if geometric:
            flavor = "gtVPEC"
            networks = [
                truncate_geometric(n, parasitics.system, nw, nl) for n in networks
            ]
        else:
            flavor = "ntVPEC"
            networks = [truncate_numerical(n, threshold) for n in networks]
    elapsed = time.perf_counter() - start
    model = build_vpec(
        parasitics, networks, title=f"vpec-{flavor}:{parasitics.system.name}"
    )
    return VpecBuildResult(model=model, build_seconds=elapsed, flavor=flavor)


def windowed_vpec(
    parasitics: Parasitics,
    window_size: int = 0,
    threshold: float = 0.0,
    policy: Optional[FallbackPolicy] = None,
) -> VpecBuildResult:
    """The wVPEC model (Section V): windowed sparse approximate inverse.

    Pass ``window_size`` (> 0) for geometric windowing or ``threshold``
    (> 0) for numerical windowing -- exactly one of the two.
    """
    start = time.perf_counter()
    with stage("sparsify"):
        networks = windowed_vpec_networks(
            parasitics,
            window_size=window_size,
            threshold=threshold,
            policy=policy,
        )
    elapsed = time.perf_counter() - start
    flavor = "gwVPEC" if window_size > 0 else "nwVPEC"
    model = build_vpec(
        parasitics, networks, title=f"vpec-{flavor}:{parasitics.system.name}"
    )
    return VpecBuildResult(model=model, build_seconds=elapsed, flavor=flavor)


def localized_vpec(
    parasitics: Parasitics, policy: Optional[FallbackPolicy] = None
) -> VpecBuildResult:
    """The localized VPEC baseline of [15]: adjacent couplings only."""
    start = time.perf_counter()
    with stage("invert"):
        inverted = full_vpec_networks(parasitics, policy=policy)
    with stage("sparsify"):
        networks = [localize(network, parasitics.system) for network in inverted]
    elapsed = time.perf_counter() - start
    model = build_vpec(
        parasitics, networks, title=f"vpec-localized:{parasitics.system.name}"
    )
    return VpecBuildResult(model=model, build_seconds=elapsed, flavor="localized")


"""Extraction facade: one call from geometry to a full parasitic set."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.extraction.capacitance import CapacitanceModel, extract_capacitances
from repro.extraction.constants import COPPER_RESISTIVITY
from repro.extraction.hierarchical import (
    DEFAULT_CONFIG,
    HierarchicalConfig,
    LazyInductance,
    hierarchical_blocks,
)
from repro.extraction.inductance import inductance_blocks
from repro.extraction.resistance import extract_resistances
from repro.geometry.filament import Axis
from repro.geometry.system import FilamentSystem
from repro.pipeline.profiling import add_counter, stage


class Parasitics:
    """Extracted parasitics of a filament system.  ``inductance`` is a
    *derived* property over the per-axis blocks (dense single-axis
    extractions alias their block zero-copy; hierarchical extractions
    materialize only on demand -- check ``has_dense_inductance`` /
    ``is_hierarchical`` before touching it at scale).

    Attributes
    ----------
    system:
        The geometry the parasitics were extracted from.
    inductance:
        Full partial inductance matrix, henries, shape (n, n); zero between
        orthogonal filaments.  This is a *derived* view assembled lazily
        from ``inductance_blocks`` on first access (and cached), so
        holding a ``Parasitics`` does not double the inductance storage
        -- and hierarchical extractions never assemble it unless a
        dense-only consumer explicitly asks.
    inductance_blocks:
        ``{axis: (filament indices, L block)}`` -- the per-direction
        blocks the VPEC inversion operates on.  Each block is either a
        dense ndarray (``method="dense"``) or a
        :class:`~repro.extraction.hierarchical.LazyInductance` operator
        (``method="hierarchical"``).
    resistance:
        Per-filament series resistance, ohms, shape (n,).
    ground_capacitance:
        Per-filament capacitance to ground, farads, shape (n,).
    coupling_capacitance:
        ``{(i, j): C}`` adjacent-pair coupling capacitances, farads.
    """

    def __init__(
        self,
        system: FilamentSystem,
        inductance: Optional[np.ndarray] = None,
        inductance_blocks: Optional[
            Dict[Axis, Tuple[List[int], Any]]
        ] = None,
        resistance: Optional[np.ndarray] = None,
        ground_capacitance: Optional[np.ndarray] = None,
        coupling_capacitance: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        if inductance_blocks is None:
            raise TypeError("Parasitics requires inductance_blocks")
        if resistance is None or ground_capacitance is None:
            raise TypeError(
                "Parasitics requires resistance and ground_capacitance"
            )
        self.system = system
        self.inductance_blocks = inductance_blocks
        self.resistance = resistance
        self.ground_capacitance = ground_capacitance
        self.coupling_capacitance = (
            {} if coupling_capacitance is None else coupling_capacitance
        )
        self._inductance: Optional[np.ndarray] = None
        self._inductance_explicit = False
        if inductance is not None:
            self.inductance = inductance
        n = len(self.system)
        if self.resistance.shape != (n,) or self.ground_capacitance.shape != (n,):
            raise ValueError("per-filament arrays must have one entry per filament")

    # ------------------------------------------------------------------
    # Lazy full matrix
    # ------------------------------------------------------------------
    @property
    def inductance(self) -> np.ndarray:
        """Full partial inductance matrix, assembled on first access.

        For the common single-axis dense extraction the property aliases
        the axis block directly (zero copy, preserving the shared-memory
        zero-copy guarantee); otherwise the blocks are scattered into a
        freshly assembled ``(n, n)`` array, materializing hierarchical
        operators if present.  The result is cached on the instance but
        dropped on pickling unless it was explicitly assigned.
        """
        if self._inductance is None:
            self._inductance = self._assemble_full()
        return self._inductance

    @inductance.setter
    def inductance(self, value: np.ndarray) -> None:
        n = len(self.system)
        if value.shape != (n, n):
            raise ValueError("inductance matrix shape does not match the system")
        self._inductance = value
        self._inductance_explicit = True

    @property
    def has_dense_inductance(self) -> bool:
        """True when the full matrix has already been materialized."""
        return self._inductance is not None

    @property
    def is_hierarchical(self) -> bool:
        """True when any axis block is a lazy hierarchical operator."""
        return any(
            isinstance(block, LazyInductance)
            for _, block in self.inductance_blocks.values()
        )

    def _assemble_full(self) -> np.ndarray:
        n = len(self.system)
        blocks = list(self.inductance_blocks.values())
        if len(blocks) == 1:
            indices, block = blocks[0]
            if (
                isinstance(block, np.ndarray)
                and len(indices) == n
                and indices == list(range(n))
            ):
                return block
        add_counter("parasitics_dense_assemblies")
        full = np.zeros((n, n))
        for indices, block in blocks:
            full[np.ix_(indices, indices)] = np.asarray(block)
        return full

    # ------------------------------------------------------------------
    # Health / serialization
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every numeric array for NaN / infinity.

        Raises :class:`repro.health.errors.NonFiniteInputError` naming
        the offending quantity -- the health layer's first line of
        defense against corrupted extraction artifacts reaching the
        model builders.  Blocks are checked in place (hierarchical
        operators validate their stored factors), so validation never
        forces the full matrix into existence.
        """
        from repro.health.solvers import require_finite

        for axis, (_, block) in self.inductance_blocks.items():
            name = f"{axis.name}-direction inductance block"
            if isinstance(block, LazyInductance):
                block.validate_finite(name)
            else:
                require_finite(block, name=name)
        if self._inductance_explicit and self._inductance is not None:
            require_finite(self._inductance, name="partial inductance matrix")
        require_finite(self.resistance, name="resistance vector")
        require_finite(self.ground_capacitance, name="ground capacitance vector")
        values = np.array(list(self.coupling_capacitance.values()), dtype=float)
        require_finite(values, name="coupling capacitances")

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        # The derived cache is reassembled on demand; only an explicitly
        # assigned full matrix (baseline patches) survives pickling.
        if not state.get("_inductance_explicit"):
            state["_inductance"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        kind = "hierarchical" if self.is_hierarchical else "dense"
        return (
            f"Parasitics(system={self.system.name!r}, n={len(self.system)}, "
            f"blocks={kind})"
        )


def extract(
    system: FilamentSystem,
    resistivity: float = COPPER_RESISTIVITY,
    frequency: float = 0.0,
    capacitance_model: CapacitanceModel = CapacitanceModel(),
    gmd_correction: bool = True,
    method: str = "dense",
    hierarchical: Optional[HierarchicalConfig] = None,
    jobs: Optional[int] = None,
) -> Parasitics:
    """Extract R, L, and C for a filament system.  ``method="hierarchical"``
    builds block low-rank ``LazyInductance`` operators instead of dense
    matrices (docs/performance.md, "Hierarchical extraction");
    ``jobs > 1`` runs the hierarchical assembly over the process pool
    with shared-memory factor pools, bit-identical to serial
    (docs/performance.md, "Parallel hierarchical assembly").

    This is the substitute for the paper's FastHenry + FastCap-table flow:
    partial inductances from closed-form Grover/Neumann expressions,
    capacitances from the 2.5-D analytic model with adjacent-only coupling,
    resistances from geometry (optionally skin-corrected at ``frequency``).

    ``method`` selects the inductance representation: ``"dense"`` builds
    the per-axis ndarray blocks (full pair evaluation; the full matrix
    itself stays a lazy view), ``"hierarchical"`` builds block low-rank
    :class:`~repro.extraction.hierarchical.LazyInductance` operators --
    the O(N b^2 + N log N) path that scales past 100k filaments.
    ``hierarchical`` overrides the operator tuning (leaf size,
    admissibility ``eta``, ACA ``cutoff``, rank cap).  The parallel
    build is bit-identical to the serial one, so the worker count never
    enters cache keys.
    """
    if method not in ("dense", "hierarchical"):
        raise ValueError(f"unknown extraction method: {method!r}")
    with stage("extract"):
        add_counter("extracted_filaments", len(system))
        blocks: Dict[Axis, Tuple[List[int], Any]]
        if method == "hierarchical":
            config = hierarchical if hierarchical is not None else DEFAULT_CONFIG
            blocks = dict(
                hierarchical_blocks(
                    system,
                    gmd_correction=gmd_correction,
                    config=config,
                    jobs=jobs,
                )
            )
        else:
            blocks = dict(inductance_blocks(system, gmd_correction=gmd_correction))
        ground, coupling = extract_capacitances(system, capacitance_model)
        return Parasitics(
            system=system,
            inductance_blocks=blocks,
            resistance=extract_resistances(system, resistivity, frequency),
            ground_capacitance=ground,
            coupling_capacitance=coupling,
        )

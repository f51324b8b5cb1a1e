"""SPICE-compatible VPEC circuit construction (Fig. 1 of the paper).

Every filament contributes two coupled blocks:

*Electrical block* -- the PEEC resistance / capacitance skeleton, with
the filament's inductive slot filled by

1. a 0-V *sense* voltage source (component 2 of Fig. 1: it measures the
   branch current ``I_i``), and
2. a controlled voltage source realizing the inductive drop
   ``V_i = l_i * Vhat_i`` (component 4).

*Magnetic block* -- a vector-potential node ``m_i`` whose voltage is the
filament's average vector potential ``A_i``:

3. a CCCS injecting ``Ihat_i = l_i I_i`` into ``m_i`` (component 2/3);
4. the effective-resistance network: ``Rhat_i0`` from ``m_i`` to the
   vector-potential ground and ``Rhat_ij`` between coupled nodes
   (component 5, from the :class:`~repro.vpec.effective.VpecNetwork`);
5. a unit inductor fed by a unity-gain VCCS (component 3/6): the VCCS
   forces the inductor current to equal ``A_i``, so the voltage across
   the unit inductor is exactly ``d A_i / d t = Vhat_i`` (eq. 2), which
   the electrical block's controlled source picks up.

Wire-traversal signs (legs walked against the positive axis) multiply
the two ``l_i`` gains, mirroring how FastHenry orients branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuit.netlist import Circuit
from repro.extraction.parasitics import Parasitics
from repro.peec.builder import ElectricalSkeleton, build_skeleton
from repro.pipeline.profiling import add_counter, stage
from repro.vpec.effective import VpecNetwork

#: Unit inductance of the magnetic circuit's differentiator, henries.
UNIT_INDUCTANCE = 1.0

#: Ground conductances below this (siemens) are treated as an open
#: (eq. 19 allows the windowed row sum to reach zero exactly).
_MIN_GROUND_CONDUCTANCE = 1e-30


@dataclass
class VpecModel:
    """A built VPEC circuit plus its bookkeeping.

    Attributes
    ----------
    circuit:
        The complete netlist (testbench attached separately, exactly as
        for PEEC -- the wire ports live on the shared skeleton).
    skeleton:
        The shared electrical backbone.
    networks:
        The per-direction effective-resistance networks stamped into the
        magnetic circuit.
    sense_names:
        Per filament, the current-sense source name (useful for probing
        filament currents).
    coupling_resistor_count:
        Number of coupling resistors emitted (the sparsification metric).
    """

    circuit: Circuit
    skeleton: ElectricalSkeleton
    networks: List[VpecNetwork]
    sense_names: List[str]
    coupling_resistor_count: int

    @property
    def parasitics(self) -> Parasitics:
        return self.skeleton.parasitics

    def sparse_factor(self) -> float:
        """Kept couplings / full couplings, over all directions."""
        kept = sum(network.coupling_count() for network in self.networks)
        full = sum(network.full_coupling_count() for network in self.networks)
        return 1.0 if full == 0 else kept / full


def build_vpec(
    parasitics: Parasitics,
    networks: List[VpecNetwork],
    title: Optional[str] = None,
) -> VpecModel:
    """Assemble the SPICE-compatible VPEC netlist.

    Parameters
    ----------
    parasitics:
        Extraction results (provides the electrical skeleton).
    networks:
        Effective-resistance networks -- full
        (:func:`~repro.vpec.full.full_vpec_networks`), truncated
        (:mod:`repro.vpec.truncation`), or windowed
        (:mod:`repro.vpec.windowing`).
    """
    _validate_networks(parasitics, networks)
    with stage("stamp"):
        return _stamp_vpec(parasitics, networks, title)


def _stamp_vpec(
    parasitics: Parasitics,
    networks: List[VpecNetwork],
    title: Optional[str],
) -> VpecModel:
    system = parasitics.system
    skeleton = build_skeleton(parasitics, title or f"vpec:{system.name}")
    circuit = skeleton.circuit
    lengths = system.lengths()
    signs = skeleton.signs

    count = len(system)
    gains = np.asarray(lengths, dtype=float) * np.asarray(signs, dtype=float)
    slot_a = [a for a, _ in skeleton.slot_nodes]
    slot_b = [b for _, b in skeleton.slot_nodes]
    s_nodes = [f"s{index}" for index in range(count)]
    d_nodes = [f"d{index}" for index in range(count)]
    m_nodes = [f"m{index}" for index in range(count)]
    grounds = ["0"] * count
    sense_names: List[str] = [f"Vs{index}" for index in range(count)]

    # Per-filament magnetic/electrical coupling, one columnar store per
    # component of Fig. 1 instead of five scalar adds per filament:
    # 0-V current senses, the electrical inductive drops
    # V_i = (l s) * Vhat_i, the magnetic injections Ihat_i = (l s) I_i,
    # and the unit-inductor differentiators whose VCCS forces the
    # inductor current to A_i so that v(d_i) = dA_i/dt = Vhat_i.
    circuit.add_voltage_source_array(
        slot_a, s_nodes, [None] * count, names=sense_names
    )
    circuit.add_vcvs_array(
        s_nodes,
        slot_b,
        d_nodes,
        grounds,
        gains,
        names=[f"Ev{index}" for index in range(count)],
    )
    circuit.add_cccs_array(
        grounds,
        m_nodes,
        sense_names,
        gains,
        names=[f"Fi{index}" for index in range(count)],
    )
    circuit.add_vccs_array(
        grounds,
        d_nodes,
        m_nodes,
        grounds,
        np.ones(count),
        names=[f"Ga{index}" for index in range(count)],
    )
    circuit.add_inductor_array(
        d_nodes,
        grounds,
        np.full(count, UNIT_INDUCTANCE),
        names=[f"Lu{index}" for index in range(count)],
    )

    # Coupling node names come from the m_nodes table and element names
    # are formatted from Python ints (.tolist()): a numpy integer scalar
    # formats several times slower, and a whole-block window stamps
    # tens of thousands of couplings.
    coupling_count = 0
    for network in networks:
        indices = np.asarray(network.indices, dtype=int)
        ground = np.asarray(network.ground_conductances(), dtype=float)
        keep = np.flatnonzero(ground > _MIN_GROUND_CONDUCTANCE)
        if keep.size:
            kept = indices[keep].tolist()
            circuit.add_resistor_array(
                [m_nodes[i] for i in kept],
                ["0"] * len(kept),
                1.0 / ground[keep],
                names=[f"Rg{i}" for i in kept],
            )
        rows, cols, ghat_ab = network.coupling_arrays()
        if rows.size:
            i_list, j_list = indices[rows].tolist(), indices[cols].tolist()
            circuit.add_resistor_array(
                [m_nodes[i] for i in i_list],
                [m_nodes[j] for j in j_list],
                -1.0 / ghat_ab,
                names=[f"Rc{i}_{j}" for i, j in zip(i_list, j_list)],
            )
        coupling_count += int(rows.size)

    add_counter("stamped_elements", len(circuit))
    return VpecModel(
        circuit=circuit,
        skeleton=skeleton,
        networks=networks,
        sense_names=sense_names,
        coupling_resistor_count=coupling_count,
    )


def _validate_networks(
    parasitics: Parasitics, networks: List[VpecNetwork]
) -> None:
    covered: List[int] = []
    for network in networks:
        covered.extend(network.indices)
    expected = list(range(len(parasitics.system)))
    if sorted(covered) != expected:
        raise ValueError(
            "networks must cover every filament exactly once; got "
            f"{len(covered)} entries for {len(expected)} filaments"
        )

"""Electrical-skeleton construction shared by the PEEC and VPEC models.

Both models have the *same* electrical backbone (the paper, Fig. 1: "the
resistance and capacitance in the electrical circuit are the same as those
in the PEEC model"): every filament contributes a series resistance and an
"inductive slot" between two wire nodes, plus distributed pi-type
capacitance.  The models differ only in what fills the slot:

- PEEC: the filament's partial self inductance, densely coupled to every
  other inductor through mutual-inductance stamps;
- VPEC: a current-sense source plus a controlled voltage source tied to
  the magnetic (vector-potential) circuit.

The skeleton builder also resolves each wire's traversal: filaments of a
wire are connected in series through shared centerline endpoints, and each
filament records whether the wire walks it along the positive axis
(``sign = +1``) or backwards (``sign = -1``).  Mutual inductances and the
VPEC controlled-source gains are corrected by that sign, reproducing
FastHenry's convention of orienting every branch along the positive axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus
from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE
from repro.extraction.parasitics import Parasitics

#: Matching tolerance for shared centerline endpoints, meters.
_NODE_TOL = 1e-9


@dataclass(frozen=True)
class WirePorts:
    """The two terminal nodes of a wire after skeleton construction."""

    near: str
    far: str


@dataclass
class ElectricalSkeleton:
    """The R / C backbone plus the per-filament inductive slots.

    Attributes
    ----------
    circuit:
        The circuit under construction (shared with the model builder).
    slot_nodes:
        Per filament, the ``(a, b)`` nodes its inductive element must
        connect, oriented in the wire-forward direction.
    signs:
        Per filament, +1 when wire-forward follows the positive axis.
    ports:
        Terminal nodes of each wire.
    """

    circuit: Circuit
    parasitics: Parasitics
    slot_nodes: List[Tuple[str, str]]
    signs: np.ndarray
    ports: Dict[int, WirePorts]


#: Maps axis value -> (index of width direction, index of thickness
#: direction); row order follows :class:`repro.geometry.filament.Axis`.
_CROSS_AXES = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int64)


def _centerline_arrays(system) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` centerline endpoints of every filament, (N, 3).

    One attribute-gather pass plus array arithmetic replicating
    ``Filament.start`` / ``Filament.end`` bit for bit (same operations
    in the same order), so downstream grid quantization sees exactly the
    coordinates the scalar properties produce.
    """
    raw = np.array(
        [
            (*f.origin, f.length, f.width, f.thickness, f.axis.value)
            for f in (system[i] for i in range(len(system)))
        ],
        dtype=float,
    ).reshape(-1, 7)
    origin = raw[:, 0:3]
    length = raw[:, 3]
    axis = raw[:, 6].astype(np.int64)
    rows = np.arange(raw.shape[0])

    half = np.zeros_like(origin)
    half[rows, axis] = length / 2.0
    cross = _CROSS_AXES[axis]
    half[rows, cross[:, 0]] = raw[:, 4] / 2.0
    half[rows, cross[:, 1]] = raw[:, 5] / 2.0
    center = origin + half

    starts = center.copy()
    starts[rows, axis] -= length / 2.0
    ends = center.copy()
    ends[rows, axis] += length / 2.0
    return starts, ends


def _oriented_paths(
    parasitics: Parasitics,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve wire traversal: per-filament sign and endpoint node ids.

    Returns ``(starts, ends, signs, ep_in, ep_out)``: the filament
    centerline endpoint coordinates, the traversal sign, and the integer
    node ids (into a shared point table) each filament's inductive slot
    connects, in wire-forward orientation.  Point ids are assigned in
    first-use order, matching the scalar walk this replaces.
    """
    system = parasitics.system
    count = len(system)
    starts, ends = _centerline_arrays(system)
    signs = np.ones(count)
    ep_in = np.full(count, -1, dtype=np.int64)
    ep_out = np.full(count, -1, dtype=np.int64)

    # Quantize every endpoint once (the scalar path re-derived and
    # re-rounded coordinates per probe), then pack each grid cell into a
    # single integer key: int keys hash ~3x cheaper than 3-tuples, and
    # the 26 neighbor probes become precomputed key offsets.
    scale = _NODE_TOL / 2.0
    cell_start = np.round(starts / scale).astype(np.int64)
    cell_end = np.round(ends / scale).astype(np.int64)
    cells = np.concatenate([cell_start, cell_end])
    lo = cells.min(axis=0) - 1  # -1 so neighbor probes stay nonnegative
    span = cells.max(axis=0) - lo + 2
    m_y = int(span[2])
    m_x = int(span[1]) * m_y
    if float(span[0]) * float(span[1]) * float(span[2]) < float(2**62):
        base_start = (
            (cell_start[:, 0] - lo[0]) * m_x
            + (cell_start[:, 1] - lo[1]) * m_y
            + (cell_start[:, 2] - lo[2])
        ).tolist()
        base_end = (
            (cell_end[:, 0] - lo[0]) * m_x
            + (cell_end[:, 1] - lo[1]) * m_y
            + (cell_end[:, 2] - lo[2])
        ).tolist()
    else:  # degenerate geometry spans: exact bigint packing
        base_start = [
            (int(x) - int(lo[0])) * m_x
            + (int(y) - int(lo[1])) * m_y
            + (int(z) - int(lo[2]))
            for x, y, z in cell_start.tolist()
        ]
        base_end = [
            (int(x) - int(lo[0])) * m_x
            + (int(y) - int(lo[1])) * m_y
            + (int(z) - int(lo[2]))
            for x, y, z in cell_end.tolist()
        ]
    neighbor_deltas = [
        dx * m_x + dy * m_y + dz
        for dx in (0, -1, 1)
        for dy in (0, -1, 1)
        for dz in (0, -1, 1)
        if dx or dy or dz
    ]
    start_rows = starts.tolist()
    end_rows = ends.tolist()

    # Consecutive-filament distances for the orientation automaton:
    # d_xy[k] = |x endpoint of members[k] - y endpoint of members[k+1]|.
    points: List[List[float]] = []
    grid: Dict[int, int] = {}

    def point_id(p: List[float], key: int) -> int:
        # Direct cell hit first (the overwhelmingly common case), then
        # probe neighbor cells so points straddling a boundary still
        # match.
        pid = grid.get(key)
        if pid is not None and math.dist(p, points[pid]) < _NODE_TOL:
            return pid
        for delta in neighbor_deltas:
            pid = grid.get(key + delta)
            if pid is not None and math.dist(p, points[pid]) < _NODE_TOL:
                return pid
        points.append(p)
        grid[key] = len(points) - 1
        return len(points) - 1

    for wire in system.wire_ids:
        members = list(system.wire_filaments(wire))
        orientation = _wire_orientation(
            system, members, starts, ends
        )
        for filament_index, forward in zip(members, orientation):
            if forward:
                first, base_f = start_rows[filament_index], base_start[filament_index]
                second, base_s = end_rows[filament_index], base_end[filament_index]
            else:
                signs[filament_index] = -1.0
                first, base_f = end_rows[filament_index], base_end[filament_index]
                second, base_s = start_rows[filament_index], base_start[filament_index]
            ep_in[filament_index] = point_id(first, base_f)
            ep_out[filament_index] = point_id(second, base_s)
    return starts, ends, signs, ep_in, ep_out


def _wire_orientation(
    system,
    members: Sequence[int],
    starts: np.ndarray,
    ends: np.ndarray,
) -> List[bool]:
    """Whether each wire filament is traversed start->end (positive axis).

    All consecutive endpoint distances come from one vectorized pass
    over the wire; the sequential cursor logic then runs on scalars.
    """
    if len(members) == 1:
        return [True]
    prev = np.asarray(members[:-1], dtype=np.int64)
    nxt = np.asarray(members[1:], dtype=np.int64)
    d_ss = np.linalg.norm(starts[prev] - starts[nxt], axis=1)
    d_se = np.linalg.norm(starts[prev] - ends[nxt], axis=1)
    d_es = np.linalg.norm(ends[prev] - starts[nxt], axis=1)
    d_ee = np.linalg.norm(ends[prev] - ends[nxt], axis=1)

    orientation: List[bool] = []
    # Orient the first filament so its exit endpoint touches the second.
    if d_es[0] < _NODE_TOL or d_ee[0] < _NODE_TOL:
        orientation.append(True)
    elif d_ss[0] < _NODE_TOL or d_se[0] < _NODE_TOL:
        orientation.append(False)
    else:
        first = system[members[0]]
        raise ValueError(
            f"wire {first.wire}: segments 0 and 1 do not share an endpoint"
        )
    for k in range(len(members) - 1):
        forward = orientation[-1]
        # Cursor sits at the previous filament's exit endpoint.
        to_start = d_es[k] if forward else d_ss[k]
        to_end = d_ee[k] if forward else d_se[k]
        if to_start < _NODE_TOL:
            orientation.append(True)
        elif to_end < _NODE_TOL:
            orientation.append(False)
        else:
            f = system[members[k + 1]]
            raise ValueError(
                f"wire {f.wire}: segment {f.segment} does not touch the "
                "previous segment"
            )
    return orientation


def build_skeleton(
    parasitics: Parasitics, title: Optional[str] = None
) -> ElectricalSkeleton:
    """Build the shared electrical backbone (R and C; slots left open).

    Creates the wire nodes, the per-filament series resistances, the
    accumulated pi-type ground capacitances, and the adjacent-pair
    coupling capacitances.  The inductive slot of each filament is left
    for the model builder (PEEC inductors or VPEC controlled sources).
    """
    system = parasitics.system
    count = len(system)
    circuit = Circuit(title or f"skeleton:{system.name}")
    starts, ends, signs, ep_in, ep_out = _oriented_paths(parasitics)

    # Deterministic node names per point id, gathered through object
    # arrays (fancy indexing instead of per-element dict round-trips).
    num_points = int(max(ep_in.max(), ep_out.max())) + 1 if count else 0
    name_table = np.asarray(
        [f"n{pid}" for pid in range(num_points)], dtype=object
    )
    n_in_names = name_table[ep_in]
    n_out_names = name_table[ep_out]

    # Per-filament series resistances: one columnar store for the whole
    # population (n{pid} -> x{index} midpoints open the inductive slots).
    mid_names = [f"x{index}" for index in range(count)]
    slot_nodes: List[Tuple[str, str]] = list(
        zip(mid_names, n_out_names.tolist())
    )
    circuit.add_resistor_array(
        n_in_names.tolist(),
        mid_names,
        np.asarray(parasitics.resistance, dtype=float),
        names=[f"R{index}" for index in range(count)],
    )

    # Pi-type ground capacitance, accumulated per node in the scalar
    # walk's visit order (in endpoint then out endpoint, per filament) so
    # the per-node sums round identically.
    interleaved = np.empty(2 * count, dtype=np.int64)
    interleaved[0::2] = ep_in
    interleaved[1::2] = ep_out
    half_caps = np.repeat(
        np.asarray(parasitics.ground_capacitance, dtype=float) / 2.0, 2
    )
    accumulated = np.zeros(num_points)
    np.add.at(accumulated, interleaved, half_caps)
    _, first_seen = np.unique(interleaved, return_index=True)
    visit_order = interleaved[np.sort(first_seen)]
    gc_pids = visit_order[accumulated[visit_order] > 0]
    if gc_pids.size:
        gc_names = name_table[gc_pids]
        circuit.add_capacitor_array(
            gc_names.tolist(),
            ["0"] * gc_pids.size,
            accumulated[gc_pids],
            names=[f"Cg_{node}" for node in gc_names],
        )

    # Coupling capacitances, split half/half between the two endpoint
    # pairs; geometric proximity decides which endpoint of ``j`` faces
    # which endpoint of ``i`` (wires may be traversed in opposite
    # directions).  All pairings resolve in one vectorized pass.
    coupling = parasitics.coupling_capacitance
    if coupling:
        pair_count = len(coupling)
        fil_i = np.fromiter(
            (key[0] for key in coupling), dtype=np.int64, count=pair_count
        )
        fil_j = np.fromiter(
            (key[1] for key in coupling), dtype=np.int64, count=pair_count
        )
        values = np.fromiter(
            coupling.values(), dtype=float, count=pair_count
        )
        # Geometric (unoriented) node ids of each filament.
        forward = signs > 0
        geo_a = np.where(forward, ep_in, ep_out)
        geo_b = np.where(forward, ep_out, ep_in)
        straight = np.linalg.norm(
            starts[fil_i] - starts[fil_j], axis=1
        ) + np.linalg.norm(ends[fil_i] - ends[fil_j], axis=1)
        crossed = np.linalg.norm(
            starts[fil_i] - ends[fil_j], axis=1
        ) + np.linalg.norm(ends[fil_i] - starts[fil_j], axis=1)
        aligned = straight <= crossed

        cc_a = np.empty(2 * pair_count, dtype=np.int64)
        cc_a[0::2] = geo_a[fil_i]
        cc_a[1::2] = geo_b[fil_i]
        cc_b = np.empty(2 * pair_count, dtype=np.int64)
        cc_b[0::2] = np.where(aligned, geo_a[fil_j], geo_b[fil_j])
        cc_b[1::2] = np.where(aligned, geo_b[fil_j], geo_a[fil_j])
        cc_names: List[str] = []
        for i, j in zip(fil_i.tolist(), fil_j.tolist()):
            cc_names.append(f"Cc_{i}_{j}_0")
            cc_names.append(f"Cc_{i}_{j}_1")
        circuit.add_capacitor_array(
            name_table[cc_a].tolist(),
            name_table[cc_b].tolist(),
            np.repeat(values / 2.0, 2),
            names=cc_names,
        )

    ports: Dict[int, WirePorts] = {}
    for wire in system.wire_ids:
        members = system.wire_filaments(wire)
        ports[wire] = WirePorts(
            near=str(name_table[ep_in[members[0]]]),
            far=str(name_table[ep_out[members[-1]]]),
        )

    return ElectricalSkeleton(
        circuit=circuit,
        parasitics=parasitics,
        slot_nodes=slot_nodes,
        signs=signs,
        ports=ports,
    )


def attach_bus_testbench(
    skeleton: ElectricalSkeleton,
    stimulus: Stimulus,
    aggressor: int = 0,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> None:
    """The paper's standard bus excitation (Section II-C).

    The aggressor wire is driven through ``Rd = 120 ohm`` by the stimulus;
    every other wire is quiet (its driver holds it low through ``Rd``);
    every far end carries the ``CL = 10 fF`` receiver load.
    """
    attach_multi_aggressor_testbench(
        skeleton, {aggressor: stimulus}, driver_resistance, load_capacitance
    )


def attach_multi_aggressor_testbench(
    skeleton: ElectricalSkeleton,
    drives: "Dict[int, Stimulus]",
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> None:
    """Simultaneous-switching testbench: several driven wires at once.

    Generalizes :func:`attach_bus_testbench` to the SSN scenario: every
    wire in ``drives`` gets its own stimulus behind ``Rd``; the rest are
    quiet; all far ends carry ``CL``.  In-phase neighbors superpose their
    victim noise (the circuit is linear); anti-phase drives cancel on a
    symmetric victim -- both verified in the tests.
    """
    if not drives:
        raise ValueError("drives must name at least one aggressor")
    unknown = set(drives) - set(skeleton.ports)
    if unknown:
        raise ValueError(f"unknown wires in drives: {sorted(unknown)}")
    for wire, ports in skeleton.ports.items():
        if wire in drives:
            source_node = f"drv{wire}"
            skeleton.circuit.add_voltage_source(
                source_node, "0", drives[wire], name=f"Vdrv{wire}"
            )
            skeleton.circuit.add_resistor(
                source_node, ports.near, driver_resistance, name=f"Rd{wire}"
            )
        else:
            skeleton.circuit.add_resistor(
                ports.near, "0", driver_resistance, name=f"Rd{wire}"
            )
        if load_capacitance > 0:
            skeleton.circuit.add_capacitor(
                ports.far, "0", load_capacitance, name=f"CL{wire}"
            )


def attach_two_port_testbench(
    skeleton: ElectricalSkeleton,
    stimulus: Stimulus,
    wire: int = 0,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> Tuple[str, str]:
    """Drive one wire's near port, load its far port (spiral experiment).

    Returns ``(input node, output node)``.
    """
    ports = skeleton.ports[wire]
    skeleton.circuit.add_voltage_source(
        f"in{wire}", "0", stimulus, name=f"Vin{wire}"
    )
    skeleton.circuit.add_resistor(
        f"in{wire}", ports.near, driver_resistance, name=f"Rin{wire}"
    )
    if load_capacitance > 0:
        skeleton.circuit.add_capacitor(
            ports.far, "0", load_capacitance, name=f"CL{wire}"
        )
    return ports.near, ports.far

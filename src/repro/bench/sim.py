"""The simulation-backend benchmark suite (``BENCH_sim.json``).

Counterpart of :mod:`repro.bench.runner` for the circuit layer: where
the kernel suite times extraction and windowing, this suite times the
*simulation side* -- netlist construction, MNA assembly, and the
transient/AC engines -- against the object-path seed references of
:mod:`repro.bench.reference`:

- ``peec_assembly_bus256``: full PEEC model build plus MNA assembly of
  the 256-bit Fig. 8 bus (columnar stores + per-class vectorized stamps
  vs one Python object and three list-appends per stamp);
- ``transient_bus64``: a fixed-step transient run on the 64-bit bus
  (batched incidence-matrix RHS + masked probe gather vs per-step
  Python RHS/probe loops);
- ``ac_sweep_bus64``: the AC frequency sweep (reused permuted-CSC
  structure + one sweep-wide probe gather vs per-point column
  re-permutation and scalar probe loops).

Checksums digest the assembled ``G``/``C`` matrices and the probe
waveforms, so the trajectory enforces that the columnar fast path and
the object path compute the same numbers, not just that it is fast.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bench.reference import (
    seed_ac_analysis,
    seed_build_mna,
    seed_build_peec,
    seed_transient_analysis,
)
from repro.bench.results import BenchResult, array_checksum
from repro.bench.runner import _best_time
from repro.circuit.ac import ac_analysis, logspace_frequencies
from repro.circuit.mna import build_mna
from repro.circuit.sources import step
from repro.circuit.transient import transient_analysis
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.peec.builder import attach_bus_testbench
from repro.peec.model import build_peec

SIM_KERNELS = (
    "peec_assembly_bus256",
    "transient_bus64",
    "ac_sweep_bus64",
)

#: Every sim kernel has an object-path seed variant.
SIM_SEED_KERNELS = SIM_KERNELS

#: Transient workload: the paper's standard excitation, 200 steps.
_T_STOP = 200e-12
_DT = 1e-12
_RISE = 10e-12

#: AC workload: 1 Hz .. 10 GHz, 10 points per decade (101 points).
_AC_POINTS_PER_DECADE = 10


def _mna_checksum(system) -> str:
    g = system.G.tocoo()
    c = system.C.tocoo()
    return array_checksum(
        np.asarray(g.todense()), np.asarray(c.todense())
    )


def _testbench_circuits(sim_size: int):
    """Columnar and seed-built simulation circuits (identical netlists)."""
    parasitics = extract(aligned_bus(sim_size))
    stimulus = step(1.0, rise_time=_RISE)

    model = build_peec(parasitics)
    attach_bus_testbench(model.skeleton, stimulus)
    victim = model.skeleton.ports[1].far

    seed_model = seed_build_peec(parasitics)
    attach_bus_testbench(seed_model.skeleton, stimulus)
    return model.circuit, seed_model.circuit, victim


def run_sim_suite(
    kernels: Optional[Sequence[str]] = None,
    size: int = 256,
    sim_size: int = 64,
    repeats: int = 3,
    include_seed: bool = False,
) -> List[BenchResult]:
    """Execute the sim suite; one :class:`BenchResult` per (kernel, variant).

    ``size`` scales the assembly workload and ``sim_size`` the
    transient/AC workloads (shrink both for tests); kernel names keep
    their canonical workload spellings, with the actual size recorded in
    the ``size`` field, exactly as :func:`repro.bench.runner.run_suite`
    does.
    """
    selected = tuple(kernels) if kernels is not None else SIM_KERNELS
    unknown = set(selected) - set(SIM_KERNELS)
    if unknown:
        raise ValueError(f"unknown kernels: {sorted(unknown)}")

    results: List[BenchResult] = []

    if "peec_assembly_bus256" in selected:
        parasitics = extract(aligned_bus(size))

        def columnar_assembly():
            return build_mna(build_peec(parasitics).circuit)

        def object_assembly():
            return seed_build_mna(seed_build_peec(parasitics).circuit)

        seconds, system = _best_time(columnar_assembly, repeats)
        results.append(
            BenchResult(
                kernel="peec_assembly_bus256",
                variant="columnar",
                size=size,
                seconds=seconds,
                checksum=_mna_checksum(system),
            )
        )
        if include_seed:
            seconds, system = _best_time(object_assembly, repeats)
            results.append(
                BenchResult(
                    kernel="peec_assembly_bus256",
                    variant="seed",
                    size=size,
                    seconds=seconds,
                    checksum=_mna_checksum(system),
                )
            )

    need_sim = {"transient_bus64", "ac_sweep_bus64"} & set(selected)
    if need_sim:
        circuit, seed_circuit, victim = _testbench_circuits(sim_size)

    if "transient_bus64" in selected:
        seconds, result = _best_time(
            lambda: transient_analysis(
                circuit, _T_STOP, _DT, probe_nodes=[victim]
            ),
            repeats,
        )
        results.append(
            BenchResult(
                kernel="transient_bus64",
                variant="columnar",
                size=sim_size,
                seconds=seconds,
                checksum=array_checksum(result.voltage(victim).v),
            )
        )
        if include_seed:
            seconds, (times, volt) = _best_time(
                lambda: seed_transient_analysis(
                    seed_circuit, _T_STOP, _DT, probe_nodes=[victim]
                ),
                repeats,
            )
            results.append(
                BenchResult(
                    kernel="transient_bus64",
                    variant="seed",
                    size=sim_size,
                    seconds=seconds,
                    checksum=array_checksum(volt[0]),
                )
            )

    if "ac_sweep_bus64" in selected:
        freqs = logspace_frequencies(
            1.0, 10e9, points_per_decade=_AC_POINTS_PER_DECADE
        )
        seconds, result = _best_time(
            lambda: ac_analysis(circuit, freqs, probe_nodes=[victim]),
            repeats,
        )
        response = np.asarray(result.node_voltages[victim])
        results.append(
            BenchResult(
                kernel="ac_sweep_bus64",
                variant="columnar",
                size=sim_size,
                seconds=seconds,
                checksum=array_checksum(response.real, response.imag),
            )
        )
        if include_seed:
            seconds, (_, volt) = _best_time(
                lambda: seed_ac_analysis(
                    seed_circuit, freqs, probe_nodes=[victim]
                ),
                repeats,
            )
            results.append(
                BenchResult(
                    kernel="ac_sweep_bus64",
                    variant="seed",
                    size=sim_size,
                    seconds=seconds,
                    checksum=array_checksum(volt[0].real, volt[0].imag),
                )
            )

    return results

"""Columnar-vs-object equivalence: the fast path computes the same bits.

The columnar stores (:mod:`repro.circuit.columns`) and the per-class
vectorized MNA stamps are pure performance work -- they must be
*bit-identical* to the one-dataclass-at-a-time path, not merely close.
A hypothesis strategy builds the same random network twice (scalar
``add_*`` calls vs bulk ``add_*_array`` calls, same element order) and
the properties assert exact equality of ``G``, ``C``, and every RHS
flavor, across all element classes including both mutual-coupling
reference forms.

The multi-RHS engines (``transient_analysis_multi`` /
``ac_analysis_multi``) share one factorization across scenarios.  Each
scenario column must equal a single-scenario run on a circuit rebuilt
with that scenario's sources baked in -- the one-scenario case of the
same engine -- and, as the independent oracle, the frozen seed loops of
:mod:`repro.bench.reference` on that circuit: bit for bit for the
backward-Euler march, to rounding for the AC sweep.  The trapezoidal
march takes the rule in its C-only form (history ``(4/h) C``, the old
state subtracted after the solve), which rounds differently from the
seed's ``2C/h - G`` history: it is held bit for bit to an in-test loop
of that recurrence (:func:`c_only_trapezoidal_march`), which pins the
march's glue, and within :data:`SEED_ATOL` to the seed march.  The
escalation's own shape -- one unit-ramp column per wire of a gw8 bus
testbench, fresh and resumed -- is held to both oracles the same way.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import reference
from repro.bench.reference import seed_ac_analysis, seed_transient_analysis
from repro.circuit.ac import ac_analysis, ac_analysis_multi
from repro.circuit.dc import solve_dc
from repro.circuit.mna import build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus, ac_unit, dc, step
from repro.circuit.transient import (
    transient_analysis,
    transient_analysis_multi,
)
from repro.experiments.runner import build_model, gw_spec
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.health.solvers import factorize
from repro.noise.engine import attach_quiet_bus_testbench

_VALUES = st.floats(min_value=1.0, max_value=1e4)
_GAINS = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def paired_circuits(draw):
    """The same random network built through both construction paths.

    Returns ``(object_circuit, columnar_circuit)``: a resistor chain off
    a driven node, ground capacitors, an inductor ladder with mutual
    couplings, and one of each controlled-source class.  Element order
    is identical on both sides, so the assembled matrices must match
    bit for bit.
    """
    node_count = draw(st.integers(min_value=3, max_value=6))
    nodes = [f"n{k}" for k in range(node_count)]
    scalar = Circuit("object-path")
    columnar = Circuit("columnar-path")

    drive = draw(st.floats(min_value=0.1, max_value=10.0))
    stimulus = step(drive, rise_time=10e-12)
    scalar.add_voltage_source(nodes[0], "0", stimulus, name="V1")
    columnar.add_voltage_source_array(
        [nodes[0]], ["0"], [stimulus], names=["V1"]
    )

    chain = [draw(_VALUES) for _ in range(1, node_count)]
    for k, value in enumerate(chain, start=1):
        scalar.add_resistor(nodes[k - 1], nodes[k], value, name=f"R{k}")
    columnar.add_resistor_array(
        nodes[:-1],
        nodes[1:],
        chain,
        names=[f"R{k}" for k in range(1, node_count)],
    )

    caps = [draw(_VALUES) * 1e-15 for _ in nodes[1:]]
    for k, value in enumerate(caps, start=1):
        scalar.add_capacitor(nodes[k], "0", value, name=f"C{k}")
    columnar.add_capacitor_array(
        nodes[1:], ["0"] * len(caps), caps, names=[f"C{k}" for k in range(1, node_count)]
    )

    # Inductor ladder: each inductor leaves a chain node for a private
    # node that a resistor returns to ground (no V-L loops possible).
    ind_count = draw(st.integers(min_value=2, max_value=4))
    ind_values = [draw(_VALUES) * 1e-12 for _ in range(ind_count)]
    ind_n1 = [nodes[k % (node_count - 1) + 1] for k in range(ind_count)]
    ind_n2 = [f"m{k}" for k in range(ind_count)]
    ind_names = [f"L{k}" for k in range(ind_count)]
    for name, n1, n2, value in zip(ind_names, ind_n1, ind_n2, ind_values):
        scalar.add_inductor(n1, n2, value, name=name)
    columnar.add_inductor_array(ind_n1, ind_n2, ind_values, names=ind_names)
    shunts = [draw(_VALUES) for _ in range(ind_count)]
    for k, value in enumerate(shunts):
        scalar.add_resistor(ind_n2[k], "0", value, name=f"Rm{k}")
    columnar.add_resistor_array(
        ind_n2,
        ["0"] * ind_count,
        shunts,
        names=[f"Rm{k}" for k in range(ind_count)],
    )

    # Mutual couplings between consecutive ladder inductors, each below
    # the |k| < 1 physical bound.
    mut_values = [
        draw(st.floats(min_value=0.01, max_value=0.9))
        * np.sqrt(ind_values[k] * ind_values[k + 1])
        for k in range(ind_count - 1)
    ]
    mut_names = [f"K{k}" for k in range(ind_count - 1)]
    for k, value in enumerate(mut_values):
        scalar.add_mutual(ind_names[k], ind_names[k + 1], value, name=mut_names[k])
    columnar.add_mutual_array(
        ind_names[:-1], ind_names[1:], mut_values, names=mut_names
    )

    source_ac = draw(st.floats(min_value=0.1, max_value=2.0))
    scalar.add_current_source(nodes[-1], "0", ac_unit(source_ac), name="I1")
    columnar.add_current_source_array(
        [nodes[-1]], ["0"], [ac_unit(source_ac)], names=["I1"]
    )

    gains = [draw(_GAINS) for _ in range(3)]
    scalar.add_vcvs(nodes[2], "0", nodes[0], nodes[1], gains[0], name="E1")
    columnar.add_vcvs_array(
        [nodes[2]], ["0"], [nodes[0]], [nodes[1]], [gains[0]], names=["E1"]
    )
    scalar.add_vccs(nodes[1], "0", nodes[2], "0", gains[1], name="G1")
    columnar.add_vccs_array(
        [nodes[1]], ["0"], [nodes[2]], ["0"], [gains[1]], names=["G1"]
    )
    scalar.add_cccs(nodes[2], "0", "V1", gains[2], name="F1")
    columnar.add_cccs_array(
        [nodes[2]], ["0"], ["V1"], [gains[2]], names=["F1"]
    )
    return scalar, columnar


def _dense(matrix):
    return np.asarray(matrix.todense())


@settings(max_examples=25, deadline=None)
@given(paired_circuits())
def test_columnar_assembly_bit_identical(pair):
    """G, C, and every RHS flavor match the object path exactly."""
    scalar, columnar = pair
    a = build_mna(scalar)
    b = build_mna(columnar)
    assert a.size == b.size
    assert np.array_equal(_dense(a.G), _dense(b.G))
    assert np.array_equal(_dense(a.C), _dense(b.C))
    assert np.array_equal(a.rhs_dc(), b.rhs_dc())
    assert np.array_equal(a.rhs_ac(), b.rhs_ac())
    times = np.linspace(0.0, 50e-12, 7)
    assert np.array_equal(
        a.rhs_transient_batch_multi(times, [{}]),
        b.rhs_transient_batch_multi(times, [{}]),
    )
    for t in times:
        assert np.array_equal(a.rhs_transient(float(t)), b.rhs_transient(float(t)))


@settings(max_examples=25, deadline=None)
@given(paired_circuits())
def test_columnar_iteration_matches_object(pair):
    """Store iteration materializes the same element records, in order."""
    scalar, columnar = pair
    for left, right in zip(scalar, columnar):
        assert left == right
    assert len(scalar) == len(columnar)
    for element in scalar:
        assert columnar.element(element.name) == element
        assert columnar.kind_of(element.name) is type(element)


def test_positional_mutual_matches_name_form():
    """`store=`/`positions=` couplings assemble exactly like named ones."""

    def base(circuit):
        circuit.add_voltage_source("a", "0", dc(1.0), name="V1")
        circuit.add_resistor("a", "b", 10.0, name="Rab")
        circuit.add_resistor("c", "0", 20.0, name="Rc0")
        circuit.add_resistor("d", "0", 30.0, name="Rd0")
        return circuit.add_inductor_array(
            ["b", "b", "c"],
            ["c", "d", "d"],
            [1e-9, 2e-9, 3e-9],
            names=["L0", "L1", "L2"],
        )

    named = Circuit("named")
    base(named)
    named.add_mutual_array(
        ["L0", "L0", "L1"],
        ["L1", "L2", "L2"],
        [0.2e-9, 0.3e-9, 0.4e-9],
        names=["K0", "K1", "K2"],
    )

    positional = Circuit("positional")
    store = base(positional)
    positional.add_mutual_array(
        None,
        None,
        [0.2e-9, 0.3e-9, 0.4e-9],
        names=["K0", "K1", "K2"],
        store=store,
        positions=([0, 0, 1], [1, 2, 2]),
    )

    a = build_mna(named)
    b = build_mna(positional)
    assert np.array_equal(_dense(a.G), _dense(b.G))
    assert np.array_equal(_dense(a.C), _dense(b.C))
    # Lazy name resolution yields identical materialized records.
    assert [e for e in named] == [e for e in positional]
    assert positional.element("K1").inductor2 == "L2"


#: Largest difference, in volts, between the trapezoidal march and the
#: frozen seed march (drives of at most 2 V).  The two histories round
#: differently: measured 3.2e-15 V on the 5-node RLC circuit over 100
#: steps and 6.0e-13 V on the gw8 8-wire testbench over 240 steps.
SEED_ATOL = 1e-11


def c_only_trapezoidal_march(circuit, t_stop, dt, probe_nodes):
    """The trapezoidal rule in its C-only form, one vector at a time.

    ``x <- A^{-1} ((4/h) C x + b_n + b_{n+1}) - x`` with ``A = G +
    2C/h``, the right-hand side rebuilt by ``rhs_transient`` at every
    step and one scalar probe gather per sample: the march's arithmetic
    without its glue (source columns, reused operand block, batched
    solve, record gather), so the march must equal it bit for bit.
    Returns one waveform row per probe node.
    """
    system = build_mna(circuit)
    rows = [system.node_row(node) for node in probe_nodes]
    steps = int(np.ceil(t_stop / dt))
    times = np.arange(steps + 1) * dt
    c_mat = system.C.tocsc()
    lhs = factorize((system.G.tocsc() + (2.0 / dt) * c_mat).tocsc())
    history = (4.0 / dt) * c_mat
    b_now = system.rhs_transient(0.0)
    x = solve_dc(system, rhs=b_now)
    volt = np.zeros((len(rows), steps + 1))
    for n in range(steps + 1):
        if n:
            b_next = system.rhs_transient(times[n])
            x = lhs.solve(history @ x + b_now + b_next) - x
            b_now = b_next
        for pos, row in enumerate(rows):
            if row >= 0:
                volt[pos, n] = x[row]
    return volt


def _sim_circuit(vs_stim=None, is_stim=None):
    circuit = Circuit("multi-rhs")
    circuit.add_voltage_source(
        "in", "0", vs_stim or step(1.0, rise_time=10e-12), name="Vs"
    )
    circuit.add_resistor("in", "mid", 50.0, name="R1")
    circuit.add_capacitor("mid", "0", 1e-12, name="C1")
    circuit.add_inductor("mid", "out", 1e-9, name="L1")
    circuit.add_resistor("out", "0", 75.0, name="R2")
    circuit.add_current_source("out", "0", is_stim or ac_unit(0.5), name="Is")
    return circuit


@pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
def test_transient_multi_equals_looped_single(method):
    circuit = _sim_circuit()
    scenarios = [
        {},
        {"Vs": step(2.0, rise_time=20e-12)},
        {"Vs": dc(0.5), "Is": dc(1e-3)},
    ]
    batched = transient_analysis_multi(
        circuit, 100e-12, 1e-12, scenarios, method=method,
        probe_nodes=["mid", "out"], probe_branches=["L1"],
    )
    assert len(batched) == len(scenarios)
    for overrides, result in zip(scenarios, batched):
        rebuilt = _sim_circuit(
            vs_stim=overrides.get("Vs"), is_stim=overrides.get("Is")
        )
        single = transient_analysis(
            rebuilt, 100e-12, 1e-12, method=method,
            probe_nodes=["mid", "out"], probe_branches=["L1"],
        )
        # The single entry point is the batched engine's one-scenario
        # case; the frozen seed loop (object-path assembly, per-step
        # RHS rebuild, scalar probe gather) is the independent oracle,
        # exact for backward Euler, and the C-only loop is the
        # trapezoidal march's exact one.
        _, seed_volt = seed_transient_analysis(
            rebuilt, 100e-12, 1e-12, ["mid", "out"], method=method
        )
        exact = seed_volt if method == "backward_euler" else (
            c_only_trapezoidal_march(rebuilt, 100e-12, 1e-12, ["mid", "out"])
        )
        for k, node in enumerate(("mid", "out")):
            assert np.array_equal(
                result.voltage(node).v, single.voltage(node).v
            )
            assert np.array_equal(result.voltage(node).v, exact[k])
            np.testing.assert_allclose(
                result.voltage(node).v, seed_volt[k], rtol=0, atol=SEED_ATOL
            )
        assert np.array_equal(result.current("L1").v, single.current("L1").v)


@functools.lru_cache(maxsize=None)
def _quiet_bus8():
    """The gw8 quiet testbench of an 8-wire bus: every wire behind its
    own ``Vdrv{wire}`` source holding 0 V, as the escalation marches it."""
    built = build_model(gw_spec(8), extract(aligned_bus(8)))
    attach_quiet_bus_testbench(built.skeleton)
    return built


@pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
def test_escalation_march_equals_the_seed_march(method, monkeypatch):
    """The escalation's own shape: one unit-ramp column per wire of the
    gw8 testbench in one batched march, fresh and resumed, against the
    frozen seed march on the circuit rebuilt with that ramp baked in
    (bit for bit for backward Euler, within :data:`SEED_ATOL` for the
    trapezoidal rule, which is held bit for bit to the C-only loop).

    The seed assembler sums two of this circuit's duplicate ``G``
    diagonal entries in another order (one ulp apart), so the seed march
    runs on the columnar assembly here: the oracle is the per-step
    ``rhs_transient`` rebuild, the one-vector product and solve, and the
    scalar probe gather.
    """
    built = _quiet_bus8()
    circuit = built.circuit
    ports = built.skeleton.ports
    wires = sorted(ports)
    probes = [ports[wire].far for wire in wires] + ["0"]
    ramp = step(1.0, rise_time=10e-12)
    scenarios = [{f"Vdrv{wire}": ramp} for wire in wires]
    dt, t_stop = 1e-12, 240e-12
    fresh = transient_analysis_multi(
        circuit, t_stop, dt, scenarios, method=method, probe_nodes=probes
    )
    head = transient_analysis_multi(
        circuit, 97e-12, dt, scenarios, method=method, probe_nodes=probes
    )
    start = len(head[0].times) - 1
    resumed = transient_analysis_multi(
        circuit, t_stop, dt, scenarios, method=method, probe_nodes=probes,
        x0=np.column_stack([result.state for result in head]), start=start,
    )
    monkeypatch.setattr(reference, "seed_build_mna", build_mna)
    for wire, whole, tail in zip(wires, fresh, resumed):
        rebuilt = Circuit(f"ramp on wire {wire}")
        for element in circuit:
            if element.name == f"Vdrv{wire}":
                element = replace(element, stimulus=ramp)
            rebuilt.add(element)
        _, seed_volt = seed_transient_analysis(
            rebuilt, t_stop, dt, probes, method=method
        )
        exact = seed_volt if method == "backward_euler" else (
            c_only_trapezoidal_march(rebuilt, t_stop, dt, probes)
        )
        assert np.any(seed_volt[wire])
        for k, node in enumerate(probes):
            assert np.array_equal(whole.node_voltages[node], exact[k])
            assert np.array_equal(
                tail.node_voltages[node], whole.node_voltages[node][start:]
            )
            np.testing.assert_allclose(
                whole.node_voltages[node], seed_volt[k], rtol=0, atol=SEED_ATOL
            )
        assert not np.any(whole.node_voltages["0"])


def test_ac_multi_equals_looped_single():
    circuit = _sim_circuit()
    freqs = np.logspace(6, 10, 13)
    scenarios = [{}, {"Vs": 2.0 + 0.0j}, {"Vs": 0.0j, "Is": 1.0 + 1.0j}]
    batched = ac_analysis_multi(
        circuit, freqs, scenarios, probe_nodes=["mid", "out"]
    )
    assert len(batched) == len(scenarios)
    for overrides, result in zip(scenarios, batched):
        rebuilt = _sim_circuit(
            vs_stim=(
                Stimulus(ac=overrides["Vs"]) if "Vs" in overrides else None
            ),
            is_stim=(
                Stimulus(ac=overrides["Is"]) if "Is" in overrides else None
            ),
        )
        single = ac_analysis(rebuilt, freqs, probe_nodes=["mid", "out"])
        # Independent oracle: the frozen seed sweep re-permutes columns
        # per point instead of reusing the permuted structure, so it
        # agrees to rounding, not bit for bit.
        _, seed_volt = seed_ac_analysis(rebuilt, freqs, ["mid", "out"])
        for k, node in enumerate(("mid", "out")):
            assert np.array_equal(
                result.node_voltages[node], single.node_voltages[node]
            )
            np.testing.assert_allclose(
                result.node_voltages[node], seed_volt[k], rtol=1e-12, atol=0
            )

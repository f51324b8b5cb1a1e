"""SweepSolver structure reuse, alignment, and probe-guard behavior."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.circuit.ac import SweepSolver, _expand_onto
from repro.circuit.netlist import Circuit
from repro.circuit.sources import ac_unit, step
from repro.circuit.transient import transient_analysis
from repro.pipeline.profiling import collect


def _rc_ladder(sections=6):
    circuit = Circuit("ladder")
    circuit.add_voltage_source("n0", "0", ac_unit(1.0), name="V1")
    for k in range(1, sections + 1):
        circuit.add_resistor(f"n{k - 1}", f"n{k}", 100.0, name=f"R{k}")
        circuit.add_capacitor(f"n{k}", "0", 1e-12, name=f"C{k}")
    return circuit


class TestExpandOnto:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        dense = np.where(rng.random((12, 12)) < 0.25, rng.random((12, 12)), 0.0)
        mat = csc_matrix(dense).astype(complex)
        other = csc_matrix(np.diag(rng.random(12))).astype(complex)
        union = (mat + other).tocsc()
        union.sort_indices()
        data = _expand_onto(mat, union)
        assert data is not None
        rebuilt = csc_matrix(
            (data, union.indices, union.indptr), shape=union.shape
        )
        assert np.array_equal(rebuilt.toarray(), mat.toarray())

    def test_pattern_mismatch_returns_none(self):
        mat = csc_matrix(np.array([[0.0, 2.0], [0.0, 0.0]])).astype(complex)
        union = csc_matrix(np.eye(2)).astype(complex)
        union.sort_indices()
        assert _expand_onto(mat, union) is None


class TestSweepSolver:
    def test_ordering_computed_once(self):
        from repro.circuit.mna import build_mna

        system = build_mna(_rc_ladder())
        solver = SweepSolver(system.G, system.C)
        assert solver._aligned
        rhs = system.rhs_ac()
        with collect() as profile:
            for freq in np.logspace(3, 9, 25):
                solver.solve(2.0 * np.pi * freq, rhs)
        assert profile.counters["lu_orderings"] == 1

    def test_reused_structure_matches_dense(self):
        from repro.circuit.mna import build_mna

        system = build_mna(_rc_ladder())
        solver = SweepSolver(system.G, system.C)
        rhs = system.rhs_ac()
        g = np.asarray(system.G.todense(), dtype=complex)
        c = np.asarray(system.C.todense(), dtype=complex)
        for freq in (1e3, 1e6, 1e9):  # first solve orders, rest reuse
            omega = 2.0 * np.pi * freq
            x = solver.solve(omega, rhs)
            expected = np.linalg.solve(g + 1j * omega * c, rhs)
            assert np.allclose(x, expected, rtol=1e-10, atol=1e-14)

    def test_matrix_rhs_matches_columnwise(self):
        from repro.circuit.mna import build_mna

        system = build_mna(_rc_ladder())
        solver = SweepSolver(system.G, system.C)
        rng = np.random.default_rng(11)
        rhs = rng.random((system.size, 4)) + 1j * rng.random((system.size, 4))
        solver.solve(2.0 * np.pi * 1e3, rhs[:, 0])  # pin the ordering
        for freq in (1e4, 1e8):
            omega = 2.0 * np.pi * freq
            together = solver.solve(omega, rhs)
            for k in range(rhs.shape[1]):
                # Same factorization, columnwise back-substitution.
                assert np.array_equal(
                    together[:, k], solver.solve(omega, rhs[:, k])
                )

    def test_unaligned_fallback_still_solves(self):
        # G and C cancel exactly, so the union pattern loses the entry
        # and alignment must be refused -- per-point factorization path.
        g = csc_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        c = csc_matrix(np.array([[-1.0, 0.0], [0.0, 0.5]]))
        solver = SweepSolver(g, c)
        assert not solver._aligned
        x = solver.solve(1.0, np.array([1.0, 1.0], dtype=complex))
        expected = np.linalg.solve(
            g.toarray() + 1j * c.toarray(), np.array([1.0, 1.0])
        )
        assert np.allclose(x, expected)


class TestLargeSystemProbeGuard:
    """The > 3000-unknown default-probe guard of the transient march."""

    @pytest.fixture(scope="class")
    def big_circuit(self):
        count = 3200
        nodes = [f"n{k}" for k in range(count + 1)]
        circuit = Circuit("big")
        circuit.add_voltage_source(
            nodes[0], "0", step(1.0, rise_time=10e-12), name="V1"
        )
        circuit.add_resistor_array(
            nodes[:-1], nodes[1:], [1.0] * count
        )
        circuit.add_resistor(nodes[-1], "0", 1.0, name="Rterm")
        return circuit

    def test_probe_branches_alone_is_enough(self, big_circuit):
        result = transient_analysis(
            big_circuit, 2e-12, 1e-12, probe_branches=["V1"]
        )
        assert result.current("V1").v.shape == (3,)
        with pytest.raises(KeyError):
            result.voltage("n1")  # node probes defaulted to none

    def test_unbounded_probes_error_names_the_option(self, big_circuit):
        with pytest.raises(ValueError, match="probe_nodes"):
            transient_analysis(big_circuit, 2e-12, 1e-12)

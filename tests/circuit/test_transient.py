"""Unit tests for transient analysis: analytic responses, convergence."""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus, dc, step
from repro.circuit.transient import transient_analysis, transient_analysis_multi
from repro.health import NonFiniteInputError


def rc_circuit(r=1e3, c=1e-12, v=1.0):
    circuit = Circuit()
    circuit.add_voltage_source("in", "0", dc(v), name="V1")
    circuit.add_resistor("in", "out", r)
    circuit.add_capacitor("out", "0", c)
    return circuit


class TestAnalyticResponses:
    def test_rc_step_response(self):
        tau = 1e-9
        result = transient_analysis(
            rc_circuit(), 5e-9, 1e-12, x0=np.zeros(3)
        )
        wave = result.voltage("out")
        expected = 1.0 - np.exp(-wave.t / tau)
        assert np.max(np.abs(wave.v - expected)) < 1e-6

    def test_rl_current_rise(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", dc(1.0), name="V1")
        circuit.add_resistor("in", "a", 1e3)
        circuit.add_inductor("a", "0", 1e-6, name="L1")
        result = transient_analysis(
            circuit, 5e-9, 1e-12, probe_branches=["L1"], x0=np.zeros(4)
        )
        current = result.current("L1")
        expected = 1e-3 * (1.0 - np.exp(-current.t / 1e-9))
        assert np.max(np.abs(current.v - expected)) < 1e-8

    def test_lc_oscillation_frequency(self):
        # Start the capacitor charged; count the oscillation period.
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])  # v(a) = 1, i(L) = 0
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(circuit, 3 * period, period / 400, x0=x0)
        wave = result.voltage("a")
        expected = np.cos(2 * np.pi * wave.t / period)
        assert np.max(np.abs(wave.v - expected)) < 0.01

    def test_lc_energy_conserved_by_trapezoidal(self):
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(
            circuit, 10 * period, period / 200, x0=x0, probe_branches=["L1"]
        )
        v = result.voltage("a").v
        i = result.current("L1").v
        energy = 0.5 * 1e-12 * v**2 + 0.5 * 1e-9 * i**2
        assert np.ptp(energy) / energy[0] < 1e-6

    def test_backward_euler_damps_lc(self):
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(
            circuit, 10 * period, period / 200, x0=x0, method="backward_euler"
        )
        wave = result.voltage("a")
        assert np.max(np.abs(wave.v[-200:])) < 0.9  # visibly damped


class TestNumericalBehavior:
    def test_trapezoidal_second_order_convergence(self):
        tau = 1e-9

        def error(dt):
            result = transient_analysis(rc_circuit(), 4e-9, dt, x0=np.zeros(3))
            wave = result.voltage("out")
            return np.max(np.abs(wave.v - (1.0 - np.exp(-wave.t / tau))))

        e1, e2 = error(20e-12), error(10e-12)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_backward_euler_first_order_convergence(self):
        tau = 1e-9

        def error(dt):
            result = transient_analysis(
                rc_circuit(), 4e-9, dt, method="backward_euler", x0=np.zeros(3)
            )
            wave = result.voltage("out")
            return np.max(np.abs(wave.v - (1.0 - np.exp(-wave.t / tau))))

        e1, e2 = error(20e-12), error(10e-12)
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)

    def test_starts_from_dc_by_default(self):
        # Sources at their t=0 values: a settled divider stays settled.
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", dc(2.0), name="V1")
        circuit.add_resistor("in", "m", 1e3)
        circuit.add_resistor("m", "0", 1e3)
        circuit.add_capacitor("m", "0", 1e-12)
        result = transient_analysis(circuit, 1e-9, 1e-12)
        wave = result.voltage("m")
        assert np.allclose(wave.v, 1.0, atol=1e-9)

    def test_ramped_step_follows_source(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", step(1.0, rise_time=10e-12), name="V1")
        circuit.add_resistor("in", "0", 1e3)
        result = transient_analysis(circuit, 50e-12, 1e-12)
        wave = result.voltage("in")
        assert wave.v[0] == pytest.approx(0.0, abs=1e-12)
        assert wave.v[-1] == pytest.approx(1.0)


class TestValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 1e-12, method="euler")

    def test_bad_times(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 0.0, 1e-12)
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 0.0)
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-13, 1e-12)

    def test_wrong_x0_size(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 1e-12, x0=np.zeros(99))

    def test_unprobed_node_raises(self):
        result = transient_analysis(rc_circuit(), 1e-9, 1e-12, probe_nodes=["out"])
        with pytest.raises(KeyError):
            result.voltage("in")

    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_stimulus_turning_nan_mid_march_is_typed(self, method):
        """The right-hand side is checked at every step, not only on
        the factor's first, residual-verified solves."""
        dt = 1e-12
        failing = Stimulus(
            transient=lambda t: float("nan") if t > 73.5 * dt else 1.0
        )
        scenarios = [{}, {"V2": failing}, {"V1": step(1.0, rise_time=5e-12)}]
        with pytest.raises(NonFiniteInputError, match="right-hand side"):
            transient_analysis_multi(
                coupled_pair(), 200 * dt, dt, scenarios, method=method,
                probe_nodes=["b1"],
            )


def coupled_pair():
    """Two driven RLC lines coupled by a capacitor and a mutual."""
    circuit = Circuit()
    for k in (1, 2):
        circuit.add_voltage_source(f"s{k}", "0", dc(0.0), name=f"V{k}")
        circuit.add_resistor(f"s{k}", f"a{k}", 50.0)
        circuit.add_inductor(f"a{k}", f"b{k}", 2e-9, name=f"L{k}")
        circuit.add_capacitor(f"b{k}", "0", 40e-15)
    circuit.add_capacitor("b1", "b2", 25e-15)
    circuit.add_mutual("L1", "L2", 0.4)
    return circuit


# Each scenario keeps switching after every resume point below.
RESUME_SCENARIOS = [
    {"V1": step(1.0, rise_time=7e-12, delay=3e-12)},
    {"V2": step(1.0, rise_time=2.5e-12, delay=141.3e-12)},
    {"V1": step(0.5, rise_time=1e-12, delay=222e-12)},
]


class TestResume:
    @pytest.mark.parametrize("method", ["trapezoidal", "backward_euler"])
    def test_resumed_march_equals_the_uninterrupted_tail(self, method):
        dt = 1e-12
        kwargs = dict(
            method=method,
            probe_nodes=["b1", "b2", "a1"],
            probe_branches=["L2"],
        )
        whole = transient_analysis_multi(
            coupled_pair(), 400 * dt, dt, RESUME_SCENARIOS, **kwargs
        )
        # Resume twice; each reach comes from the samples a march
        # returned, not from the t_stop it was given.
        marched = transient_analysis_multi(
            coupled_pair(), 97 * dt, dt, RESUME_SCENARIOS, **kwargs
        )
        start = 0
        for t_stop in (230 * dt, 400 * dt):
            start += len(marched[0].times) - 1
            x0 = np.column_stack([r.state for r in marched])
            marched = transient_analysis_multi(
                coupled_pair(), t_stop, dt, RESUME_SCENARIOS,
                x0=x0, start=start, **kwargs,
            )
            span = slice(start, start + len(marched[0].times))
            for full, tail in zip(whole, marched):
                assert np.array_equal(tail.times, full.times[span])
                for node, values in tail.node_voltages.items():
                    assert np.array_equal(values, full.node_voltages[node][span])
                assert np.array_equal(
                    tail.branch_currents["L2"], full.branch_currents["L2"][span]
                )
        assert span.stop == len(whole[0].times)
        for full, tail in zip(whole, marched):
            assert np.array_equal(tail.state, full.state)

    def test_resume_validation(self):
        dt = 1e-12
        [first] = transient_analysis_multi(coupled_pair(), 10 * dt, dt, [{}])
        with pytest.raises(ValueError, match="x0"):
            transient_analysis_multi(coupled_pair(), 20 * dt, dt, [{}], start=10)
        with pytest.raises(ValueError, match="start"):
            transient_analysis_multi(
                coupled_pair(), 20 * dt, dt, [{}], x0=first.state, start=20
            )
        with pytest.raises(ValueError, match="shape"):
            transient_analysis_multi(
                coupled_pair(), 20 * dt, dt, [{}, {}],
                x0=np.zeros((first.state.size, 3)), start=10,
            )


class TestCompactSourceBlock:
    def test_block_spans_the_source_rows_only(self):
        from repro.circuit.mna import build_mna

        system = build_mna(coupled_pair())
        rows = system.source_rows()
        assert list(rows) == sorted(
            system.branch_row(name) for name in ("V1", "V2")
        )
        times = np.arange(50) * 1e-12
        block = system.rhs_transient_batch_multi(times, RESUME_SCENARIOS)
        assert block.shape == (50, 2, 3)
        for n, t in enumerate(times):
            full = system.rhs_transient(float(t))
            assert not np.any(np.delete(full, rows))
        scenario = system.rhs_transient_batch_multi(times, [{}])
        for n, t in enumerate(times):
            assert np.array_equal(
                scenario[n, :, 0], system.rhs_transient(float(t))[rows]
            )

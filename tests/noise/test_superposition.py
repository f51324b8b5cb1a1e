"""Differential suite: the escalation tier's superposition equals the march.

:func:`~repro.noise.engine.simulate_escalated` marches one unit-ramp
column per driven source and :func:`~repro.noise.engine.superpose`
builds every victim's waveform as a sum of time-shifted responses.  The
oracle below is the direct construction: one
:func:`~repro.circuit.transient.transient_analysis_multi` column per
escalated victim, its aggressors driven by their own delayed
``step(vdd, rise, delay)`` sources, each waveform cut back to its
owner's horizon.  Hypothesis draws bus widths, integer and fractional
``rise / dt``, on-grid and fractional launches, aggressor sets, the
plan's source shards and the window-solve backend; superposed peaks and
areas must match the oracle to 1e-10 relative.  A complete response
entry -- every wire marched and probed, as the service retains it --
must give exactly the throwaway entry's metrics.

A second check runs a real escalation item (the 16-bit bus of the
service benchmark stream, schedule seed 2007) against a march whose LU
solves are refined against a ``longdouble`` residual: the plain march
and the superposition must both lie within 1e-8 of it.  Their ninth
digit is rounding noise of the march, not an error of either method.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from repro.circuit.mna import build_mna
from repro.circuit.sources import step
from repro.circuit.transient import transient_analysis_multi
from repro.circuit.waveform import Waveform
from repro.experiments.runner import build_model, gw_spec
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.noise.engine import (
    EscalatedColumn,
    NoiseConfig,
    ResponseEntry,
    SimulateItem,
    _masked_metrics,
    attach_quiet_bus_testbench,
    escalate,
    plan_marches,
    plan_simulations,
    screen_scenario,
    simulate_escalated,
    superpose,
)
from repro.noise.windows import Window, WindowSet
from repro.pipeline.profiling import collect


@functools.lru_cache(maxsize=None)
def _bus(bits: int):
    """A tightly spaced bus, so every aggressor couples noticeably."""
    return extract(aligned_bus(bits, spacing=1e-6))


def _testbench(parasitics, item):
    built = build_model(item.spec, parasitics)
    config = item.config
    attach_quiet_bus_testbench(
        built.skeleton, config.driver_resistance, config.load_capacitance
    )
    return built


def _stimuli(item):
    """One scenario per column: its aggressors' own delayed ramps."""
    config = item.config
    return [
        {
            f"Vdrv{agg}": step(
                config.vdd, rise_time=config.rise_time, delay=delay
            )
            for agg, delay in column.launches
        }
        for column in item.columns
    ]


def _cut_metrics(item, waveforms):
    """Masked metrics of each column's waveform on its owner's samples."""
    metrics = {}
    for column, waveform in zip(item.columns, waveforms):
        count = int(np.ceil(column.horizon / item.config.dt)) + 1
        metrics[(column.owner, column.victim)] = _masked_metrics(
            Waveform(t=waveform.t[:count], v=waveform.v[:count]),
            column.sensitive,
        )
    return metrics


def per_victim_metrics(parasitics, item):
    """The oracle: one transient column per escalated victim."""
    built = _testbench(parasitics, item)
    ports = built.skeleton.ports
    results = transient_analysis_multi(
        built.circuit,
        max(column.horizon for column in item.columns),
        item.config.dt,
        _stimuli(item),
        probe_nodes=sorted({ports[c.victim].far for c in item.columns}),
    )
    return _cut_metrics(
        item,
        [r.voltage(ports[c.victim].far) for c, r in zip(item.columns, results)],
    )


def refined_metrics(parasitics, item):
    """Per-victim march with ``longdouble``-refined LU solves.

    The trapezoidal recurrence of :mod:`repro.circuit.transient` on the
    same float64 matrices, but every step's solve is refined twice
    against a residual evaluated in extended precision, and the state is
    carried in ``longdouble``: a reference whose rounding error sits far
    below the float64 march's.
    """
    built = _testbench(parasitics, item)
    ports = built.skeleton.ports
    dt = item.config.dt
    system = build_mna(built.circuit)
    steps = int(np.ceil(max(c.horizon for c in item.columns) / dt))
    times = np.arange(steps + 1) * dt
    b = system.rhs_transient_batch_multi(times, _stimuli(item))
    g_mat = system.G.tocsc()
    c_scaled = (2.0 / dt) * system.C.tocsc()
    lhs = (g_mat + c_scaled).tocsc()
    history = (c_scaled - g_mat).tocsc().astype(np.longdouble)
    lhs_wide = lhs.astype(np.longdouble)
    lu = splu(lhs)
    rows = [system.node_row(ports[c.victim].far) for c in item.columns]
    sources = system.source_rows()
    volt = np.zeros((len(item.columns), steps + 1))
    x = np.zeros((system.size, len(item.columns)), dtype=np.longdouble)
    # Until the first nonzero source sample the state is exactly zero.
    first = max(int(np.flatnonzero(np.abs(b).max(axis=(1, 2)))[0]), 1)
    for n in range(first, steps + 1):
        # b holds the source rows only; every other row of b(t) is zero.
        rhs = history @ x
        rhs[sources] += b[n - 1]
        rhs[sources] += b[n]
        x = lu.solve(rhs.astype(float)).astype(np.longdouble)
        for _ in range(2):
            residual = rhs - lhs_wide @ x
            x = x + lu.solve(residual.astype(float))
        volt[:, n] = x[rows, np.arange(len(rows))].astype(float)
    return _cut_metrics(item, [Waveform(t=times, v=v) for v in volt])


def superposed_metrics(parasitics, item, parts=1, complete=False):
    """``simulate_escalated`` over the item's march items, split
    ``parts`` ways by source the way the service shards them, then
    ``superpose`` from one entry -- a throwaway one, or a complete one
    over every wire of the bus."""
    entry = ResponseEntry()
    for march in plan_marches(
        item, shards=parts, entry=entry if complete else None
    ):
        entry.add(simulate_escalated(parasitics, march).segments)
    return superpose(item, entry)


def _assert_close(ours, theirs, rtol):
    assert ours.keys() == theirs.keys()
    for key, (peak, area) in theirs.items():
        assert ours[key][0] == pytest.approx(peak, rel=rtol, abs=0.0), key
        assert ours[key][1] == pytest.approx(area, rel=rtol, abs=0.0), key


@st.composite
def escalation_items(draw):
    """A simulate item of 1-2 owners with 1-2 victims each."""
    bits = draw(st.integers(min_value=4, max_value=8))
    rise = draw(st.sampled_from([10e-12, 5.5e-12]))
    solver = draw(st.sampled_from(["direct", "iterative"]))
    config = NoiseConfig(rise_time=rise)
    columns = []
    for owner in range(draw(st.integers(min_value=1, max_value=2))):
        victims = draw(
            st.lists(
                st.integers(min_value=0, max_value=bits - 1),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        drawn = []
        for victim in victims:
            aggressors = draw(
                st.lists(
                    st.sampled_from([w for w in range(bits) if w != victim]),
                    min_size=1,
                    max_size=bits - 1,
                    unique=True,
                )
            )
            launches = tuple(
                (
                    agg,
                    (
                        draw(st.integers(min_value=0, max_value=40))
                        + draw(st.sampled_from([0.0, 0.25, 0.5, 0.637]))
                    )
                    * config.dt,
                )
                for agg in aggressors
            )
            opens = draw(st.floats(min_value=0.0, max_value=40.3)) * 1e-12
            drawn.append((victim, launches, opens))
        horizon = (
            max(d for _, launches, _ in drawn for _, d in launches)
            + rise
            + 60e-12
        )
        for victim, launches, opens in drawn:
            columns.append(
                EscalatedColumn(
                    owner=owner,
                    victim=victim,
                    launches=launches,
                    sensitive=WindowSet([Window(opens, horizon)]),
                    horizon=horizon,
                )
            )
    columns.sort(key=lambda c: (c.horizon, c.owner, c.victim))
    item = SimulateItem(
        source=None,
        spec=gw_spec(4, solver=solver),
        config=config,
        columns=tuple(columns),
        wires=bits,
    )
    return bits, item


class TestSuperpositionEqualsPerVictimMarch:
    @given(
        drawn=escalation_items(),
        parts=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_metrics_match_the_oracle(self, drawn, parts):
        bits, item = drawn
        parasitics = _bus(bits)
        _assert_close(
            superposed_metrics(parasitics, item, parts),
            per_victim_metrics(parasitics, item),
            rtol=1e-10,
        )

    @given(
        drawn=escalation_items(),
        parts=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_complete_entry_equals_throwaway_entry(self, drawn, parts):
        """Every wire marched and probed, split by source: each response
        column is independent of its batch, so the metrics are equal."""
        bits, item = drawn
        parasitics = _bus(bits)
        assert superposed_metrics(
            parasitics, item, parts, complete=True
        ) == superposed_metrics(parasitics, item)

    def test_fractional_rise_needs_the_step_column(self):
        """With rise/dt = 5.5 the blend alone misses one sample per
        launch; the step column's impulse response restores it."""
        parasitics = _bus(4)
        config = NoiseConfig(rise_time=5.5e-12)
        horizon = 12.25e-12 + config.rise_time + 60e-12
        item = SimulateItem(
            source=None,
            spec=gw_spec(4),
            config=config,
            columns=(
                EscalatedColumn(
                    owner=0,
                    victim=1,
                    launches=((0, 3.0e-12), (2, 12.25e-12)),
                    sensitive=WindowSet([Window(0.0, horizon)]),
                    horizon=horizon,
                ),
            ),
        )
        _assert_close(
            superposed_metrics(parasitics, item),
            per_victim_metrics(parasitics, item),
            rtol=1e-10,
        )


class TestStreamScanAgainstRefinedMarch:
    """The 16-bit bus of the service stream, schedule seed 2007."""

    @pytest.fixture(scope="class")
    def scan(self):
        parasitics = extract(aligned_bus(16))
        config = NoiseConfig(threshold_fraction=0.1, schedule_seed=2007)
        screened = screen_scenario(parasitics, gw_spec(8), config)
        [item] = plan_simulations([screened])
        return parasitics, screened, item

    def test_one_ramp_column_per_driven_source(self, scan):
        """The whole 16-victim item marches its 5 aggressors once, only
        from the earliest launch's grid point to the horizon."""
        parasitics, screened, item = scan
        assert len(item.columns) == 16
        [march] = plan_marches(item)
        assert march.chunks() == [(2, 3, 8, 9, 10)]
        dt = screened.config.dt
        earliest = min(d for c in item.columns for _, d in c.launches)
        steps = int(np.ceil(screened.horizon / dt)) - int(earliest / dt)
        with collect() as profile:
            escalate(parasitics, item)
        assert profile.counters["transient_steps"] == 5 * steps

    def test_march_and_superposition_within_1e8(self, scan):
        parasitics, _, item = scan
        # Three victims: one driven early by two aggressors, one by two
        # late aggressors, one by three.
        item = replace(
            item,
            columns=tuple(c for c in item.columns if c.victim in (3, 8, 12)),
        )
        assert len(item.columns) == 3
        reference = refined_metrics(parasitics, item)
        _assert_close(
            per_victim_metrics(parasitics, item), reference, rtol=1e-8
        )
        _assert_close(
            escalate(parasitics, item).metrics, reference, rtol=1e-8
        )


class TestLaunchesStartAtZero:
    def test_window_before_zero_is_rejected(self, bus5):
        switching = [Window(100e-12 * k, 100e-12 * k + 10e-12) for k in range(5)]
        switching[2] = Window(-1e-12, 9e-12)
        with pytest.raises(ValueError, match="wire 2"):
            screen_scenario(bus5, gw_spec(8), NoiseConfig(), switching)

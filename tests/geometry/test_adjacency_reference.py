"""Adjacency and coupling capacitance, pinned to their reference loops.

``FilamentSystem._adjacent_sweep`` and ``extract_capacitances`` read
each filament's axial span, lateral coordinate, width and thickness
from lists built once.  The loops below read them from the filament
properties on every comparison instead, in the same order; every pair
and every coupling value must come out the same, bit for bit.
"""

import math

import pytest

from repro.bench.extraction_scale import scale_geometry
from repro.extraction.capacitance import CapacitanceModel, extract_capacitances
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.crossbar import crossbar
from repro.geometry.filament import Axis, Filament
from repro.geometry.system import FilamentSystem, _merge_interval, _uncovered_length


def _reference_sweep(self, indices, lateral):
    """The 1-D visibility sweep, reading filament properties per pair."""
    order = sorted(range(len(indices)), key=lambda k: lateral[k])
    pairs = []
    for a_pos, a in enumerate(order):
        i = indices[a]
        f_i = self._filaments[i]
        lo_i, hi_i = f_i.axial_span
        shadow = []
        for b in order[a_pos + 1:]:
            j = indices[b]
            f_j = self._filaments[j]
            if abs(lateral[b] - lateral[a]) < 1e-15:
                continue
            lo = max(lo_i, f_j.axial_span[0])
            hi = min(hi_i, f_j.axial_span[1])
            if hi - lo <= 0.0:
                continue
            if _uncovered_length((lo, hi), shadow) > 1e-12 * (hi_i - lo_i):
                pairs.append((i, j))
                shadow = _merge_interval(shadow, (lo, hi))
            if _uncovered_length((lo_i, hi_i), shadow) <= 1e-12 * (hi_i - lo_i):
                break
    return pairs


def _reference_coupling(system, pairs, model):
    """The coupling loop, reading filament properties per pair."""
    coupling = {}
    for i, j in pairs:
        f_i, f_j = system[i], system[j]
        overlap = min(f_i.axial_span[1], f_j.axial_span[1]) - max(
            f_i.axial_span[0], f_j.axial_span[0]
        )
        if overlap <= 0:
            continue
        gap = f_i.lateral_distance_to(f_j) - (f_i.width + f_j.width) / 2.0
        if gap <= 0:
            continue
        per_length = model.coupling_capacitance_per_length(
            thickness=min(f_i.thickness, f_j.thickness),
            spacing=gap,
            width=min(f_i.width, f_j.width),
        )
        coupling[(i, j)] = per_length * overlap
    for i, j, area, gap in system.crossing_pairs():
        coupling[(i, j)] = coupling.get((i, j), 0.0) + model.crossing_capacitance(
            area, gap
        )
    return coupling


def _reference_pairs(system, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(FilamentSystem, "_adjacent_sweep", _reference_sweep)
        return system.adjacent_pairs()


def _assert_matches_reference(system, monkeypatch):
    pairs = system.adjacent_pairs()
    assert pairs == _reference_pairs(system, monkeypatch)
    model = CapacitanceModel()
    _, coupling = extract_capacitances(system, model)
    expected = _reference_coupling(system, pairs, model)
    assert list(coupling) == list(expected)
    for key, value in expected.items():
        assert coupling[key] == value
        assert math.copysign(1.0, coupling[key]) == math.copysign(1.0, value)
    return pairs


def _stacked_lines():
    """Parallel x lines of mixed widths and thicknesses on a 3 x 3 grid
    of (y, z) positions, some shortened: no plane holds them all, so
    adjacency takes the pairwise blocker scan."""
    filaments = []
    for wire, (y, z, length) in enumerate(
        (y, z, 100e-6 if (y + z) % 2 else 60e-6)
        for y in range(3)
        for z in range(3)
    ):
        filaments.append(
            Filament(
                origin=(0.0, y * 3e-6, z * 2e-6),
                length=length,
                width=1e-6 * (1.0 + 0.1 * wire),
                thickness=0.5e-6 * (1.0 + 0.05 * wire),
                axis=Axis.X,
                wire=wire,
            )
        )
    return FilamentSystem(filaments)


def _mixed_widths_in_one_plane():
    """Coplanar y lines of mixed widths, thicknesses, lengths and axial
    offsets: partial shadows and a different width in every pair."""
    filaments = []
    x = 0.0
    for wire in range(12):
        width = 1e-6 * (1.0 + 0.15 * (wire % 5))
        thickness = 0.6e-6 * (1.0 + 0.1 * (wire % 4))
        filaments.append(
            Filament(
                # Centered on z = 0 whatever the thickness: one plane.
                origin=(x, 7e-6 * (wire % 3), -thickness / 2.0),
                length=(40e-6, 100e-6, 70e-6)[wire % 3],
                width=width,
                thickness=thickness,
                axis=Axis.Y,
                wire=wire,
            )
        )
        x += width + 1.5e-6
    return FilamentSystem(filaments)


class TestAdjacencyMatchesReference:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_scale_geometry(self, n, monkeypatch):
        pairs = _assert_matches_reference(scale_geometry(n), monkeypatch)
        assert len(pairs) > n

    @pytest.mark.parametrize("segments", [1, 3, 7])
    @pytest.mark.parametrize("jitter", [0.0, 0.15, 0.45, 0.9])
    def test_nonaligned_bus(self, segments, jitter, monkeypatch):
        system = nonaligned_bus(
            12, segments_per_line=segments, offset_jitter=jitter, seed=11
        )
        _assert_matches_reference(system, monkeypatch)

    def test_aligned_bus(self, monkeypatch):
        pairs = _assert_matches_reference(
            aligned_bus(16, segments_per_line=4), monkeypatch
        )
        assert len(pairs) == 15 * 4

    def test_coplanar_mixed_widths(self, monkeypatch):
        calls = []
        real = FilamentSystem._adjacent_sweep

        def sweep(self, indices, lateral):
            calls.append(len(indices))
            return real(self, indices, lateral)

        system = _mixed_widths_in_one_plane()
        with monkeypatch.context() as patch:
            patch.setattr(FilamentSystem, "_adjacent_sweep", sweep)
            system.adjacent_pairs()
        assert calls == [12]
        pairs = _assert_matches_reference(system, monkeypatch)
        # Shorter neighbours leave farther lines partly exposed.
        assert len(pairs) > 11

    def test_crossbar_adds_crossings(self, monkeypatch):
        system = crossbar(6, 5)
        _assert_matches_reference(system, monkeypatch)
        assert system.crossing_pairs()

    def test_non_coplanar_layout_takes_the_blocker_scan(self, monkeypatch):
        system = _stacked_lines()
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(
                FilamentSystem,
                "_adjacent_sweep",
                lambda *args: calls.append(args) or [],
            )
            pairs = system.adjacent_pairs()
        assert not calls
        assert pairs
        assert _assert_matches_reference(system, monkeypatch) == pairs

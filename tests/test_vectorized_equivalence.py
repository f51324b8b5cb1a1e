"""Equivalence of the vectorized kernels with scalar reference paths.

PR 4 rewrote the extraction and windowing hot loops as vectorized /
deduplicated kernels under the contract that every rewrite stays within
1e-12 of the scalar computation (bit-for-bit where the kernel only
reorders identical solves).  The scalar references live here, in the
test module, written as the obvious per-pair loops over the same
closed-form primitives -- an executable specification independent of
the shipped fast paths.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuit.transient import _record_block
from repro.extraction.inductance import (
    _COLLINEAR_TOL,
    _GMD_CUTOFF,
    clear_gmd_cache,
    gmd_rectangles,
    mutual_collinear_filaments,
    mutual_parallel_filaments,
    partial_inductance_matrix,
    self_inductance_bar,
)
from repro.geometry.bus import aligned_bus
from repro.geometry.filament import Axis, Filament
from repro.geometry.system import FilamentSystem
from repro.pipeline.profiling import collect
from repro.vpec.windowing import windowed_inverse

RELATIVE_TOLERANCE = 1e-12


# ----------------------------------------------------------------------
# Scalar reference implementations (the specification)
# ----------------------------------------------------------------------


def reference_partial_inductance(system, gmd_correction=True):
    """Per-pair scalar loop over the closed forms, both directions
    averaged exactly as the pre-vectorization kernel did."""
    n = len(system)
    matrix = np.zeros((n, n))
    for axis, indices in system.indices_by_axis().items():
        perp = [k for k in range(3) if k != axis.value]
        for i in indices:
            f = system[i]
            matrix[i, i] = self_inductance_bar(f.length, f.width, f.thickness)
        for pos, i in enumerate(indices):
            for j in indices[pos + 1 :]:
                fi, fj = system[i], system[j]
                dy = fi.center[perp[0]] - fj.center[perp[0]]
                dz = fi.center[perp[1]] - fj.center[perp[1]]
                distance = math.hypot(dy, dz)
                offset = fj.axial_span[0] - fi.axial_span[0]
                if distance > _COLLINEAR_TOL:
                    eff = distance
                    pair_dim = max(
                        max(fi.width, fi.thickness), max(fj.width, fj.thickness)
                    )
                    if gmd_correction and distance < _GMD_CUTOFF * pair_dim:
                        eff = gmd_rectangles(
                            fi.width,
                            fi.thickness,
                            fj.width,
                            fj.thickness,
                            abs(dy),
                            abs(dz),
                        )
                    forward = mutual_parallel_filaments(
                        fi.length, fj.length, eff, offset
                    )
                    backward = mutual_parallel_filaments(
                        fj.length, fi.length, eff, -offset
                    )
                else:
                    forward = mutual_collinear_filaments(
                        fi.length, fj.length, offset
                    )
                    backward = mutual_collinear_filaments(
                        fj.length, fi.length, -offset
                    )
                matrix[i, j] = matrix[j, i] = (forward + backward) / 2.0
    return matrix


def reference_windowed_inverse(block, windows, merge="max"):
    """One scalar solve per window, dict-of-lists eq. 18 merge."""
    n = block.shape[0]
    dense = np.zeros((n, n))
    estimates = {}
    for m, window in enumerate(windows):
        window = np.asarray(window, dtype=int)
        sub = block[np.ix_(window, window)]
        rhs = np.zeros(window.size)
        rhs[int(np.nonzero(window == m)[0][0])] = 1.0
        solution = np.linalg.solve(sub, rhs)
        for position, neighbor in enumerate(window):
            value = float(solution[position])
            if neighbor == m:
                dense[m, m] = value
            else:
                key = (min(m, int(neighbor)), max(m, int(neighbor)))
                estimates.setdefault(key, []).append(value)
    for (a, b), values in estimates.items():
        if merge == "max":
            value = max(values)
        elif merge == "min":
            value = min(values)
        else:
            value = sum(values) / len(values)
        dense[a, b] = dense[b, a] = value
    return dense


# ----------------------------------------------------------------------
# Geometry and window strategies
# ----------------------------------------------------------------------


@st.composite
def random_wire_system(draw):
    """2-7 parallel wires, mixed cross sections, optional segmentation."""
    count = draw(st.integers(min_value=2, max_value=7))
    length = draw(st.floats(min_value=50e-6, max_value=1500e-6))
    filaments = []
    y = 0.0
    for wire in range(count):
        width = draw(st.floats(min_value=0.2e-6, max_value=3e-6))
        thickness = draw(st.floats(min_value=0.2e-6, max_value=2e-6))
        gap = draw(st.floats(min_value=0.5, max_value=8.0)) * max(
            width, thickness
        )
        filaments.append(
            Filament(
                origin=(0.0, y, 0.0),
                length=length,
                width=width,
                thickness=thickness,
                axis=Axis.X,
                wire=wire,
            )
        )
        y += width + gap
    return FilamentSystem(filaments, name="equivalence")


@st.composite
def random_bus_system(draw):
    """A uniform bus (the lattice fast path), optionally segmented."""
    count = draw(st.integers(min_value=2, max_value=9))
    segments = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.floats(min_value=0.3e-6, max_value=3e-6))
    thickness = draw(st.floats(min_value=0.3e-6, max_value=2e-6))
    spacing = draw(st.floats(min_value=0.5, max_value=8.0)) * max(
        width, thickness
    )
    length = draw(st.floats(min_value=50e-6, max_value=1500e-6))
    return aligned_bus(
        count,
        length=length,
        width=width,
        thickness=thickness,
        spacing=spacing,
        segments_per_line=segments,
    )


@st.composite
def spd_block_with_windows(draw):
    """A random SPD matrix plus a valid random window per aggressor."""
    n = draw(st.integers(min_value=2, max_value=10))
    off = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=n * n,
                max_size=n * n,
            )
        )
    ).reshape(n, n)
    block = -(np.abs(off) + np.abs(off).T) / 2.0
    np.fill_diagonal(block, 0.0)
    np.fill_diagonal(block, np.sum(np.abs(block), axis=1) + 0.5)
    windows = []
    for m in range(n):
        members = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
        )
        members.add(m)
        windows.append(np.array(sorted(members), dtype=int))
    return block, windows


def relative_error(a, b):
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return np.max(np.abs(a - b))
    return np.max(np.abs(a - b)) / scale


# ----------------------------------------------------------------------
# Extraction equivalence
# ----------------------------------------------------------------------


class TestExtractionEquivalence:
    @given(random_wire_system(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_general_path_matches_reference(self, system, gmd):
        clear_gmd_cache()
        assert (
            relative_error(
                reference_partial_inductance(system, gmd),
                partial_inductance_matrix(system, gmd),
            )
            < RELATIVE_TOLERANCE
        )

    @given(random_bus_system(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_lattice_path_matches_reference(self, system, gmd):
        clear_gmd_cache()
        assert (
            relative_error(
                reference_partial_inductance(system, gmd),
                partial_inductance_matrix(system, gmd),
            )
            < RELATIVE_TOLERANCE
        )

    def test_gmd_cutoff_boundary_bus(self):
        # The default bus geometry puts next-nearest neighbors exactly at
        # the GMD cutoff, where per-pair float distances straddle the
        # threshold within one lattice displacement class -- the case the
        # per-pair patch-up in the lattice path exists for.
        clear_gmd_cache()
        system = aligned_bus(32, segments_per_line=8)
        assert (
            relative_error(
                reference_partial_inductance(system, True),
                partial_inductance_matrix(system, True),
            )
            < RELATIVE_TOLERANCE
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=10e-6, max_value=1000e-6),
                st.floats(min_value=10e-6, max_value=1000e-6),
                st.floats(min_value=1e-6, max_value=500e-6),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_collinear_vectorized_matches_scalar(self, triples):
        len_a = np.array([t[0] for t in triples])
        len_b = np.array([t[1] for t in triples])
        # Guarantee a positive axial gap so the pair is truly collinear.
        offset = len_a + np.array([t[2] for t in triples])
        vectorized = mutual_collinear_filaments(len_a, len_b, offset)
        scalar = np.array(
            [
                mutual_collinear_filaments(
                    float(la), float(lb), float(off)
                )
                for la, lb, off in zip(len_a, len_b, offset)
            ]
        )
        assert relative_error(scalar, vectorized) < RELATIVE_TOLERANCE

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=10e-6, max_value=1000e-6),
                st.floats(min_value=0.2e-6, max_value=3e-6),
                st.floats(min_value=0.2e-6, max_value=2e-6),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_self_inductance_vectorized_matches_scalar(self, triples):
        lengths = np.array([t[0] for t in triples])
        widths = np.array([t[1] for t in triples])
        thicknesses = np.array([t[2] for t in triples])
        vectorized = self_inductance_bar(lengths, widths, thicknesses)
        scalar = np.array(
            [
                self_inductance_bar(float(ln), float(w), float(t))
                for ln, w, t in zip(lengths, widths, thicknesses)
            ]
        )
        assert relative_error(scalar, vectorized) < RELATIVE_TOLERANCE


# ----------------------------------------------------------------------
# Windowing equivalence
# ----------------------------------------------------------------------


class TestWindowingEquivalence:
    @given(spd_block_with_windows(), st.sampled_from(["max", "min", "mean"]))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference(self, block_windows, merge):
        block, windows = block_windows
        reference = reference_windowed_inverse(block, windows, merge)
        produced = windowed_inverse(block, windows, merge=merge).toarray()
        assert relative_error(reference, produced) < RELATIVE_TOLERANCE

    @given(spd_block_with_windows(), st.sampled_from(["max", "min", "mean"]))
    @settings(max_examples=50, deadline=None)
    def test_dedup_is_bit_identical(self, block_windows, merge):
        block, windows = block_windows
        deduped = windowed_inverse(block, windows, merge=merge)
        plain = windowed_inverse(block, windows, merge=merge, dedup=False)
        assert (deduped != plain).nnz == 0

    def test_dedup_hits_on_translation_invariant_bus(self):
        system = aligned_bus(32)
        block = partial_inductance_matrix(system)
        from repro.vpec.windowing import geometric_windows

        windows = geometric_windows(system, list(range(32)), 4)
        with collect() as profile:
            deduped = windowed_inverse(block, windows)
        plain = windowed_inverse(block, windows, dedup=False)
        assert profile.counters["window_dedup_hits"] > 0
        assert (deduped != plain).nnz == 0

    def test_shared_wide_window_matches_reference(self, sweep6):
        # Every sweep window is the whole 96-filament block, so one
        # factorization serves all aggressors: rounding-close to the
        # per-window solves, with the same sparsity.
        from repro.bench.sweep import sweep_grid
        from repro.vpec.windowing import numerical_windows

        ((_, block),) = sweep6.inductance_blocks.values()
        windows = numerical_windows(block, sweep_grid().model.threshold)
        shared = windowed_inverse(block, windows).toarray()
        for want in (
            windowed_inverse(block, windows, dedup=False).toarray(),
            reference_windowed_inverse(block, windows),
        ):
            assert relative_error(want, shared) < RELATIVE_TOLERANCE
            assert np.array_equal(want != 0, shared != 0)


# ----------------------------------------------------------------------
# Transient recording equivalence
# ----------------------------------------------------------------------


class TestRecordEquivalence:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_loop(self, nodes, branches, scenarios, fortran, seed):
        """One gather per step into the time-leading record.  Ground
        probes (row -1) are left for the march to zero, so only the
        probed rows are compared."""
        rng = np.random.default_rng(seed)
        size = nodes + branches + 1
        states = rng.normal(size=(3, size, scenarios))
        node_rows = rng.integers(-1, size, size=nodes)
        branch_rows = rng.integers(0, size, size=branches)
        probe_rows = np.concatenate([node_rows, branch_rows])
        record = np.zeros((3, nodes + branches, scenarios))
        for step, x in enumerate(states):
            # SuperLU returns Fortran-ordered blocks.
            x = np.asfortranarray(x) if fortran else x
            _record_block(record, step, x, probe_rows)
        expected = np.zeros_like(record)
        for step, x in enumerate(states):
            for k in range(scenarios):
                for pos, row in enumerate(probe_rows):
                    if row >= 0:
                        expected[step, pos, k] = x[row, k]
        probed = probe_rows >= 0
        np.testing.assert_array_equal(record[:, probed], expected[:, probed])

"""Hierarchical block low-rank inductance: correctness and plumbing.

The operator's contract has two halves:

- with compression *disabled* (``cutoff=0``) it is the dense general
  path bit for bit -- same Neumann/GMD closed forms evaluated
  elementwise, just stored as tree blocks;
- with compression *enabled* every ``gather`` window agrees with the
  exact entries to within (a modest multiple of) the ACA cutoff.

Hypothesis drives both over the geometry families the repo ships (the
aligned bus, the jittered non-aligned bus, the two-layer crossbar);
random *scattered* index sets are drawn deliberately -- they force the
gather descent across far-field low-rank blocks stored at internal tree
pairs, a path neighbor-window workloads never touch.

Bit-identity is asserted on non-aligned geometries only: on perfect
lattices the dense extractor takes its displacement-class fast path,
which differs from the general closed forms at the ~1e-12 reassembly
level (see test_inductance.py), so there the comparison is allclose.
"""

import collections
import contextlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.extraction.hierarchical as hierarchical
from repro.bench.extraction_scale import scale_geometry
from repro.extraction.hierarchical import (
    DEFAULT_CONFIG,
    HierarchicalConfig,
    LazyInductance,
    _KIND_DENSE,
    _KIND_DENSE_SPILL,
    _KIND_LOWRANK,
    _PLAN_DENSE,
    _PLAN_LOWRANK,
    _PairEvaluator,
    _execute_plan_rows,
    hierarchical_blocks,
)
from repro.extraction.inductance import axis_geometry, clear_gmd_cache
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.crossbar import crossbar
from repro.pipeline.hashing import stable_hash
from repro.pipeline.profiling import collect
from repro.vpec.flow import windowed_vpec
from repro.vpec.windowing import geometric_windows

#: Small leaves force a deep tree (and far-field low-rank blocks) even
#: at unit-test sizes.
TEST_CONFIG = HierarchicalConfig(leaf_size=8)
EXACT_CONFIG = HierarchicalConfig(leaf_size=8, cutoff=0.0)


def _geometry(family: str, seed: int):
    if family == "bus":
        return aligned_bus(24, segments_per_line=3)
    if family == "nonaligned":
        return nonaligned_bus(
            16, segments_per_line=4, offset_jitter=0.3, seed=seed
        )
    return crossbar(10, 10)


def _blocks(system, config):
    return hierarchical_blocks(system, config=config)


def _dense_blocks(system):
    return extract(system).inductance_blocks


class TestGatherMatchesExact:
    @settings(deadline=None, max_examples=12)
    @given(
        family=st.sampled_from(["bus", "nonaligned", "crossbar"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_scattered_gather_within_cutoff(self, family, seed):
        system = _geometry(family, seed)
        hier = _blocks(system, TEST_CONFIG)
        dense = _dense_blocks(system)
        rng = np.random.default_rng(seed)
        for axis, (indices, operator) in hier.items():
            exact = np.asarray(dense[axis][1])
            scale = np.abs(exact).max()
            m = len(indices)
            width = min(12, m)
            for _ in range(4):
                members = rng.choice(m, size=width, replace=False)
                window = operator.gather(members, members)
                reference = exact[np.ix_(members, members)]
                # ACA's Frobenius-estimate stopping is approximate;
                # allow two orders of magnitude of slack over the
                # cutoff (observed errors sit well under one).
                assert (
                    np.abs(window - reference).max()
                    <= 100 * TEST_CONFIG.cutoff * scale + 1e-12 * scale
                )

    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_gather_exact_when_compression_disabled(self, seed):
        system = _geometry("nonaligned", seed)
        hier = _blocks(system, EXACT_CONFIG)
        dense = _dense_blocks(system)
        rng = np.random.default_rng(seed)
        for axis, (indices, operator) in hier.items():
            exact = np.asarray(dense[axis][1])
            members = rng.permutation(len(indices))[:12]
            assert np.array_equal(
                operator.gather(members, members),
                exact[np.ix_(members, members)],
            )

    def test_rectangular_and_duplicate_free_gathers(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, TEST_CONFIG).values()
        (_, exact), = _dense_blocks(system).values()
        exact = np.asarray(exact)
        rows = np.array([0, 17, 40, 63])
        cols = np.array([5, 6, 50])
        assert np.allclose(
            operator.gather(rows, cols),
            exact[np.ix_(rows, cols)],
            rtol=0,
            atol=100 * TEST_CONFIG.cutoff * np.abs(exact).max(),
        )

    def test_diagonal_is_exact(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, TEST_CONFIG).values()
        (_, exact), = _dense_blocks(system).values()
        assert np.array_equal(operator.diagonal(), np.diagonal(exact))


class TestBlockCoverGather:
    """``gather`` and ``gather_stack``: one block-cover path."""

    STORED = (
        "perm",
        "node_lo",
        "node_hi",
        "node_left",
        "node_right",
        "block_table",
        "dense_data",
        "lr_data",
    )

    @staticmethod
    def _scattered(n, count, width, seed):
        rng = np.random.default_rng(seed)
        return np.array(
            [rng.choice(n, size=width, replace=False) for _ in range(count)]
        )

    @staticmethod
    def _neighbor_windows(system, indices, size):
        return np.array(
            geometric_windows(system, indices, size, symmetrize=False)
        )

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_stack_equals_stacked_gathers_bitwise(self, monkeypatch, chunk):
        import repro.extraction.hierarchical as hierarchical

        if chunk is not None:
            # Several passes, the last one ragged.
            monkeypatch.setattr(hierarchical, "_GATHER_CHUNK_PAIRS", chunk * 36)
        system = nonaligned_bus(32, segments_per_line=8, offset_jitter=0.3)
        (indices, operator), = _blocks(system, TEST_CONFIG).values()
        with collect() as profile:
            for windows in (
                self._neighbor_windows(system, indices, 6),
                self._scattered(len(indices), 40, 6, seed=3),
            ):
                stacked = np.stack([operator.gather(w, w) for w in windows])
                assert np.array_equal(operator.gather_stack(windows), stacked)
        # The low-rank expansion is covered too, not only verbatim copies.
        assert profile.counters["hier_gather_lowrank_entries"] > 0

    @pytest.mark.parametrize("leaf_size", [4, 8])
    def test_straddling_windows_exact_at_cutoff_zero(self, leaf_size):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        config = HierarchicalConfig(leaf_size=leaf_size, cutoff=0.0)
        (indices, operator), = _blocks(system, config).values()
        (_, exact), = _dense_blocks(system).values()
        exact = np.asarray(exact)
        windows = self._neighbor_windows(system, indices, 6)
        leaves = operator._slot_leaf[operator.inv_perm[windows]]
        assert (leaves.min(axis=1) != leaves.max(axis=1)).any()
        want = exact[windows[:, :, None], windows[:, None, :]]
        assert np.array_equal(operator.gather_stack(windows), want)
        for window, block in zip(windows, want):
            assert np.array_equal(operator.gather(window, window), block)
        # Every leaf pair of the cover, in both orientations.
        everything = np.arange(len(indices))
        assert np.array_equal(operator.gather(everything, everything), exact)

    def test_scattered_windows_through_lowrank_blocks(self):
        # 256 filaments in leaves of 8: the smallest bus here whose tree
        # stores low-rank far-field blocks (and ACA fallbacks).
        system = nonaligned_bus(32, segments_per_line=8, offset_jitter=0.3)
        (indices, operator), = _blocks(system, TEST_CONFIG).values()
        (_, exact), = _dense_blocks(system).values()
        exact = np.asarray(exact)
        windows = self._scattered(len(indices), 64, 8, seed=11)
        with collect() as profile:
            got = operator.gather_stack(windows)
        assert profile.counters["hier_gather_lowrank_entries"] > 0
        want = exact[windows[:, :, None], windows[:, None, :]]
        scale = np.abs(exact).max()
        assert (
            np.abs(got - want).max()
            <= 100 * TEST_CONFIG.cutoff * scale + 1e-12 * scale
        )

    def test_cover_view_is_derived_never_serialized(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (indices, operator), = _blocks(system, TEST_CONFIG).values()
        pickled = pickle.dumps(operator)
        fingerprint = stable_hash(operator.fingerprint_payload())
        operator.gather_stack(self._scattered(len(indices), 8, 5, seed=0))
        meta, arrays = operator.columns()
        assert tuple(arrays) == self.STORED
        assert set(meta) == {"n", "config"}
        assert pickle.dumps(operator) == pickled
        assert stable_hash(operator.fingerprint_payload()) == fingerprint
        clone = pickle.loads(pickled)
        for view in ("_slot_leaf", "_cover_keys", "_cover_block"):
            assert np.array_equal(getattr(clone, view), getattr(operator, view))


class TestBitIdentityCompressionOff:
    def test_toarray_bit_identical(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, EXACT_CONFIG).values()
        (_, exact), = _dense_blocks(system).values()
        assert np.array_equal(operator.toarray(), np.asarray(exact))

    def test_windowed_vpec_bit_identical(self):
        """wVPEC from the exact-mode operator == wVPEC from dense L."""
        system = nonaligned_bus(12, segments_per_line=3, offset_jitter=0.3)
        dense = extract(system)
        hier = extract(
            system, method="hierarchical", hierarchical=EXACT_CONFIG
        )
        built_d = windowed_vpec(dense, window_size=4)
        built_h = windowed_vpec(hier, window_size=4)
        assert built_h.sparse_factor == built_d.sparse_factor
        for net_d, net_h in zip(
            built_d.model.networks, built_h.model.networks
        ):
            assert np.array_equal(net_h.dense_ghat(), net_d.dense_ghat())

    def test_windowed_vpec_close_when_compressed(self):
        system = nonaligned_bus(12, segments_per_line=3, offset_jitter=0.3)
        dense = extract(system)
        hier = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG
        )
        built_d = windowed_vpec(dense, window_size=4)
        built_h = windowed_vpec(hier, window_size=4)
        for net_d, net_h in zip(
            built_d.model.networks, built_h.model.networks
        ):
            assert np.allclose(
                net_h.dense_ghat(), net_d.dense_ghat(), rtol=1e-5
            )


class TestRoundTrips:
    def _operator(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, TEST_CONFIG).values()
        return operator

    def test_pickle_round_trip_bit_identical(self):
        operator = self._operator()
        clone = pickle.loads(pickle.dumps(operator))
        assert isinstance(clone, LazyInductance)
        assert np.array_equal(clone.toarray(), operator.toarray())
        members = np.array([3, 40, 11, 60])
        assert np.array_equal(
            clone.gather(members, members), operator.gather(members, members)
        )

    def test_columns_round_trip_bit_identical(self):
        operator = self._operator()
        meta, arrays = operator.columns()
        clone = LazyInductance.from_columns(meta, arrays)
        assert np.array_equal(clone.toarray(), operator.toarray())

    def test_fingerprint_stable_across_round_trips(self):
        operator = self._operator()
        clone = pickle.loads(pickle.dumps(operator))
        assert stable_hash(operator.fingerprint_payload()) == stable_hash(
            clone.fingerprint_payload()
        )


class TestWireSums:
    def test_matches_dense_aggregation(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (indices, operator), = _blocks(system, TEST_CONFIG).values()
        wire_of = np.array([system[i].wire for i in indices])
        num_wires = system.num_wires
        dense = operator.toarray()
        gather = np.zeros((num_wires, len(indices)))
        gather[wire_of, np.arange(len(indices))] = 1.0
        reference = gather @ dense @ gather.T
        result = operator.wire_sums(wire_of, num_wires)
        assert np.allclose(result, reference, rtol=1e-12, atol=0)


class TestParasiticsLaziness:
    def test_hierarchical_extract_stays_lazy(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        parasitics = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG
        )
        assert parasitics.is_hierarchical
        assert not parasitics.has_dense_inductance
        (_, operator), = parasitics.inductance_blocks.values()
        assert isinstance(operator, LazyInductance)
        # The property materializes on demand and agrees with toarray.
        assert np.array_equal(parasitics.inductance, operator.toarray())

    def test_dense_single_axis_full_matrix_aliases_block(self):
        parasitics = extract(aligned_bus(12))
        (_, block), = parasitics.inductance_blocks.values()
        assert np.shares_memory(parasitics.inductance, block)

    def test_pickle_drops_derived_matrix(self):
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        parasitics = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG
        )
        _ = parasitics.inductance  # materialize the cached view
        clone = pickle.loads(pickle.dumps(parasitics))
        assert not clone.has_dense_inductance
        assert clone.is_hierarchical
        clone.validate()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            extract(aligned_bus(4), method="mystery")


class TestNumericalWindows:
    def test_small_operator_materializes(self):
        from repro.vpec.windowing import numerical_windows

        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, EXACT_CONFIG).values()
        (_, exact), = _dense_blocks(system).values()
        got = numerical_windows(operator, 0.05)
        want = numerical_windows(np.asarray(exact), 0.05)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_large_operator_refused(self, monkeypatch):
        import repro.vpec.windowing as windowing

        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        (_, operator), = _blocks(system, TEST_CONFIG).values()
        monkeypatch.setattr(windowing, "_DENSE_KNN_LIMIT", 16)
        with pytest.raises(ValueError, match="geometric"):
            windowing.numerical_windows(operator, 0.05)


class TestAcaFallback:
    def test_rank_capped_blocks_fall_back_to_dense(self):
        """An unconvergeable rank cap must degrade to exactness, not error."""
        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        config = HierarchicalConfig(leaf_size=8, cutoff=1e-12, max_rank=1)
        with collect() as profile:
            (_, operator), = _blocks(system, config).values()
        assert profile.counters.get("hier_aca_fallbacks", 0) >= 1
        (_, exact), = _dense_blocks(system).values()
        exact = np.asarray(exact)
        assert np.allclose(
            operator.toarray(), exact, rtol=0,
            atol=1e-10 * np.abs(exact).max(),
        )


class TestCacheRoundTrip:
    def test_method_aware_keys_and_hierarchical_round_trip(self, tmp_path):
        from repro.extraction.capacitance import CapacitanceModel
        from repro.pipeline.cache import (
            PipelineCache,
            cached_extract,
            parasitics_key,
        )

        system = nonaligned_bus(8, segments_per_line=2, offset_jitter=0.3)
        model = CapacitanceModel()
        key_dense = parasitics_key(system, 1.7e-8, 0.0, model, True)
        key_hier = parasitics_key(
            system, 1.7e-8, 0.0, model, True,
            method="hierarchical", hierarchical=TEST_CONFIG,
        )
        key_hier_alt = parasitics_key(
            system, 1.7e-8, 0.0, model, True,
            method="hierarchical",
            hierarchical=HierarchicalConfig(leaf_size=16),
        )
        assert len({key_dense, key_hier, key_hier_alt}) == 3

        cache = PipelineCache(tmp_path)
        first = cached_extract(
            system, cache=cache,
            method="hierarchical", hierarchical=TEST_CONFIG,
        )
        second = cached_extract(
            system, cache=cache,
            method="hierarchical", hierarchical=TEST_CONFIG,
        )
        (_, op_a), = first.inductance_blocks.values()
        (_, op_b), = second.inductance_blocks.values()
        assert isinstance(op_b, LazyInductance)
        assert np.array_equal(op_a.toarray(), op_b.toarray())


class TestSharedMemoryRoundTrip:
    def test_hierarchical_blocks_ship_as_columns(self):
        from repro.service.shm import SharedColumnBlock, parasitics_columns
        from repro.service.shm import parasitics_from_block

        system = nonaligned_bus(16, segments_per_line=4, offset_jitter=0.3)
        parasitics = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG
        )
        meta, arrays = parasitics_columns(parasitics)
        block = SharedColumnBlock.create(meta, arrays)
        try:
            clone = parasitics_from_block(block)
            assert clone.is_hierarchical
            (_, op_a), = parasitics.inductance_blocks.values()
            (_, op_b), = clone.inductance_blocks.values()
            assert np.array_equal(op_a.toarray(), op_b.toarray())
            assert np.array_equal(clone.resistance, parasitics.resistance)
        finally:
            block.close()
            block.unlink()


class TestParallelAssembly:
    """Pool-built operators are the serial build bit for bit."""

    def _system(self):
        return nonaligned_bus(24, segments_per_line=4, offset_jitter=0.3)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pool_build_is_bit_identical(self, jobs):
        system = self._system()
        serial = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG
        )
        pooled = extract(
            system, method="hierarchical", hierarchical=TEST_CONFIG, jobs=jobs
        )
        (_, op_serial), = serial.inductance_blocks.values()
        (_, op_pooled), = pooled.inductance_blocks.values()
        assert np.array_equal(op_serial.toarray(), op_pooled.toarray())
        assert np.array_equal(serial.resistance, pooled.resistance)

    def test_spill_blocks_survive_the_pool(self):
        # A rank cap of 1 forces ACA fallbacks whose dense payloads
        # exceed the planned low-rank reservation: the one case where a
        # worker ships a block back through pickle.
        config = HierarchicalConfig(leaf_size=8, cutoff=1e-12, max_rank=1)
        system = self._system()
        serial = extract(system, method="hierarchical", hierarchical=config)
        pooled = extract(
            system, method="hierarchical", hierarchical=config, jobs=2
        )
        (_, op_serial), = serial.inductance_blocks.values()
        (_, op_pooled), = pooled.inductance_blocks.values()
        assert np.array_equal(op_serial.toarray(), op_pooled.toarray())

    def test_worker_profiles_merge_into_the_owner(self):
        system = self._system()
        with collect() as profile:
            extract(
                system, method="hierarchical", hierarchical=TEST_CONFIG,
                jobs=2,
            )
        assert profile.counters["hier_parallel_chunks"] >= 2
        assert profile.seconds.get("hier_build_workers", 0.0) > 0.0
        assert profile.worker_max_seconds["hier_build_workers"] > 0.0
        assert (
            profile.worker_max_seconds["hier_build_workers"]
            <= profile.seconds["hier_build_workers"] + 1e-12
        )

    def test_balanced_chunks_partition_the_plan(self):
        from repro.extraction.hierarchical import _balanced_chunks

        node_lo = np.array([0, 4])
        node_hi = np.array([4, 12])
        plan = np.array(
            [
                [0, 0, 0, 0, 0],
                [0, 1, 0, 16, 0],
                [1, 1, 0, 48, 0],
                [0, 1, 1, 112, 8],
            ]
        )
        chunks = _balanced_chunks(plan, node_lo, node_hi, 2)
        assert np.array_equal(
            np.concatenate(chunks), np.arange(plan.shape[0])
        )
        for chunk in chunks:
            assert np.array_equal(chunk, np.arange(chunk[0], chunk[-1] + 1))
        # More pieces than rows degrades to one chunk per row, never
        # empty chunks.
        many = _balanced_chunks(plan, node_lo, node_hi, 64)
        assert len(many) <= plan.shape[0]
        assert all(chunk.size for chunk in many)
        assert _balanced_chunks(plan[:0], node_lo, node_hi, 4) == []


class TestBenchSuite:
    def test_small_run_checks_dense_hier_agreement(self):
        from repro.bench.extraction_scale import run_extraction_scale_suite

        results = run_extraction_scale_suite(
            kernels=("extract_scale", "window_solve_scale"),
            sizes=(128,),
        )
        by_kernel = {}
        for result in results:
            assert result.seconds > 0
            # RSS-delta peaks can legitimately read 0 for workloads this
            # small (pages already resident); presence is the contract.
            assert result.peak_bytes is not None and result.peak_bytes >= 0
            by_kernel.setdefault(result.kernel, {})[
                result.variant
            ] = result.checksum
        for kernel, variants in by_kernel.items():
            assert variants["dense"] == variants["hierarchical"], (
                kernel,
                variants,
            )

    def test_parallel_ladder(self):
        from repro.bench.extraction_scale import run_extraction_scale_suite

        results = run_extraction_scale_suite(
            kernels=("extract_scale", "parallel_assembly_scale"),
            sizes=(128,),
            jobs_ladder=(2,),
        )
        checksums = {(r.kernel, r.variant): r.checksum for r in results}
        # The pool rung reproduces the serial extraction checksum (the
        # suite itself raises on divergence; this pins the entry too).
        assert (
            checksums[("parallel_assembly_scale", "jobs2")]
            == checksums[("extract_scale", "hierarchical")]
        )


# ----------------------------------------------------------------------
# Lockstep ACA against the single-block reference
# ----------------------------------------------------------------------
def _aca(evaluator, rows, cols, tol, max_rank, estimates=None):
    """Reference: partially pivoted ACA of one admissible block, or ``None``.

    The single-block loop, one kernel call per pivot row and one per
    pivot column; the lockstep groups of ``_execute_plan_rows`` must
    reproduce its factors bit for bit.  Builds ``U (m, k)`` and
    ``V (k, n)`` with an estimated relative Frobenius error
    ``||A - U V||_F <= tol ||A||_F``; ``None`` when the block refuses to
    converge within ``max_rank`` or the factors would not be smaller
    than the dense block.  ``estimates``, when given, receives the
    squared Frobenius estimate after every factor.
    """
    m, n = rows.size, cols.size
    us = []
    vs = []
    used = np.zeros(m, dtype=bool)
    pivot_row = 0
    frob2 = 0.0
    converged = False
    steps = 0
    while steps < max_rank + m:
        steps += 1
        residual = evaluator.entries(np.full(n, rows[pivot_row]), cols)
        for u, v in zip(us, vs):
            residual = residual - u[pivot_row] * v
        used[pivot_row] = True
        pivot_col = int(np.argmax(np.abs(residual)))
        pivot = residual[pivot_col]
        if pivot == 0.0:
            remaining = np.flatnonzero(~used)
            if remaining.size == 0:
                converged = True
                break
            pivot_row = int(remaining[0])
            continue
        v = residual / pivot
        u = evaluator.entries(rows, np.full(m, cols[pivot_col]))
        for uu, vv in zip(us, vs):
            u = u - vv[pivot_col] * uu
        norm_u2 = float(u @ u)
        norm_v2 = float(v @ v)
        cross = 0.0
        for uu, vv in zip(us, vs):
            cross += float(u @ uu) * float(v @ vv)
        frob2 = max(frob2 + norm_u2 * norm_v2 + 2.0 * cross, norm_u2 * norm_v2)
        if estimates is not None:
            estimates.append(frob2)
        us.append(u)
        vs.append(v)
        if norm_u2 * norm_v2 <= tol * tol * frob2:
            converged = True
            break
        if len(us) >= max_rank:
            break
        candidates = np.abs(u)
        candidates[used] = -1.0
        pivot_row = int(np.argmax(candidates))
    if not converged or not us:
        return None
    rank = len(us)
    if rank * (m + n) >= m * n:
        return None
    return np.stack(us, axis=1), np.stack(vs, axis=0)


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _MatrixEvaluator(_PairEvaluator):
    """The kernel as an explicit matrix: entry ``(i, j)`` is ``matrix[i, j]``."""

    def __init__(self, matrix):
        self.matrix = matrix

    def entries(self, i, j):
        return self.matrix[np.asarray(i), np.asarray(j)]


def _distinct(values):
    """``values`` without consecutive repeats, as float64 bytes."""
    out = []
    for value in values:
        raw = np.float64(value).tobytes()
        if not out or out[-1] != raw:
            out.append(raw)
    return out


@contextlib.contextmanager
def _estimate_spy():
    """Record every squared Frobenius estimate the lockstep classes hold,
    per plan row, through the ``frob2`` slot of ``_AcaClass``."""
    slot = hierarchical._AcaClass.frob2
    seen = collections.defaultdict(list)

    def store(self, value):
        slot.__set__(self, value)
        for index, estimate in zip(self.index, value):
            seen[int(index)].append(estimate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            hierarchical._AcaClass, "frob2", property(slot.__get__, store)
        )
        yield seen


def _execute_against_reference(matrix, specs, tol=1e-8):
    """Run plan rows over ``matrix`` and check each against the reference.

    ``specs`` are ``((row_lo, m), (col_lo, n), cap)`` blocks; ``cap=0``
    plans the block dense.  Every stored entry must equal the
    reference's bit for bit, and so must the squared Frobenius estimate
    each admissible block held after each of its steps.  Returns each
    admissible block's rank (0 for a dense fallback), the executed
    kinds and the spills.
    """
    node_lo, node_hi, rows = [], [], []
    dense_total = lr_total = 0
    for (row_lo, m), (col_lo, n), cap in specs:
        a = len(node_lo)
        node_lo += [row_lo, col_lo]
        node_hi += [row_lo + m, col_lo + n]
        if cap:
            rows.append((a, a + 1, _PLAN_LOWRANK, lr_total, cap))
            lr_total += cap * (m + n)
        else:
            rows.append((a, a + 1, _PLAN_DENSE, dense_total, 0))
            dense_total += m * n
    node_lo, node_hi = np.array(node_lo), np.array(node_hi)
    plan = np.array(rows, dtype=np.int64)
    evaluator = _MatrixEvaluator(matrix)
    dense_data = np.full(dense_total, np.nan)
    lr_data = np.full(lr_total, np.nan)
    with _estimate_spy() as estimates:
        kinds, ranks, spills = _execute_plan_rows(
            evaluator, node_lo, node_hi, plan, dense_data, lr_data, tol
        )
    outcomes = []
    for idx, (a, b, plan_kind, offset, cap) in enumerate(plan):
        block_rows = np.arange(node_lo[a], node_hi[a])
        block_cols = np.arange(node_lo[b], node_hi[b])
        exact = matrix[np.ix_(block_rows, block_cols)]
        if plan_kind == _PLAN_DENSE:
            assert kinds[idx] == _KIND_DENSE
            assert _bitwise(dense_data[offset:offset + exact.size], exact.ravel())
            continue
        reference = [0.0]
        factors = _aca(evaluator, block_rows, block_cols, tol, cap, reference)
        assert _distinct(estimates[idx]) == _distinct(reference)
        if factors is None:
            assert kinds[idx] == _KIND_DENSE_SPILL and ranks[idx] == 0
            stored = (
                spills[idx] if idx in spills
                else lr_data[offset:offset + exact.size]
            )
            assert _bitwise(np.ravel(stored), exact.ravel())
            outcomes.append(0)
            continue
        u, v = factors
        assert kinds[idx] == _KIND_LOWRANK and ranks[idx] == u.shape[1]
        assert _bitwise(lr_data[offset:offset + u.size], u.ravel())
        assert _bitwise(
            lr_data[offset + u.size:offset + u.size + v.size], v.ravel()
        )
        outcomes.append(u.shape[1])
    return outcomes, kinds, spills


class TestLockstepAca:
    """Admissible blocks compress in lockstep groups, factor for factor
    the single-block reference above."""

    def test_exact_rank_integer_block_repicks_zero_pivots(self):
        # Rank one with integer entries and a power-of-two largest |b|:
        # the first pivot row is all zeros (a re-pick before any
        # factor), and after one step every residual is exactly zero,
        # so the remaining rows are re-picked until none is left --
        # convergence by exhaustion.
        a = np.array([0, 3, -1, 0, 2, 5, 0, 1, -2, 4], dtype=float)
        b = np.array([1, -3, 8, 2, 0, 5, -7, 4, 6, -1, 3, 2], dtype=float)
        matrix = np.zeros((22, 22))
        matrix[:10, 10:] = np.outer(a, b)
        # A rank-two integer block rides in the same group.
        matrix[10:, :10] = np.outer(b, a) + np.outer(np.arange(12), a[::-1])
        outcomes, _, _ = _execute_against_reference(
            matrix, [((0, 10), (10, 12), 10), ((10, 12), (0, 10), 10)]
        )
        assert outcomes[0] == 1
        assert outcomes[1] >= 2

    def test_full_rank_block_with_small_cap_falls_back_to_dense(self):
        matrix = np.random.default_rng(5).normal(size=(40, 40))
        # 16 x 16 at cap 3 outgrows its 3 * 32 reservation (a spill);
        # 4 x 20 at cap 4 fits its 4 * 24 one.
        outcomes, kinds, spills = _execute_against_reference(
            matrix, [((0, 16), (16, 16), 3), ((32, 4), (12, 20), 4)]
        )
        assert outcomes == [0, 0]
        assert list(kinds) == [_KIND_DENSE_SPILL] * 2
        assert set(spills) == {0}

    @pytest.mark.parametrize("group", [5, None])
    def test_mixed_group_crosses_group_boundaries(self, monkeypatch, group):
        if group is not None:
            monkeypatch.setattr(hierarchical, "_ACA_GROUP", group)
        rng = np.random.default_rng(7)
        points = np.sort(rng.uniform(0.0, 1000.0, size=600))
        matrix = 1.0 / (1.0 + np.abs(points[:, None] - points[None, :]))
        specs = []
        for k in range(80):
            m, n = (int(s) for s in rng.integers(8, 41, size=2))
            row_lo = int(rng.integers(0, 250))
            col_lo = min(row_lo + m + int(rng.integers(m + n, 200)), 600 - n)
            # Every eighth block is planned dense.
            cap = 0 if k % 8 == 3 else min(int(rng.choice([2, 6, 64])), m, n)
            specs.append(((row_lo, m), (col_lo, n), cap))
        outcomes, kinds, spills = _execute_against_reference(matrix, specs)
        assert len(outcomes) == 70
        assert {_KIND_DENSE, _KIND_LOWRANK, _KIND_DENSE_SPILL} <= set(kinds)
        assert spills
        assert len(set(outcomes) - {0}) > 2

    @settings(max_examples=80)
    @given(data=st.data())
    def test_batched_group_equals_the_reference(self, data):
        # Groups of 1..12 blocks laid out block-diagonally in one
        # rectangular matrix, each of one kind: smooth far-field blocks
        # (compress, finishing in different rounds), exact-rank integer
        # blocks (zero pivots and re-picks), all-zero blocks
        # (convergence by exhaustion) and full-rank noise (rank cap,
        # dense fallback, spills), each with some signed zero rows and
        # columns.  Sizes run 1..70, so BLAS dot tails differ, and caps
        # 1..64.
        group = data.draw(st.sampled_from([1, 5, 64]), label="group")
        tol = data.draw(st.sampled_from([1e-2, 1e-6, 1e-8, 1e-12]), label="tol")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        count = data.draw(st.integers(1, 12), label="count")
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(count):
            kind = data.draw(
                st.sampled_from(["smooth", "rank", "zero", "noise"]), label="kind"
            )
            m = data.draw(st.integers(1, 70), label="m")
            n = data.draw(st.integers(1, 70), label="n")
            cap = min(data.draw(st.integers(1, 64), label="cap"), m, n)
            if kind == "smooth":
                x = rng.uniform(0.0, 1.0, m)
                y = rng.uniform(2.0, 2.0 + rng.uniform(0.5, 30.0), n)
                block = 1.0 / (1.0 + np.abs(x[:, None] - y[None, :]))
            elif kind == "rank":
                rank = int(rng.integers(1, 4))
                a = rng.integers(-3, 4, size=(m, rank)).astype(float)
                a[rng.random(m) < 0.4] = 0.0
                b = rng.integers(-4, 5, size=(rank, n)).astype(float)
                # 0 * negative entries make -0.0s.
                block = a @ b if rank > 1 else np.outer(a[:, 0], b[0])
            elif kind == "zero":
                block = np.zeros((m, n))
            else:
                block = rng.normal(size=(m, n))
            # Signed zero rows and columns: residual entries that stay
            # -0.0 through the updates, and zero pivot rows.
            block[rng.random(m) < 0.1] = 0.0
            block[:, rng.random(n) < 0.1] = -0.0
            blocks.append((block, cap))
        rows = sum(block.shape[0] for block, _ in blocks)
        cols = sum(block.shape[1] for block, _ in blocks)
        matrix = np.zeros((rows, cols))
        specs = []
        row_lo = col_lo = 0
        for block, cap in blocks:
            m, n = block.shape
            matrix[row_lo:row_lo + m, col_lo:col_lo + n] = block
            specs.append(((row_lo, m), (col_lo, n), cap))
            row_lo += m
            col_lo += n
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hierarchical, "_ACA_GROUP", group)
            _execute_against_reference(matrix, specs, tol)

    def test_scale_1024_blocks_equal_the_reference(self):
        system = scale_geometry(1024)
        clear_gmd_cache()
        with collect() as profile:
            ((axis, (indices, operator)),) = hierarchical_blocks(system).items()
        # One call per pivot row and per pivot column would make 914.
        assert profile.counters["hier_kernel_calls"] <= 300
        lengths, widths, thicknesses, starts, centers = axis_geometry(
            system, indices, axis
        )
        perm = operator.perm
        evaluator = _PairEvaluator(
            lengths[perm], widths[perm], thicknesses[perm], starts[perm],
            centers[perm], perm, True,
        )
        clear_gmd_cache()
        config = DEFAULT_CONFIG
        table = operator.block_table
        assert np.sum(table[:, 2] == _KIND_LOWRANK) == 22
        for a, b, kind, _, rank in table:
            rows = np.arange(operator.node_lo[a], operator.node_hi[a])
            cols = np.arange(operator.node_lo[b], operator.node_hi[b])
            _, first, second = operator._blocks[(int(a), int(b))]
            if kind == _KIND_DENSE:
                assert _bitwise(first, evaluator.block(rows, cols))
                continue
            cap = min(config.max_rank, rows.size, cols.size)
            factors = _aca(evaluator, rows, cols, config.cutoff, cap)
            if factors is None:
                assert kind == _KIND_DENSE_SPILL
                assert _bitwise(first, evaluator.block(rows, cols))
                continue
            u, v = factors
            assert kind == _KIND_LOWRANK and rank == u.shape[1]
            assert _bitwise(first, u) and _bitwise(second, v)


@pytest.fixture(scope="module")
def scale_4096_build():
    """One serial build of ``scale_geometry(4096)`` from a cold GMD memo:
    the operator, its counters, the factor scratch it was handed and
    the ``tracemalloc`` peak of the build (geometry built beforehand)."""
    scratch = {}
    real = hierarchical._assemble_operator

    def capture(*args):
        scratch["array"] = args[-1]
        scratch["reserved"] = args[-1].size
        return real(*args)

    system = scale_geometry(4096)
    clear_gmd_cache()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hierarchical, "_assemble_operator", capture)
            with collect() as profile:
                ((_, operator),) = hierarchical_blocks(system).values()
        scratch["peak"] = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if not tracing:
            tracemalloc.stop()
    return operator, dict(profile.counters), scratch


#: ``tracemalloc`` peak of the 4 096-filament serial build when each
#: block kept its factors in per-block lists (GMD memo cleared).
PER_BLOCK_PEAK_BYTES = 69_760_000


class TestLockstepScale:
    def test_kernel_calls_and_entries_at_4096(self, scale_4096_build):
        _, counters, _ = scale_4096_build
        # One call per pivot row and per pivot column would make 17 058.
        assert counters["hier_kernel_calls"] <= 2000
        # The same entries are evaluated, and the GMD memo resolves the
        # same keys.
        assert counters["hier_kernel_entries"] == 3617088
        assert counters["gmd_unique_evals"] == 184
        assert counters["gmd_cache_hits"] == 36864

    def test_build_peak_stays_at_the_per_block_loop(self, scale_4096_build):
        # The factors in flight live in chunked shape-class arrays that
        # drop finished blocks; they must not cost more memory than the
        # per-block lists before them, whose build peaked at 69.76 MB
        # (factor reservation 47.8 MB, dense pool 14.9 MB); the chunked
        # classes read 69.55 MB.
        _, _, scratch = scale_4096_build
        assert scratch["peak"] <= PER_BLOCK_PEAK_BYTES + 2_000_000

    def test_serial_build_compacts_the_scratch_in_place(self, scale_4096_build):
        operator, _, scratch = scale_4096_build
        assert operator.lr_data is scratch["array"]
        assert operator.lr_data.flags.owndata
        assert operator.lr_data.size < scratch["reserved"]

    def test_pool_and_spill_builds_copy(self, monkeypatch):
        scratch_ids = []
        real = hierarchical._assemble_operator

        def capture(*args):
            scratch_ids.append(id(args[-1]))
            return real(*args)

        monkeypatch.setattr(hierarchical, "_assemble_operator", capture)
        system = nonaligned_bus(24, segments_per_line=4, offset_jitter=0.3)
        ((_, pooled),) = hierarchical_blocks(
            system, config=TEST_CONFIG, jobs=2
        ).values()
        spill_config = HierarchicalConfig(leaf_size=8, cutoff=1e-12, max_rank=2)
        with collect() as profile:
            ((_, spilled),) = hierarchical_blocks(
                system, config=spill_config
            ).values()
        assert profile.counters["hier_spill_blocks"] > 0
        # Each packed copy was allocated while its scratch was alive.
        assert id(pooled.lr_data) != scratch_ids[0]
        assert id(spilled.lr_data) != scratch_ids[1]
        assert pooled.lr_data.flags.owndata and spilled.lr_data.flags.owndata

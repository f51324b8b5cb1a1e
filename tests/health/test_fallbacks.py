"""Acceptance: every injected fault class ends in a typed error or a
certified fallback -- no bare ``numpy.linalg.LinAlgError`` (and no
silently non-finite result) escapes the public API."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.bench.sweep import sweep_grid
from repro.circuit.mna import build_mna
from repro.experiments.runner import build_model, gw_spec
from repro.health import (
    DEFAULT_POLICY,
    STRICT_POLICY,
    AttemptLog,
    ConvergenceError,
    FallbackPolicy,
    NonFiniteInputError,
    NumericalHealthError,
    SingularMatrixError,
    certify_passivity,
    dense_solve,
    factorize,
    inject_fault,
    rank_deficient,
    spd_inverse,
)
import repro.health.solvers as solvers
from repro.health.faults import FAULT_KINDS
from repro.noise.engine import attach_quiet_bus_testbench
from repro.pipeline.profiling import collect
from repro.vpec.flow import full_vpec, windowed_vpec
from repro.vpec.full import invert_spd


def _singular_spd(n: int = 6, drop: int = 2) -> np.ndarray:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    return rank_deficient(a @ a.T + n * np.eye(n), drop=drop)


# ----------------------------------------------------------------------
# SPD chain (the VPEC L-block inversion)
# ----------------------------------------------------------------------
class TestSpdChain:
    def test_strict_raises_typed_singular_error(self):
        log = AttemptLog()
        with pytest.raises(SingularMatrixError) as excinfo:
            spd_inverse(_singular_spd(), policy=STRICT_POLICY, log=log)
        assert excinfo.value.context["attempts"] == ["cholesky"]
        assert log.methods() == ["cholesky"]

    def test_resilient_returns_certified_spd_inverse(self):
        log = AttemptLog()
        inverse = spd_inverse(_singular_spd(), policy=DEFAULT_POLICY, log=log)
        assert np.all(np.isfinite(inverse))
        np.testing.assert_allclose(inverse, inverse.T)
        assert np.linalg.eigvalsh(inverse)[0] > 0.0
        assert log.methods()[0] == "cholesky"
        assert log.methods()[-1] in ("tikhonov", "eig_clip")

    def test_nan_input_is_typed(self):
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteInputError):
            spd_inverse(bad, policy=DEFAULT_POLICY)

    def test_fallbacks_are_counted_in_the_profile(self):
        with collect() as profile:
            spd_inverse(_singular_spd(), policy=DEFAULT_POLICY)
        assert profile.counters["solve_cholesky"] == 1
        assert profile.counters["solve_fallbacks"] >= 1

    def test_invert_spd_is_strict_by_default(self):
        with pytest.raises(SingularMatrixError):
            invert_spd(_singular_spd())
        # Legacy spelling keeps working: the typed error *is* a
        # LinAlgError (the pre-taxonomy contract of invert_spd).
        with pytest.raises(np.linalg.LinAlgError):
            invert_spd(_singular_spd())

    def test_invert_spd_accepts_a_resilient_policy(self):
        inverse = invert_spd(_singular_spd(), policy=DEFAULT_POLICY)
        assert np.all(np.isfinite(inverse))


# ----------------------------------------------------------------------
# Dense chain (the windowed submatrix solves)
# ----------------------------------------------------------------------
class TestDenseChain:
    def test_singular_system_escalates_to_a_solution(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        log = AttemptLog()
        x = dense_solve(a, b, policy=DEFAULT_POLICY, log=log)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(a @ x, b, atol=1e-6)
        assert "lu" in log.methods()

    def test_policy_exhaustion_is_typed(self):
        a = np.zeros((2, 2))
        with pytest.raises(SingularMatrixError):
            dense_solve(a, np.ones(2), policy=STRICT_POLICY)


# ----------------------------------------------------------------------
# Sparse chain (DC / AC / transient MNA systems)
# ----------------------------------------------------------------------
class TestSparseChain:
    def _floating_pair(self):
        g = sparse.csc_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        return g, np.array([1.0, -1.0])

    def test_singular_system_escalates_past_lu(self):
        g, rhs = self._floating_pair()
        factor = factorize(g, name="floating pair")
        x = factor.solve(rhs)
        assert np.all(np.isfinite(x))
        assert factor.method != "lu"
        assert factor.log.methods()[0] == "lu"
        assert not factor.log.attempts[0].succeeded

    def test_strict_policy_is_typed(self):
        g, rhs = self._floating_pair()
        with pytest.raises(SingularMatrixError):
            factorize(g, policy=STRICT_POLICY).solve(rhs)

    def test_attempt_log_is_bounded_by_the_chain(self):
        """A march's thousands of solves on one factor are one entry;
        the counters still count every solve."""
        factor = factorize(sparse.identity(3, format="csc"), name="eye")
        with collect() as profile:
            for _ in range(1000):
                factor.solve(np.ones(3))
        assert len(factor.log.attempts) == 1
        assert factor.log.attempts[0].count == 1000
        assert factor.log.methods() == ["lu"]
        assert profile.counters["solve_lu"] == 1000

    def test_attempt_log_keeps_the_escalation_order(self):
        g, rhs = self._floating_pair()
        factor = factorize(g, name="floating pair")
        for _ in range(5):
            factor.solve(rhs)
        methods = factor.log.methods()
        assert methods[0] == "lu" and not factor.log.attempts[0].succeeded
        assert len(methods) == len(factor.log.attempts) <= 8
        assert factor.log.attempts[-1].succeeded
        assert factor.log.attempts[-1].count >= 5

    def test_starved_iterative_raises_convergence_error(self):
        g, rhs = self._floating_pair()
        starved = FallbackPolicy(
            regularize=False, gmres_maxiter=1, gmres_rtol=1e-30
        )
        with pytest.raises(ConvergenceError):
            factorize(g, policy=starved).solve(rhs)

    def test_gmres_tier_solves_a_column_stack(self):
        # The last resort is single-vector GMRES; a batched right-hand
        # side (the transient march's column stack) loops over columns.
        g, _ = self._floating_pair()
        rhs = np.array([[1.0, 2.0], [-1.0, -2.0]])
        factor = factorize(g, policy=FallbackPolicy(regularize=False))
        x = factor.solve(rhs)
        assert x.shape == (2, 2)
        assert factor.method == "gmres_ilu"
        assert np.abs(g @ x - rhs).max() <= 1e-12

    def test_nan_rhs_is_typed(self):
        g, _ = self._floating_pair()
        with pytest.raises(NonFiniteInputError):
            factorize(sparse.identity(2, format="csc")).solve(
                np.array([1.0, np.nan])
            )

    _PIVOT = 1e-200

    def _proven_factor(self):
        """A factor past its residual-verified solves: 999 solves of a
        march-shaped block on a matrix whose tiny pivot turns a large
        finite right-hand side into an overflowing solution."""
        factor = factorize(
            sparse.diags([self._PIVOT, 1.0, 2.0], format="csc"),
            name="tiny pivot",
        )
        rhs = np.ones((3, 4))
        rhs[0] = self._PIVOT
        for _ in range(999):
            np.testing.assert_allclose(factor.solve(rhs)[0], 1.0)
        assert factor.log.methods() == ["lu"]
        return factor

    def test_nan_rhs_is_typed_in_the_steady_state(self):
        factor = self._proven_factor()
        rhs = np.ones((3, 4))
        rhs[2, 3] = np.nan
        with pytest.raises(NonFiniteInputError, match="1 non-finite"):
            factor.solve(rhs)
        rhs[2, 3] = -np.inf
        rhs[0, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match="2 non-finite"):
            factor.solve(rhs)
        assert factor.log.methods() == ["lu"]
        assert factor.log.attempts[0].count == 999

    def test_residual_check_survives_an_overflowing_norm(self, monkeypatch):
        # ||x|| of a solution with an entry near 1e160 overflows the
        # plain sum of squares; the residual bound must stay finite.
        a = sparse.diags([self._PIVOT, 1.0, 2.0], format="csc")
        b = np.array([1e-40, 1.0, 1.0])
        exact = factorize(a, name="tiny pivot")
        x = exact.solve(b)
        assert x[0] == pytest.approx(1e160) and exact.method == "lu"

        # A direct tier that answers with an entry of the same size in
        # the wrong place: the residual is about 1e160 as well.
        real_splu = solvers.splu

        def wrong_first_tier(matrix):
            lu = real_splu(matrix)
            if matrix.diagonal()[0] != self._PIVOT:
                return lu
            wrong = type("WrongLU", (), {})()
            wrong.solve = lambda rhs: lu.solve(rhs) + np.array([0.0, 1e160, 0.0])
            return wrong

        monkeypatch.setattr(solvers, "splu", wrong_first_tier)
        factor = factorize(a, name="tiny pivot")
        x = factor.solve(b)
        assert factor.log.methods() == ["lu", "tikhonov"]
        assert factor.method == "tikhonov"
        np.testing.assert_allclose(x[1:], [1.0, 0.5], rtol=1e-6)

    def test_overflowing_solution_escalates_in_the_steady_state(self):
        factor = self._proven_factor()
        rhs = np.ones((3, 4))
        rhs[0] = 1e120  # / 1e-200 overflows; / the first ridge does not
        with collect() as profile:
            x = factor.solve(rhs)
        assert np.all(np.isfinite(x))
        assert factor.method == "tikhonov"
        assert factor.log.methods() == ["lu", "lu", "tikhonov"]
        proven, failed, rescued = factor.log.attempts
        assert proven.succeeded and proven.count == 999
        assert not failed.succeeded
        assert rescued.succeeded and rescued.count == 1
        assert profile.counters["solve_lu"] == 1
        assert profile.counters["solve_tikhonov"] == 1
        assert profile.counters["solve_fallbacks"] == 1


# ----------------------------------------------------------------------
# The symmetric first tier of large sparse systems
# ----------------------------------------------------------------------
def _march_lhs(parasitics, spec, config=None, dt=1e-12):
    """The escalation march's trapezoidal left-hand side and its source
    rows, assembled as :func:`repro.circuit.transient._factorize_step`
    does."""
    built = build_model(spec, parasitics)
    if config is None:
        attach_quiet_bus_testbench(built.skeleton)
    else:
        attach_quiet_bus_testbench(
            built.skeleton, config.driver_resistance, config.load_capacitance
        )
    system = build_mna(built.circuit)
    lhs = (system.G.tocsc() + (2.0 / dt) * system.C.tocsc()).tocsc()
    return lhs, system.source_rows()


def _unit_columns(size, rows):
    block = np.zeros((size, len(rows)))
    block[rows, np.arange(len(rows))] = 1.0
    return block


class TestSymmetricTier:
    def test_tiny_diagonal_falls_back_to_partial_pivoting(self):
        """256 blocks ``[[1e-18, 1], [1, 1e-18]]``: the symmetric tier
        pivots on the tiny diagonal and fails the residual check; the
        partial-pivoting LU serves the exact answer, before any ridge."""
        tiny = 1e-18
        a = sparse.block_diag(
            [np.array([[tiny, 1.0], [1.0, tiny]])] * 256, format="csc"
        )
        assert a.shape[0] == 512
        rhs = np.ones(a.shape[0])
        with collect() as profile:
            factor = factorize(a, name="tiny diagonal")
            x = factor.solve(rhs)
        np.testing.assert_array_equal(x, np.ones(a.shape[0]))
        assert factor.method == "lu"
        assert factor.log.methods() == ["lu", "lu"]
        symmetric, partial = factor.log.attempts
        assert not symmetric.succeeded
        assert symmetric.detail == "symmetric mode: residual check failed"
        assert partial.succeeded and partial.detail == ""
        assert profile.counters["solve_fallbacks"] == 1
        assert profile.counters["solve_lu"] == 2
        # Only the accepted factorization counts its fill.
        assert profile.counters["lu_nonzeros"] == splu(a).nnz
        assert "solve_tikhonov" not in profile.counters
        assert "solve_gmres_ilu" not in profile.counters

    def test_sweep_lhs_holds_less_fill(self, sweep6):
        """The size-6 sweep family's march left-hand side (816
        unknowns): the serving factor holds at most 0.75x the L+U of
        COLAMD with partial pivoting."""
        grid = sweep_grid(segments=6, num_densities=1)
        (scenario,) = grid.scenarios()
        lhs, rows = _march_lhs(sweep6, grid.model, scenario.config(grid.base))
        assert lhs.shape[0] == 816
        with collect() as profile:
            factor = factorize(lhs, name="sweep6 LHS")
            for _ in range(4):
                factor.solve(_unit_columns(lhs.shape[0], rows))
        assert profile.counters["lu_nonzeros"] <= 0.75 * splu(lhs).nnz
        assert factor.log.methods() == ["lu"]
        assert factor.log.attempts[0].detail == "symmetric mode"
        assert factor.log.attempts[0].count == 4

    def test_small_systems_keep_the_plain_factor_bits(self, bus16):
        """Below the size rule the chain's answer is the plain SuperLU
        answer byte for byte (the service digests hash these bits)."""
        lhs, rows = _march_lhs(bus16, gw_spec(8))
        assert lhs.shape[0] == 176
        rng = np.random.default_rng(7)
        blocks = [
            _unit_columns(lhs.shape[0], rows),
            rng.standard_normal((lhs.shape[0], 8)),
            rng.standard_normal(lhs.shape[0]),
        ]
        plain = splu(lhs)
        factor = factorize(lhs, name="bus16 LHS")
        for block in blocks * 2:
            assert factor.solve(block).tobytes() == plain.solve(block).tobytes()
        assert factor.log.methods() == ["lu"]
        assert factor.log.attempts[0].detail == ""


# ----------------------------------------------------------------------
# End to end: faulted parasitics through the model builders
# ----------------------------------------------------------------------
class TestFaultedModels:
    def test_rank_deficient_l_full_vpec(self, bus5):
        faulted = inject_fault(bus5, "rank_deficient_l", drop=1)
        # Strict default: typed error.
        with pytest.raises(SingularMatrixError):
            full_vpec(faulted)
        # Resilient policy: certified PSD Ghat.
        result = full_vpec(faulted, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        assert np.all(np.isfinite(ghat))
        assert certify_passivity(ghat).certificate is not None

    def test_rank_deficient_l_windowed_vpec(self, bus5):
        faulted = inject_fault(bus5, "rank_deficient_l", drop=1)
        result = windowed_vpec(faulted, window_size=3, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        assert np.all(np.isfinite(ghat))

    def test_sign_flipped_mutuals_are_detected(self, bus5):
        faulted = inject_fault(bus5, "sign_flipped_mutuals")
        result = full_vpec(faulted, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        # Sign flips keep Ghat PSD (Gershgorin is sign-blind), so only
        # the Lemma-1 sign-structure check can catch them.
        assert certify_passivity(ghat).certificate is not None
        report = certify_passivity(ghat, sign_structure=True)
        assert report.certificate is None
        assert any("Lemma 1" in note for note in report.notes)

    @pytest.mark.parametrize("builder", [full_vpec, windowed_vpec])
    def test_nan_parasitics_are_typed(self, bus5, builder):
        faulted = inject_fault(bus5, "nan_parasitics")
        kwargs = {"window_size": 3} if builder is windowed_vpec else {}
        with pytest.raises(NonFiniteInputError):
            builder(faulted, policy=DEFAULT_POLICY, **kwargs)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("policy", [None, DEFAULT_POLICY, STRICT_POLICY])
    def test_no_bare_linalgerror_escapes(self, bus5, kind, policy):
        """The blanket guarantee: any exception out of the model
        builders on a faulted input belongs to the health taxonomy."""
        faulted = inject_fault(bus5, kind)
        for build in (
            lambda: full_vpec(faulted, policy=policy),
            lambda: windowed_vpec(faulted, window_size=3, policy=policy),
        ):
            try:
                result = build()
            except NumericalHealthError:
                continue  # typed failure: acceptable
            ghat = result.model.networks[0].dense_ghat()
            assert np.all(np.isfinite(ghat))  # or a finite fallback

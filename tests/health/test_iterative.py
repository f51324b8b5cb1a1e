"""Batched window CG: :func:`stacked_jacobi_cg` over ``(K, b, b)`` stacks.

The wVPEC window solves of ``solver="iterative"`` run through it.  The
contract under test is the health module's usual one -- every answer is
residual-certified, and a system that will not converge is reported in
the mask (for the caller's direct fallback), never returned as if it
had.
"""

import numpy as np

from repro.health.iterative import stacked_jacobi_cg


def _spd_stack(count: int, width: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(count, width, width))
    return base @ base.transpose(0, 2, 1) + width * np.eye(width)


class TestStackedJacobiCG:
    def test_matches_direct_solves(self):
        a_stack = _spd_stack(6, 9)
        rng = np.random.default_rng(1)
        b_stack = rng.normal(size=(6, 9))
        x, converged = stacked_jacobi_cg(a_stack, b_stack)
        assert converged.all()
        np.testing.assert_allclose(
            x, np.linalg.solve(a_stack, b_stack[:, :, None])[:, :, 0],
            rtol=0, atol=1e-10 * np.abs(b_stack).max(),
        )

    def test_empty_stack(self):
        x, converged = stacked_jacobi_cg(
            np.zeros((0, 4, 4)), np.zeros((0, 4))
        )
        assert x.shape == (0, 4)
        assert converged.shape == (0,)

    def test_non_spd_member_is_masked_not_poisonous(self):
        a_stack = _spd_stack(3, 6, seed=2)
        a_stack[1] = -np.eye(6)  # negative curvature on the first step
        rng = np.random.default_rng(3)
        b_stack = rng.normal(size=(3, 6))
        x, converged = stacked_jacobi_cg(a_stack, b_stack)
        assert not converged[1]
        assert converged[0] and converged[2]
        for k in (0, 2):
            np.testing.assert_allclose(
                a_stack[k] @ x[k], b_stack[k], rtol=0,
                atol=1e-10 * np.abs(b_stack[k]).max(),
            )

    def test_neighbors_do_not_perturb_a_converged_system(self):
        # Vectorized does not mean coupled: system k's iterates are the
        # same floating-point operations whether it shares the stack
        # with an ill-conditioned neighbor or rides alone, and a
        # converged system freezes.  Bitwise identity is the contract.
        a = _spd_stack(1, 8, seed=4)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(1, 8))
        alone, ok_alone = stacked_jacobi_cg(a, b)
        nasty = _spd_stack(1, 8, seed=6)
        nasty[0] += 1e8 * np.outer(np.ones(8), np.ones(8))  # cond ~ 1e9
        paired, ok_paired = stacked_jacobi_cg(
            np.concatenate([a, nasty]), np.concatenate([b, b])
        )
        assert ok_alone[0] and ok_paired[0]
        assert np.array_equal(alone[0], paired[0])

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    DualCoefficients,
    GaussianFamily,
    GramBlocks,
    LinearGroupProjection,
    OracleFailure,
    ProblemInstance,
    SolverConfig,
    assemble_gram_blocks,
    bcd_solve,
    enumerate_solve,
    objective,
    qualification_check,
    solve,
)
from sparsemkl.oracle import MAX_ENUM_GROUPS, _block_minimize

from _fixtures import group_lasso_instance


class TestEnumerateSolve:
    def test_dominant_lambda_gives_zero_solution(self, ortho):
        big = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=5.0)
        res = enumerate_solve(big)
        assert res.support == frozenset()
        assert np.array_equal(res.alpha_or_w.alpha, np.zeros((2, 2)))
        assert res.objective == pytest.approx(
            0.5 * float(big.dataset.responses @ big.dataset.responses), rel=1e-14
        )

    def test_orthonormal_closed_form(self, ortho):
        res = enumerate_solve(ortho)
        assert res.support == {0}
        assert res.objective == pytest.approx(2.625, rel=1e-11)
        # recover w through the block action: K_1 alpha_1 = (w_1, 0)
        w_vec = ortho.gram.apply_each(res.alpha_or_w.alpha.T)[0]
        assert w_vec[0] == pytest.approx(2.0, rel=1e-10)

    def test_scalar_example_zero_minimizer(self, one_d):
        res = enumerate_solve(one_d)
        assert res.support == frozenset()
        assert res.objective == pytest.approx(0.5, rel=1e-14)
        assert res.kkt_residual == 0.0
        assert qualification_check(res.alpha_or_w, one_d).extended_support == {0}

    def test_group_count_cap(self):
        G = MAX_ENUM_GROUPS + 1
        blocks = np.stack([np.eye(2)] * G)
        gram = GramBlocks(blocks=blocks, lipschitz=float(G))
        prob = ProblemInstance(
            dataset=Dataset(np.ones((2, 1)), np.ones(2)), gram=gram, lam=1.0
        )
        with pytest.raises(ContractViolation):
            enumerate_solve(prob)

    def test_deterministic_result(self):
        prob = group_lasso_instance(24)
        a = enumerate_solve(prob)
        b = enumerate_solve(prob)
        assert a.support == b.support
        assert a.objective == b.objective
        assert np.array_equal(a.alpha_or_w.alpha, b.alpha_or_w.alpha)

    @pytest.mark.parametrize("index", [0, 7, 18, 31])
    def test_kkt_certificates_tight(self, index):
        prob = group_lasso_instance(index)
        res = enumerate_solve(prob)
        assert res.kkt_residual <= 1e-9


class TestBcdSolve:
    def test_zero_data_zero_solution(self, rng):
        X = rng.standard_normal((5, 4))
        prob = ProblemInstance(
            dataset=Dataset(X, np.zeros(5)),
            gram=assemble_gram_blocks(Dataset(X, np.zeros(5)), LinearGroupProjection((2, 2))),
            lam=0.5,
        )
        res = bcd_solve(prob)
        assert np.array_equal(res.alpha_or_w, np.zeros(4))
        assert res.support == frozenset()
        assert res.objective == 0.0

    def test_single_group_matches_direct_prox(self, rng):
        # G=1: minimize lam*||w|| + 0.5||Xw - y||^2; cross-check against
        # the enumeration oracle, which solves the stationarity system
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        prob = ProblemInstance(
            dataset=Dataset(X, y),
            gram=assemble_gram_blocks(Dataset(X, np.zeros(6)), LinearGroupProjection((3,))),
            lam=1.0,
        )
        res = bcd_solve(prob)
        want = enumerate_solve(prob)
        assert res.objective == pytest.approx(want.objective, rel=1e-10)
        assert res.support == want.support

    def test_requires_explicit_feature_groups(self, rng):
        X = rng.standard_normal((5, 2))
        prob = ProblemInstance(
            dataset=Dataset(X, rng.standard_normal(5)),
            gram=assemble_gram_blocks(Dataset(X, np.zeros(5)), GaussianFamily((1.0, 2.0))),
            lam=1.0,
        )
        with pytest.raises(ContractViolation):
            bcd_solve(prob)

    def test_sweep_budget_enforced(self):
        prob = group_lasso_instance(2)
        with pytest.raises(OracleFailure):
            bcd_solve(prob, tol=1e-15, max_sweeps=1)


def secular_residual(evals, evecs, v, lam, u):
    """|S(t) - 1| at t = ||u||: zero exactly at the block minimizer."""
    c = evecs.T @ v
    d = evals * float(np.linalg.norm(u)) + lam
    return abs(float((c * c / (d * d)).sum()) - 1.0)


class TestBlockMinimize:
    """The exact block step: min_u lam*||u|| + 0.5*||X u + rho||^2."""

    def test_orthonormal_block_closed_form(self, rng):
        # X'X = I: u = -(||v|| - lam) v / ||v||, so t = ||u|| = ||v|| - lam;
        # t is found to a few ulp of ||v||, which is how well S(t) = 1
        # determines it when t is much smaller than lam
        evecs, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v = rng.standard_normal(4)
        nv = float(np.linalg.norm(v))
        for lam in (0.01 * nv, 0.5 * nv, 0.999 * nv, (1.0 - 1e-9) * nv):
            u = _block_minimize(np.ones(4), evecs, v, lam)
            assert np.abs(u + (nv - lam) / nv * v).max() <= 4e-15 * nv
            assert abs(float(np.linalg.norm(u)) - (nv - lam)) <= 4e-15 * nv

    def test_ill_conditioned_rank_deficient_block(self, rng):
        # eigenvalues from 0 to 1e4; v's component in the null space
        # stays inside the lam-ball, so a finite root exists
        evals = np.array([0.0, 0.0, 1e-8, 1e-4, 1.0, 1e2, 1e4])
        for _ in range(50):
            evecs, _ = np.linalg.qr(rng.standard_normal((7, 7)))
            rest = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3, size=5)
            lam = 10.0 ** rng.uniform(-3, -0.05) * float(np.linalg.norm(rest))
            null = rng.standard_normal(2)
            null *= rng.uniform(0.0, 0.9) * lam / float(np.linalg.norm(null))
            v = evecs @ np.concatenate([null, rest])
            u = _block_minimize(evals, evecs, v, lam)
            assert np.linalg.norm(u) > 0.0
            assert secular_residual(evals, evecs, v, lam, u) <= 1e-13

    @pytest.mark.parametrize("e", [1e-6, 1e-8, 1e-10])
    def test_root_where_the_secular_function_is_flat(self, e):
        # S(t) = 0.5 + 0.5 (1 + 1e-6) / (e t + 1)^2 crosses 1 with slope
        # about e: rounding in S moves a Newton step by about 1e-16 / e,
        # far above the step tolerance 1e-15 t ~ 5e-22 / e, so only the
        # bracket ends the search
        evals, c = np.array([0.0, e]), np.sqrt([0.5, 0.5 * (1.0 + 1e-6)])
        u = _block_minimize(evals, np.eye(2), c, 1.0)
        t = (np.sqrt(1.0 + 1e-6) - 1.0) / e
        assert float(np.linalg.norm(u)) == pytest.approx(t, rel=1e-9)
        assert secular_residual(evals, np.eye(2), c, 1.0, u) <= 1e-13

    def test_zero_block_inside_the_ball(self, rng):
        evecs, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v = rng.standard_normal(3)
        nv = float(np.linalg.norm(v))
        for lam in (nv, 2.0 * nv):
            u = _block_minimize(np.array([0.5, 1.0, 2.0]), evecs, v, lam)
            assert np.array_equal(u, np.zeros(3))

    def test_no_finite_root_fails(self):
        # v lies in the null space of X'X and outside the lam-ball: the
        # objective decreases along v without bound, S(t) stays > 1
        with pytest.raises(OracleFailure):
            _block_minimize(np.array([0.0, 1.0]), np.eye(2),
                            np.array([2.0, 0.0]), 1.0)


class TestOracleAgreement:
    def test_cross_oracle_objectives_on_battery(self):
        # fifty instances, two algorithm families, 1e-8 relative
        for i in range(50):
            prob = group_lasso_instance(i)
            enum = enumerate_solve(prob)
            bcd = bcd_solve(prob)
            assert enum.objective == pytest.approx(bcd.objective, rel=1e-8), (
                f"instance {i}"
            )

    @pytest.mark.parametrize("index", [4, 15, 26, 37])
    def test_oracle_never_loses_to_solver(self, index):
        prob = group_lasso_instance(index)
        cfg = SolverConfig(tau_factor=0.8, max_iters=100000, stop_tol=1e-12)
        coeffs, _ = solve(prob, cfg)
        ikta_obj = objective(coeffs, prob)
        assert enumerate_solve(prob).objective <= ikta_obj + 1e-9 * max(1.0, ikta_obj)

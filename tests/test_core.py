import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    DualCoefficients,
    GramBlocks,
    LinearGroupProjection,
    ProblemInstance,
    assemble_gram_blocks,
    group_dual_norm,
    objective,
    residual,
)
from sparsemkl.core import LIPSCHITZ_MARGIN, PSD_TOL

from _fixtures import coeffs_like, group_lasso_instance


class TestDataset:
    def test_shapes_and_properties(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.ones(3))
        assert ds.m == 3
        assert ds.p == 2

    def test_rejects_nonfinite_points(self):
        pts = np.ones((2, 2))
        pts[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            Dataset(pts, np.zeros(2))

    def test_rejects_nonfinite_responses(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((2, 2)), np.array([1.0, np.inf]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((3, 2)), np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((0, 2)), np.zeros(0))

    def test_arrays_are_frozen(self):
        ds = Dataset(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.responses[0] = 5.0


class TestGramBlocks:
    def _valid(self):
        return np.stack([np.eye(2), 2.0 * np.eye(2)])

    def test_accepts_valid(self):
        gb = GramBlocks(blocks=self._valid(), lipschitz=3.0)
        assert gb.n_groups == 2
        assert gb.m == 2
        assert gb.group_dims is None

    def test_rejects_asymmetric_block(self):
        for g in (0, 1):
            blocks = self._valid()
            blocks[g, 0, 1] = 0.5
            with pytest.raises(ContractViolation, match=f"block {g} is asymmetric"):
                GramBlocks(blocks=blocks, lipschitz=4.0)

    def test_rejects_indefinite_block(self):
        blocks = np.stack([np.diag([1.0, -1.0])])
        with pytest.raises(ContractViolation):
            GramBlocks(blocks=blocks, lipschitz=2.0)

    @pytest.mark.parametrize("depth, accepted", [(0.5, True), (2.0, False)])
    def test_psd_tolerance_boundary(self, depth, accepted):
        # smallest eigenvalue -depth * PSD_TOL * trace, in a rotated basis
        # so the factorization sees a dense block
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        low = -depth * PSD_TOL * 6.0 / (1.0 + depth * PSD_TOL)
        K = (q * np.array([3.0, 2.0, 1.0, low])) @ q.T
        K = 0.5 * (K + K.T)
        assert np.linalg.eigvalsh(K)[0] == pytest.approx(
            -depth * PSD_TOL * np.trace(K), rel=1e-3
        )
        blocks = np.stack([np.eye(4), K])
        if accepted:
            GramBlocks(blocks=blocks)
        else:
            with pytest.raises(ContractViolation,
                               match="block 1 is not positive semi-definite"):
                GramBlocks(blocks=blocks)

    def test_writable_input_is_copied(self):
        blocks = self._valid()
        assert not np.shares_memory(GramBlocks(blocks=blocks).blocks, blocks)
        view = blocks.view()
        view.setflags(write=False)
        assert not np.shares_memory(GramBlocks(blocks=view).blocks, blocks)
        frozen = self._valid()
        frozen.setflags(write=False)
        assert GramBlocks(blocks=frozen).blocks is frozen

    def test_rejects_understated_lipschitz(self):
        with pytest.raises(ContractViolation):
            GramBlocks(blocks=self._valid(), lipschitz=1.0)

    def test_default_bound_is_top_eigenvalue_with_margin(self):
        gb = GramBlocks(blocks=self._valid())
        assert gb.lipschitz == pytest.approx(3.0 * LIPSCHITZ_MARGIN, rel=1e-12)

    def test_group_dims_length_checked(self):
        with pytest.raises(ContractViolation):
            GramBlocks(blocks=self._valid(), lipschitz=3.0, group_dims=(1,))


class TestDualCoefficients:
    def test_zeros_and_column(self):
        c = DualCoefficients.zeros(3, 2)
        assert c.alpha.shape == (3, 2)
        assert c.m == 3 and c.n_groups == 2
        assert np.array_equal(c.column(1), np.zeros(3))

    def test_rejects_nonfinite(self):
        a = np.zeros((2, 2))
        a[1, 1] = np.inf
        with pytest.raises(ContractViolation):
            DualCoefficients(a)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ContractViolation):
            DualCoefficients(np.zeros(4))


class TestProblemInstance:
    def test_rejects_nonpositive_lambda(self, one_d):
        with pytest.raises(ContractViolation):
            ProblemInstance(dataset=one_d.dataset, gram=one_d.gram, lam=0.0)

    def test_rejects_sample_count_mismatch(self, one_d, ortho):
        with pytest.raises(ContractViolation):
            ProblemInstance(dataset=ortho.dataset, gram=one_d.gram, lam=1.0)

    def test_rejects_unknown_convention(self, one_d):
        with pytest.raises(ContractViolation):
            ProblemInstance(
                dataset=one_d.dataset,
                gram=one_d.gram,
                lam=1.0,
                lam_convention="mean",
            )

    def test_effective_lambda_conventions(self, ortho):
        raw = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=0.5)
        scaled = ProblemInstance(
            dataset=ortho.dataset,
            gram=ortho.gram,
            lam=0.5,
            lam_convention="per-sample",
        )
        assert raw.effective_lambda == 0.5
        # m = 2 samples
        assert scaled.effective_lambda == 1.0


class TestResidual:
    def test_zero_coefficients_give_minus_y(self, ortho):
        c = DualCoefficients.zeros(2, 2)
        r = residual(c, ortho.gram, ortho.dataset.responses)
        assert np.array_equal(r, -ortho.dataset.responses)

    def test_scalar_identity_case(self, one_d):
        # G=1, K=1, alpha=1, y=1: the model matches the data exactly
        c = DualCoefficients(np.ones((1, 1)))
        r = residual(c, one_d.gram, one_d.dataset.responses)
        assert r[0] == 0.0

    def test_matches_explicit_feature_computation(self, rng):
        # r computed through the Gram blocks must equal X(D alpha) - y
        # computed through explicit group features
        dims = (2, 3, 1)
        m, p = 7, sum(dims)
        X = rng.standard_normal((m, p))
        y = rng.standard_normal(m)
        ds = Dataset(X, y)
        gram = assemble_gram_blocks(ds, LinearGroupProjection(dims))
        alpha = rng.standard_normal((m, len(dims)))
        r_gram = residual(DualCoefficients(alpha), gram, y)

        w = np.zeros(p)
        offset = 0
        for g, d in enumerate(dims):
            Xg = X[:, offset : offset + d]
            w[offset : offset + d] = Xg.T @ alpha[:, g]
            offset += d
        r_explicit = X @ w - y
        assert np.max(np.abs(r_gram - r_explicit)) <= 1e-12

    def test_affine_in_coefficients(self, rng):
        # residual(a + b) - residual(a) must not depend on y
        prob = group_lasso_instance(3)
        m, G = prob.m, prob.n_groups
        a = rng.standard_normal((m, G))
        b = rng.standard_normal((m, G))
        y2 = rng.standard_normal(m)

        def diff(y):
            ra = residual(DualCoefficients(a), prob.gram, y)
            rab = residual(DualCoefficients(a + b), prob.gram, y)
            return rab - ra

        assert np.allclose(diff(prob.dataset.responses), diff(y2), atol=1e-12)


class TestObjective:
    def test_zero_coefficients(self, ortho):
        c = DualCoefficients.zeros(2, 2)
        expected = 0.5 * float(ortho.dataset.responses @ ortho.dataset.responses)
        assert objective(c, ortho) == pytest.approx(expected, rel=1e-14)

    def test_scalar_example_values(self, one_d):
        zero = DualCoefficients.zeros(1, 1)
        one = DualCoefficients(np.ones((1, 1)))
        # F(0) = 0.5 < F(1) = 1.0, so zero beats the data-fitting point
        assert objective(zero, one_d) == 0.5
        assert objective(one, one_d) == 1.0

    def test_orthonormal_minimizer_value(self, ortho):
        # w = (2, 0) in dual coordinates: alpha_1 = (2, t) for any t,
        # the second coordinate is invisible through e_1 e_1^T
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        assert objective(c, ortho) == 2.625

    def test_per_sample_convention_scales_penalty(self, ortho):
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        scaled = ProblemInstance(
            dataset=ortho.dataset,
            gram=ortho.gram,
            lam=1.0,
            lam_convention="per-sample",
        )
        # penalty doubles (m = 2), data fit unchanged
        assert objective(c, scaled) == pytest.approx(2.0 * 2.0 + 0.625, rel=1e-14)

    def test_convex_along_segments(self, rng):
        prob = group_lasso_instance(5)
        m, G = prob.m, prob.n_groups
        for _ in range(25):
            a = DualCoefficients(rng.standard_normal((m, G)))
            b = DualCoefficients(rng.standard_normal((m, G)))
            t = float(rng.uniform())
            mid = DualCoefficients(t * a.alpha + (1.0 - t) * b.alpha)
            bound = t * objective(a, prob) + (1.0 - t) * objective(b, prob)
            assert objective(mid, prob) <= bound + 1e-10


class TestGroupDualNorm:
    def test_operator_norm_bound(self, rng):
        prob = group_lasso_instance(7)
        for g in range(prob.n_groups):
            K = prob.gram.blocks[g]
            top = float(np.linalg.eigvalsh(K)[-1])
            for _ in range(20):
                v = rng.standard_normal(prob.m)
                nu = group_dual_norm(v, K)
                assert nu * nu <= top * float(v @ v) + 1e-9

    def test_clamps_tiny_negative_quadratic_forms(self):
        # rank-1 PSD block, vector in its kernel: the quadratic form can
        # round below zero and must still produce 0.0, not NaN
        K = np.array([[1.0, 1.0], [1.0, 1.0]])
        v = np.array([1.0, -1.0])
        assert group_dual_norm(v, K) == 0.0

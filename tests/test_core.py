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
        # dense storage takes no group_dims, not even a matching one;
        # factored storage needs widths that split the columns
        for dims in ((1,), (1, 1)):
            with pytest.raises(ContractViolation, match="group_dims"):
                GramBlocks(blocks=self._valid(), lipschitz=3.0, group_dims=dims)
        with pytest.raises(ContractViolation, match="group_dims"):
            GramBlocks(features=np.eye(2), group_dims=(1,))

    def test_needs_exactly_one_storage(self):
        with pytest.raises(ContractViolation, match="exactly one"):
            GramBlocks()
        with pytest.raises(ContractViolation, match="exactly one"):
            GramBlocks(blocks=self._valid(), features=np.eye(2),
                       group_dims=(1, 1))


def factored_and_dense(dims):
    """Factored storage on a random (9, p) X, and the dense stack of X_g X_g'."""
    X = np.random.default_rng(0).standard_normal((9, sum(dims)))
    factored = GramBlocks(features=X, group_dims=dims)
    starts = np.cumsum((0,) + dims)
    blocks = np.stack([X[:, a:b] @ X[:, a:b].T for a, b in
                       zip(starts[:-1], starts[1:])])
    return factored, GramBlocks(blocks=0.5 * (blocks + blocks.transpose(0, 2, 1)))


def rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("dims", [(5,) * 4, (1, 3, 2)], ids=["even", "uneven"])
class TestFactoredAgreesWithDense:
    """Factored storage against the dense stack of the same blocks."""

    def test_apply(self, dims):
        factored, dense = factored_and_dense(dims)
        alpha = np.random.default_rng(1).standard_normal((9, len(dims)))
        assert rel_err(factored.apply(alpha), dense.apply(alpha)) <= 1e-12

    def test_apply_each_shared_vector(self, dims):
        factored, dense = factored_and_dense(dims)
        v = np.random.default_rng(2).standard_normal(9)
        out = factored.apply_each(v)
        assert out.shape == (len(dims), 9)
        assert rel_err(out, dense.apply_each(v)) <= 1e-12

    def test_apply_each_row_per_group(self, dims):
        factored, dense = factored_and_dense(dims)
        V = np.random.default_rng(3).standard_normal((len(dims), 9))
        assert rel_err(factored.apply_each(V), dense.apply_each(V)) <= 1e-12

    def test_apply_each_into_out_keeps_the_bits(self, dims):
        v = np.random.default_rng(2).standard_normal(9)
        V = np.random.default_rng(3).standard_normal((len(dims), 9))
        for gram in factored_and_dense(dims):
            for arg in (v, V):
                out = np.empty((2, len(dims), 9))
                gram.apply_each(arg, out=out[1])
                assert out[1].tobytes() == gram.apply_each(arg).tobytes()

    def test_quad_shared_vector(self, dims):
        factored, dense = factored_and_dense(dims)
        v = np.random.default_rng(4).standard_normal(9)
        assert rel_err(factored.quad(v), dense.quad(v)) <= 1e-12

    def test_quad_column_per_group(self, dims):
        factored, dense = factored_and_dense(dims)
        A = np.random.default_rng(5).standard_normal((9, len(dims)))
        assert rel_err(factored.quad(A), dense.quad(A)) <= 1e-12

    def test_lipschitz(self, dims):
        factored, dense = factored_and_dense(dims)
        assert factored.lipschitz == pytest.approx(dense.lipschitz, rel=1e-12)

    def test_dense_materialisation(self, dims):
        factored, dense = factored_and_dense(dims)
        blocks = factored.dense()
        assert not blocks.flags.writeable
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
        assert rel_err(blocks, dense.blocks) <= 1e-12
        assert dense.dense() is dense.blocks


class TestFactoredValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_features(self, bad):
        X = np.ones((3, 2))
        X[1, 0] = bad
        with pytest.raises(ContractViolation, match="non-finite"):
            GramBlocks(features=X, group_dims=(1, 1))

    @pytest.mark.parametrize("dims", [(1,), (1, 2), (2, 0), ()])
    def test_rejects_group_dims_not_splitting_the_columns(self, dims):
        with pytest.raises(ContractViolation, match="group_dims"):
            GramBlocks(features=np.ones((3, 2)), group_dims=dims)

    def test_needs_group_dims(self):
        with pytest.raises(ContractViolation, match="group_dims"):
            GramBlocks(features=np.ones((3, 2)))

    def test_explicit_lipschitz_must_dominate(self):
        X = np.eye(2)  # top eigenvalue of X'X is 1
        assert GramBlocks(features=X, group_dims=(1, 1), lipschitz=1.0)
        with pytest.raises(ContractViolation, match="does not dominate"):
            GramBlocks(features=X, group_dims=(1, 1), lipschitz=0.5)


class TestDualCoefficients:
    def test_zeros_and_column(self):
        c = DualCoefficients.zeros(3, 2)
        assert c.alpha.shape == (3, 2)
        assert c.m == 3 and c.n_groups == 2
        assert np.array_equal(c.alpha[:, 1], np.zeros(3))

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
    """The kernel-weighted norm sqrt(v' K_g v), through `GramBlocks.quad`."""

    def test_operator_norm_bound(self, rng):
        prob = group_lasso_instance(7)
        top = [float(np.linalg.eigvalsh(K)[-1]) for K in prob.gram.dense()]
        for _ in range(20):
            v = rng.standard_normal(prob.m)
            nu = np.sqrt(np.maximum(prob.gram.quad(v), 0.0))
            for g in range(prob.n_groups):
                assert nu[g] * nu[g] <= top[g] * float(v @ v) + 1e-9

    def test_clamps_tiny_negative_quadratic_forms(self):
        # rank-1 PSD block, vector in its kernel: the quadratic form can
        # round below zero and the clamped norm must still be 0.0, not NaN
        v = np.array([1.0, -1.0])
        for gram in (GramBlocks(blocks=np.ones((1, 2, 2))),
                     GramBlocks(features=np.ones((2, 1)), group_dims=(1,))):
            assert np.sqrt(np.maximum(gram.quad(v), 0.0))[0] == 0.0

import dataclasses
import tracemalloc

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    DualCoefficients,
    ExperimentConfig,
    GramBlocks,
    LinearGroupProjection,
    ProblemInstance,
    assemble_gram_blocks,
    generate_instance,
    objective,
    residual,
)
from sparsemkl.core import LIPSCHITZ_MARGIN, PSD_TOL, _readonly, bind_stack

from _fixtures import coeffs_like, group_lasso_instance


class TestDataset:
    def test_shapes_and_properties(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.ones(3))
        assert ds.m == 3
        assert ds.points.shape == (3, 2)

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

    # powers of two far from 1: the checks are relative to the blocks
    # powers of two far from 1: the checks are relative to the blocks
    SCALES = (1.0, 2.0 ** 40, 2.0 ** -40)

    def test_rejects_asymmetric_block(self):
        for g in (0, 1):
            for scale in self.SCALES:
                blocks = self._valid() * scale
                blocks[g, 0, 1] = 0.5 * scale
                with pytest.raises(ContractViolation,
                                   match=f"block {g} is asymmetric"):
                    GramBlocks(blocks=blocks, lipschitz=4.0 * scale)

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
        for scale in self.SCALES:
            blocks = np.stack([np.eye(4), K]) * scale
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

    def test_frozen_reshape_of_a_frozen_owner_is_kept(self):
        # a whole-buffer reshape whose owner is read-only has no writable
        # alias; a part of one, or a reshape of a writable owner, is copied
        owner = self._valid().flatten()
        owner.setflags(write=False)
        stack = owner.reshape(2, 2, 2)
        assert GramBlocks(blocks=stack).blocks is stack
        part = np.arange(12.0)
        part.setflags(write=False)
        part = part[:8].reshape(2, 4)
        assert not np.shares_memory(_readonly(part), part)
        writable = self._valid().flatten()
        stack = writable.reshape(2, 2, 2)
        stack.setflags(write=False)
        assert not np.shares_memory(GramBlocks(blocks=stack).blocks, writable)

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

    def test_dense_shared_vector_rejects_a_strided_out(self, dims):
        _, dense = factored_and_dense(dims)
        R = np.random.default_rng(2).standard_normal((2, 9))
        # each row's (G, m) slice of it is strided
        out = np.empty((2, 9, len(dims))).transpose(0, 2, 1)
        with pytest.raises(ContractViolation, match="C-contiguous"):
            bind_stack([dense, dense], R, R, out)

    def test_images(self, dims):
        # the kernel norms and the sum that the solver reads off them
        factored, dense = factored_and_dense(dims)
        A = np.random.default_rng(6).standard_normal((9, len(dims)))
        images = factored.image(A.T)
        assert images.shape == (len(dims), max(dims))
        assert rel_err(np.sqrt(np.einsum("gd,gd->g", images, images)),
                       dense.norms(A)) <= 1e-12
        assert rel_err(factored.from_images(images), dense.apply(A)) <= 1e-12
        assert rel_err(dense.from_images(dense.image(A.T)),
                       dense.apply(A)) <= 1e-12

    def test_quad_shared_vector(self, dims):
        factored, dense = factored_and_dense(dims)
        v = np.random.default_rng(4).standard_normal(9)
        assert rel_err(factored.norms(v), dense.norms(v)) <= 1e-12

    def test_quad_column_per_group(self, dims):
        factored, dense = factored_and_dense(dims)
        A = np.random.default_rng(5).standard_normal((9, len(dims)))
        assert rel_err(factored.norms(A), dense.norms(A)) <= 1e-12

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


UNEVEN_DIMS = (1, 7, 3, 5, 2, 6, 4, 5, 5, 2, 8, 3, 5, 5, 4, 6, 5, 1, 9, 4)


def factored_gram(seed, dims, m=50):
    X = np.random.default_rng(seed).standard_normal((m, sum(dims)))
    return GramBlocks(features=X, group_dims=dims)


def dense_gram(seed, G=20, m=50):
    F = np.random.default_rng(seed).standard_normal((G, m, 3))
    return GramBlocks(blocks=F @ F.transpose(0, 2, 1))


#: a permutation of UNEVEN_DIMS: other group widths, one factor shape
SHUFFLED_DIMS = tuple(np.random.default_rng(0).permutation(UNEVEN_DIMS).tolist())


def images_of(grams, seed):
    """Each row's images of random coefficients, stacked."""
    rng = np.random.default_rng(seed)
    return np.stack([g.image(rng.standard_normal((20, 50))) for g in grams])


def per_row(grams, images, Y):
    """The bound step's reference: each row's residual from its images,
    by `from_images`, and that residual's `image`."""
    R = np.stack([g.from_images(w) - y for g, w, y in zip(grams, images, Y)])
    return R, np.stack([g.image(r) for g, r in zip(grams, R)])


def bound(grams):
    """`bind_stack` over `grams`, with the (Y, R, out) it reads and writes."""
    width = grams[0].image(np.zeros((20, 50))).shape[-1]
    Y = np.random.default_rng(98).standard_normal((len(grams), 50))
    R, out = np.empty((len(grams), 50)), np.empty((len(grams), 20, width))
    return bind_stack(grams, Y, R, out), Y, R, out


def assert_step_keeps_the_bits(grams, seed):
    step, Y, R, out = bound(grams)
    images = images_of(grams, seed)
    step(images)
    want_R, want_out = per_row(grams, images, Y)
    assert R.tobytes() == want_R.tobytes()
    assert out.tobytes() == want_out.tobytes()


class TestGramStack:
    """The bound step gives each row the bits of its own gram's methods."""

    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    @pytest.mark.parametrize("dims", [(5,) * 20, UNEVEN_DIMS],
                             ids=["even", "uneven"])
    def test_factored_rows_keep_their_bits(self, n_rows, dims):
        grams = [factored_gram(seed, dims) for seed in range(n_rows)]
        assert_step_keeps_the_bits(grams, 99)

    def test_mixed_rows_keep_their_bits(self):
        # rows of two sets of group widths that pad to one factor shape,
        # interleaved, and dense rows
        grams = [factored_gram(1, UNEVEN_DIMS), factored_gram(2, SHUFFLED_DIMS),
                 factored_gram(4, UNEVEN_DIMS), factored_gram(5, SHUFFLED_DIMS)]
        assert grams[0].factors.shape == grams[1].factors.shape
        assert_step_keeps_the_bits(grams, 7)
        assert_step_keeps_the_bits([dense_gram(0), dense_gram(3)], 7)

    def test_mixed_storages_and_shapes_are_refused(self):
        for grams in ([dense_gram(0), factored_gram(1, (5,) * 20)],
                      [factored_gram(1, UNEVEN_DIMS),
                       factored_gram(2, (5,) * 20)]):
            with pytest.raises(ContractViolation, match="one storage"):
                bound(grams)

    def test_dropped_rows_leave_the_rest_their_bits(self):
        # rows leave in four steps, from a same-shape factored stack and
        # from a dense one, and the rest are bound again
        stacks = (
            [factored_gram(seed, (5,) * 20) for seed in range(6)],
            [dense_gram(seed) for seed in range(6)],
        )
        for grams in stacks:
            for sel in ([0, 1, 3, 4, 5], [1, 2, 3], [1, 2], [0]):
                grams = [grams[i] for i in sel]
                assert_step_keeps_the_bits(grams, len(grams))

    def test_a_same_shape_stack_holds_one_stacked_copy(self):
        for n_rows in (2, 6):
            grams = [factored_gram(seed, (5,) * 20) for seed in range(n_rows)]
            # the (N, m, G d_max) padded features and the (N, G, d_max, m)
            # transposed factors
            copy = 2 * n_rows * grams[0].factors.nbytes
            assert copy <= bind_peak(grams) < copy + 4096, n_rows

    def test_a_lone_shape_uses_the_grams_own_factors(self):
        # a lone row of even widths, whose padded features are X itself,
        # and one of uneven widths, whose gram pads them once
        for grams in ([factored_gram(0, (5,) * 20)],
                      [factored_gram(0, UNEVEN_DIMS)]):
            assert bind_peak(grams) < 4096

    def test_dense_rows_are_not_stacked(self):
        for grams in ([dense_gram(seed) for seed in range(4)],
                      [dense_gram(0)]):
            assert bind_peak(grams) < 4096, len(grams)


def bind_peak(grams):
    """The peak bytes that `tracemalloc` sees `bind_stack` allocate."""
    _, Y, R, out = bound(grams)
    return traced(lambda: bind_stack(grams, Y, R, out))[1]


#: Stacks of each kind `bind_stack` can return: same-shape factored,
#: dense, a lone factored row, and mixed, factored rows of two sets of
#: group widths that pad to one factor shape.
BOUND_STACKS = {
    "same-shape": lambda: [factored_gram(s, (5,) * 20) for s in range(4)],
    "dense": lambda: [dense_gram(s) for s in range(3)],
    "lone": lambda: [factored_gram(0, UNEVEN_DIMS)],
    "mixed": lambda: [factored_gram(0, SHUFFLED_DIMS),
                      factored_gram(1, UNEVEN_DIMS),
                      factored_gram(2, SHUFFLED_DIMS)],
}


@pytest.mark.parametrize("kind", BOUND_STACKS)
class TestBoundGramStack:
    """A bound step repeats: each call reads its images and Y anew."""

    def test_consecutive_calls_keep_the_bits(self, kind):
        grams = BOUND_STACKS[kind]()
        rng = np.random.default_rng(11)
        step, Y, R, out = bound(grams)
        # new images and responses before each call, so a row whose
        # second matmul ran before its first would read the last residual
        for seed in range(3):
            images = images_of(grams, seed)
            Y[...] = rng.standard_normal(Y.shape)
            step(images)
            want_R, want_out = per_row(grams, images, Y)
            assert R.tobytes() == want_R.tobytes()
            assert out.tobytes() == want_out.tobytes()

    def test_a_call_allocates_nothing(self, kind):
        grams = BOUND_STACKS[kind]()
        step, _, _, _ = bound(grams)
        images = images_of(grams, 12)
        step(images)
        _, peak = traced(lambda: step(images))
        assert peak < 1024


def traced(fn):
    """``fn()`` and the peak bytes that `tracemalloc` saw it allocate."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFactorsViewTheFeatures:
    """A factored gram holds its features once: the factor stack is a
    read-only view of them, zero-padded in one copy when the widths
    differ, beside the one transposed copy."""

    def test_equal_widths_view_the_features(self):
        gram = factored_gram(0, (5,) * 20)
        assert gram._padded is gram.features
        assert np.shares_memory(gram.factors, gram.features)
        assert not gram.factors.flags.writeable

    def test_unequal_widths_view_the_padded_features(self):
        gram = factored_gram(0, UNEVEN_DIMS)
        X, F, d_max = gram.features, gram.factors, max(UNEVEN_DIMS)
        assert gram._padded.shape == (50, 20 * d_max)
        assert np.shares_memory(F, gram._padded)
        assert not np.shares_memory(F, X)
        assert not F.flags.writeable and not gram._padded.flags.writeable
        starts = np.cumsum((0,) + UNEVEN_DIMS)
        for g, d in enumerate(UNEVEN_DIMS):
            assert np.array_equal(F[g, :, :d], X[:, starts[g]:starts[g] + d])
            assert not F[g, :, d:].any()
        assert np.array_equal(gram._factors_t, F.transpose(0, 2, 1))

    @pytest.mark.parametrize("dims, bound", [((5,) * 20, 1.5),
                                             ((3, 7) * 10, 3.0)],
                             ids=["even", "uneven"])
    def test_building_copies_the_features_at_most_twice(self, dims, bound):
        # beside the features: the transposed stack and, with unequal
        # widths, the padded features
        X = np.random.default_rng(0).standard_normal((800, 100))
        X.setflags(write=False)
        gram, peak = traced(lambda: GramBlocks(features=X, group_dims=dims))
        assert gram.features is X
        assert peak < bound * X.nbytes

    def test_an_instance_is_generated_around_one_draw(self):
        # the generator's draw, the dataset's points and the gram's
        # features are one array
        cfg = ExperimentConfig.group_lasso_paper(n_instances=1)
        cfg = dataclasses.replace(cfg, m=800)
        generate_instance(cfg, 0)
        (problem, _), peak = traced(lambda: generate_instance(cfg, 0))
        points = problem.dataset.points
        assert points is problem.gram.features and points.flags.owndata
        assert peak < 3 * points.nbytes


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
        c = DualCoefficients(np.zeros((3, 2)))
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


class TestResidual:
    def test_zero_coefficients_give_minus_y(self, ortho):
        c = DualCoefficients(np.zeros((2, 2)))
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
        c = DualCoefficients(np.zeros((2, 2)))
        expected = 0.5 * float(ortho.dataset.responses @ ortho.dataset.responses)
        assert objective(c, ortho) == pytest.approx(expected, rel=1e-14)

    def test_scalar_example_values(self, one_d):
        zero = DualCoefficients(np.zeros((1, 1)))
        one = DualCoefficients(np.ones((1, 1)))
        # F(0) = 0.5 < F(1) = 1.0, so zero beats the data-fitting point
        assert objective(zero, one_d) == 0.5
        assert objective(one, one_d) == 1.0

    def test_orthonormal_minimizer_value(self, ortho):
        # w = (2, 0) in dual coordinates: alpha_1 = (2, t) for any t,
        # the second coordinate is invisible through e_1 e_1^T
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        assert objective(c, ortho) == 2.625

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
    """The kernel-weighted norm sqrt(v' K_g v), through `GramBlocks.norms`."""

    def test_operator_norm_bound(self, rng):
        prob = group_lasso_instance(7)
        top = [float(np.linalg.eigvalsh(K)[-1]) for K in prob.gram.dense()]
        for _ in range(20):
            v = rng.standard_normal(prob.m)
            nu = prob.gram.norms(v)
            for g in range(prob.n_groups):
                assert nu[g] * nu[g] <= top[g] * float(v @ v) + 1e-9

    def test_clamps_tiny_negative_quadratic_forms(self):
        # rank-1 PSD block, vector in its kernel: the quadratic form can
        # round below zero and the clamped norm must still be 0.0, not NaN
        v = np.array([1.0, -1.0])
        for gram in (GramBlocks(blocks=np.ones((1, 2, 2))),
                     GramBlocks(features=np.ones((2, 1)), group_dims=(1,))):
            assert gram.norms(v)[0] == 0.0

    def test_dense_peak_is_the_image(self):
        # a Gaussian preset gram, G = 20 and m = 50: the (G, m) image and
        # the transposed coefficients are 8 kB each, where a quadratic
        # form contracted over the (G, m, m) stack peaked at 122 kB
        from sparsemkl.experiments import ExperimentConfig, generate_instance

        config = ExperimentConfig.gaussian_kernel_paper(n_instances=1)
        problem, alpha = generate_instance(config, 0)
        gram, y = problem.gram, problem.dataset.responses
        for v in (y, alpha.alpha):
            norms, peak = traced(lambda: gram.norms(v))
            assert norms.shape == (gram.n_groups,)
            assert peak < 32_000

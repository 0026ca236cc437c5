import tracemalloc

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    GaussianFamily,
    GramBlocks,
    LinearGroupProjection,
    ProblemInstance,
    SolverConfig,
    assemble_gram_blocks,
    certificate_norms,
    solve,
)
from sparsemkl.core import LIPSCHITZ_MARGIN


class TestKernelSpecs:
    def test_linear_rejects_nonpositive_dims(self):
        with pytest.raises(ContractViolation):
            LinearGroupProjection((2, 0, 1))

    def test_gaussian_rejects_nonpositive_sigma(self):
        with pytest.raises(ContractViolation):
            GaussianFamily((1.0, -0.5))

    def test_linear_dims_must_cover_columns(self):
        ds = Dataset(np.ones((3, 4)), np.zeros(3))
        with pytest.raises(ContractViolation):
            assemble_gram_blocks(ds, LinearGroupProjection((2, 3)))


class TestLinearAssembly:
    def test_blocks_are_group_grams(self, rng):
        dims = (2, 1, 3)
        X = rng.standard_normal((5, 6))
        gram = assemble_gram_blocks(Dataset(X, np.zeros(5)), LinearGroupProjection(dims))
        blocks = gram.dense()
        offset = 0
        for g, d in enumerate(dims):
            Xg = X[:, offset : offset + d]
            assert np.allclose(blocks[g], Xg @ Xg.T, atol=1e-12)
            offset += d
        assert gram.group_dims == dims

    def test_rank_bounded_by_group_width(self, rng):
        # scalar groups on a tall matrix: every block has rank <= 1
        X = rng.standard_normal((6, 3))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(6)), LinearGroupProjection((1, 1, 1))
        )
        for g in range(3):
            s = np.linalg.svd(gram.dense()[g], compute_uv=False)
            assert np.sum(s > 1e-10 * s[0]) <= 1

    def test_validated_by_gram_blocks_contract(self, rng):
        # assembly output must satisfy the same symmetry/PSD/bound checks
        # a hand-built GramBlocks would face
        X = rng.standard_normal((4, 5))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(4)), LinearGroupProjection((2, 3))
        )
        rebuilt = GramBlocks(blocks=gram.dense(), lipschitz=gram.lipschitz)
        assert rebuilt.n_groups == 2
        assert rebuilt.group_dims is None

    def test_factored_without_dense_blocks(self, rng):
        X = rng.standard_normal((6, 5))
        ds = Dataset(X, np.zeros(6))
        gram = assemble_gram_blocks(ds, LinearGroupProjection((2, 3)))
        assert gram.blocks is None
        assert gram.features is ds.points
        assert gram.factors.shape == (2, 6, 3)

    def test_peak_memory_is_the_factors(self, rng):
        # large-m shape: one dense (G, m, m) stack would be 102 MB, the
        # factor stack and its transpose are 0.64 MB each
        m, G, d = 800, 20, 5
        ds = Dataset(rng.standard_normal((m, G * d)), rng.standard_normal(m))
        spec = LinearGroupProjection((d,) * G)
        tracemalloc.start()
        try:
            gram = assemble_gram_blocks(ds, spec)
            assembly_peak = tracemalloc.get_traced_memory()[1]
            problem = ProblemInstance(dataset=ds, gram=gram, lam=1.0)
            coeffs, _ = solve(problem, SolverConfig(max_iters=20))
            certificate_norms(coeffs, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.factors.nbytes == m * G * d * 8
        assert assembly_peak < 4_000_000
        assert peak < 4_000_000


class TestGaussianAssembly:
    def test_assembled_stack_is_not_copied(self, rng, monkeypatch):
        from sparsemkl import kernels

        built = []

        def capture(blocks, **kw):
            built.append(blocks)
            return GramBlocks(blocks, **kw)

        monkeypatch.setattr(kernels, "GramBlocks", capture)
        X = rng.standard_normal((4, 2))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(4)), GaussianFamily((0.5, 2.0))
        )
        assert gram.blocks is built[0]
        assert not gram.blocks.flags.writeable

    def test_diagonal_exactly_one(self, rng):
        X = rng.standard_normal((6, 2))
        gram = assemble_gram_blocks(Dataset(X, np.zeros(6)), GaussianFamily((0.5, 2.0)))
        for g in range(2):
            assert np.array_equal(np.diag(gram.blocks[g]), np.ones(6))

    def test_duplicate_points_duplicate_rows(self, rng):
        X = rng.standard_normal((4, 3))
        X[2] = X[0]
        gram = assemble_gram_blocks(Dataset(X, np.zeros(4)), GaussianFamily((1.0,)))
        K = gram.blocks[0]
        assert np.array_equal(K[0], K[2])
        assert np.array_equal(K[:, 0], K[:, 2])

    def test_entries_in_unit_interval(self, rng):
        X = rng.standard_normal((8, 2))
        gram = assemble_gram_blocks(Dataset(X, np.zeros(8)), GaussianFamily((0.3, 1.0)))
        assert np.all(gram.blocks > 0.0)
        assert np.all(gram.blocks <= 1.0)

    def test_offdiagonal_monotone_in_bandwidth(self, rng):
        X = rng.standard_normal((6, 2))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(6)), GaussianFamily((0.5, 1.0, 2.0))
        )
        off = ~np.eye(6, dtype=bool)
        assert np.all(gram.blocks[0][off] < gram.blocks[1][off])
        assert np.all(gram.blocks[1][off] < gram.blocks[2][off])

    def test_exponent_scaling(self):
        # two points at distance d: entry must be exp(-d^2 / (2 sigma^2))
        X = np.array([[0.0], [3.0]])
        gram = assemble_gram_blocks(Dataset(X, np.zeros(2)), GaussianFamily((1.5,)))
        expected = np.exp(-9.0 / (2.0 * 1.5**2))
        assert gram.blocks[0][0, 1] == pytest.approx(expected, rel=1e-15)


class TestOperatorNorm:
    """The largest eigenvalue of sum_g K_g behind the default step bound."""

    def test_identity_blocks_sum_to_group_count(self):
        G, m = 4, 3
        gram = GramBlocks(blocks=np.stack([np.eye(m)] * G))
        assert gram.lipschitz == pytest.approx(G * LIPSCHITZ_MARGIN, rel=1e-10)

    def test_two_by_two_closed_form(self):
        block = np.array([[2.0, 1.0], [1.0, 2.0]])
        gram = GramBlocks(blocks=block[None])
        assert gram.lipschitz == pytest.approx(3.0 * LIPSCHITZ_MARGIN, rel=1e-10)

    def test_matches_dense_eigensolver(self, rng):
        m = 12
        A = rng.standard_normal((m, m))
        block = A @ A.T
        top = float(np.linalg.norm(block, 2))
        gram = GramBlocks(blocks=block[None])
        assert gram.lipschitz == pytest.approx(top * LIPSCHITZ_MARGIN, rel=1e-8)

    def test_subadditive_across_blocks(self, rng):
        X = rng.standard_normal((7, 6))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(7)), LinearGroupProjection((2, 2, 2))
        )
        per_block = sum(
            float(np.linalg.eigvalsh(K)[-1]) for K in gram.dense()
        )
        assert gram.lipschitz <= per_block * LIPSCHITZ_MARGIN * (1.0 + 1e-10)


class TestAssembledStepBound:
    def test_safety_factor_dominates_spectrum(self, rng):
        X = rng.standard_normal((9, 6))
        gram = assemble_gram_blocks(
            Dataset(X, np.zeros(9)), LinearGroupProjection((3, 3))
        )
        top = float(np.linalg.eigvalsh(gram.dense().sum(axis=0))[-1])
        assert gram.lipschitz >= top
        assert gram.lipschitz == pytest.approx(top * 1.01, rel=1e-6)

    def test_all_zero_features_rejected(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ContractViolation):
            assemble_gram_blocks(ds, LinearGroupProjection((1, 1)))

"""Shared instance builders for the test suite.

Everything here is deterministic: batteries derive per-index RNGs from
fixed SeedSequence keys so any single instance can be rebuilt in
isolation while the full battery stays stable across runs.
"""

import numpy as np

from sparsemkl import (
    Dataset,
    DualCoefficients,
    GaussianFamily,
    GramBlocks,
    LinearGroupProjection,
    ProblemInstance,
    assemble_gram_blocks,
)

# Battery keys. Changing either invalidates frozen expectations in the
# acceptance tests, so treat them as part of the suite's contract.
GROUP_LASSO_KEY = 0xBA77E
GAUSSIAN_KEY = 0x6A55


def group_lasso_instance(index):
    """Random small group-lasso instance for oracle comparisons.

    Sizes stay within the enumeration oracle's comfort zone
    (m <= 10, G <= 5, d_g <= 3) and lambda is drawn log-uniform over
    [0.05, 2] times the largest certificate norm of the data, so the
    battery spans everything from dense solutions to the zero solution.
    """
    rng = np.random.default_rng(np.random.SeedSequence([GROUP_LASSO_KEY, index]))
    m = int(rng.integers(4, 11))
    G = int(rng.integers(2, 6))
    dims = tuple(int(d) for d in rng.integers(1, 4, size=G))
    X = rng.standard_normal((m, sum(dims)))
    s = int(rng.integers(1, G + 1))
    chosen = np.sort(rng.choice(G, size=s, replace=False))
    alpha = np.zeros((m, G))
    alpha[:, chosen] = rng.standard_normal((m, s))
    gram = assemble_gram_blocks(Dataset(X, np.zeros(m)), LinearGroupProjection(dims))
    y = gram.apply(alpha) + 1e-2 * rng.standard_normal(m)
    certs = np.sqrt(gram.quad(y))
    f = 10.0 ** rng.uniform(np.log10(0.05), np.log10(2.0))
    lam = float(f * certs.max())
    return ProblemInstance(dataset=Dataset(X, y), gram=gram, lam=lam)


def gaussian_sandwich_instance(index):
    """Random Gaussian-kernel instance (m=20, G=6) for sandwich checks.

    Bandwidths are log-uniform on [0.3, 3] and lambda sits in
    [0.15, 1.5] times the top certificate norm. Narrower than the
    batch-experiment preset on purpose: the blocks stay mutually
    distinguishable, so the 10x reference run reaches step norms near
    1e-12 and its support report is trustworthy.
    """
    rng = np.random.default_rng(np.random.SeedSequence([GAUSSIAN_KEY, index]))
    m, G, p, s = 20, 6, 2, 2
    X = rng.standard_normal((m, p))
    sigmas = tuple(np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=G)))
    chosen = np.sort(rng.choice(G, size=s, replace=False))
    alpha = np.zeros((m, G))
    alpha[:, chosen] = rng.standard_normal((m, s))
    gram = assemble_gram_blocks(Dataset(X, np.zeros(m)), GaussianFamily(sigmas))
    y = gram.apply(alpha) + 1e-2 * rng.standard_normal(m)
    certs = np.sqrt(gram.quad(y))
    f = 10.0 ** rng.uniform(np.log10(0.15), np.log10(1.5))
    lam = float(f * certs.max())
    return ProblemInstance(dataset=Dataset(X, y), gram=gram, lam=lam)


def one_dim_problem():
    """The scalar worked example: G=1, K=1, y=1, lambda=1.

    Built by hand so the Lipschitz constant is the top eigenvalue 1.0
    itself, without the default margin, and tau_factor = 0.5 lands on
    tau = 0.5 with no rounding.
    """
    gram = GramBlocks(features=np.ones((1, 1)), group_dims=(1,), lipschitz=1.0)
    return ProblemInstance(
        dataset=Dataset(np.ones((1, 1)), np.ones(1)),
        gram=gram,
        lam=1.0,
    )


def orthonormal_problem():
    """Two scalar groups on an identity design: y=(3, 0.5), lambda=1.

    Each block is e_g e_g^T, so one thresholding step from zero with
    tau=1 solves the problem exactly at w = (2, 0).
    """
    X = np.eye(2)
    # without the default margin: the top eigenvalue is exactly 1 here
    # and tau=1 tests rely on 2/L staying exactly 2
    gram = GramBlocks(features=X, lipschitz=1.0, group_dims=(1, 1))
    return ProblemInstance(
        dataset=Dataset(X, np.array([3.0, 0.5])),
        gram=gram,
        lam=1.0,
    )


def coeffs_like(problem, columns):
    """DualCoefficients with the given dict of {group: vector} columns."""
    alpha = np.zeros((problem.m, problem.n_groups))
    for g, col in columns.items():
        alpha[:, g] = col
    return DualCoefficients(alpha)

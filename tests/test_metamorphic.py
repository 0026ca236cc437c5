"""Exact symmetries of the production solve.

Multiplying by a power of two rounds nothing, and every operation of the
loop (sums, products, BLAS matmuls, square roots, the threshold ratio)
commutes with it away from overflow and subnormals. So each relation
below holds bit for bit, whichever CPU kernels numpy and BLAS pick:

* (y, lambda) -> 2^k (y, lambda): the iterates and step norms scale by
  2^k and the objectives by 4^k; supports, cycles and stops are the same.
* X -> 2 X with lambda -> 2 lambda (factored storage): K -> 4 K, so the
  coefficients scale by 1/4 and the step norms by 1/2, and the objective
  is unchanged.
* A group whose kernel is zero, appended last with the same step bound,
  is never active and changes no other bit.

The same holds for a reference certified by `solver.polish_reference`,
whose every threshold is relative: (y, lambda) -> 2^k (y, lambda) scales
it by 2^k, K -> 4^k K with lambda -> 2^k lambda (factored and dense
storage) by 4^-k, and its support, extended support and qc margin are
the same.
A reference that is not polished is left out: whether the production
result is taken as it stands is decided by an absolute step norm, which
does not scale with the data, and at k = -40 a run whose last step
would be polished passes it (ROADMAP items 3 and 9).

Permuting the groups is not exact: the loop sums them in another order.
So a permuted reference, polished or a settled production result, is
checked on its identification instead: its support, extended support
and qualification permute exactly, and its qc margin agrees to 1e-12.
"""

import numpy as np
import pytest

from sparsemkl import (
    Dataset,
    ExperimentConfig,
    GramBlocks,
    ProblemInstance,
    SolverConfig,
    generate_instance,
    qualification_check,
    solve,
    solve_with_reference,
)

# preset (master seed 0) instances and the budget each family runs
FAMILIES = {
    "group-lasso": (ExperimentConfig.group_lasso_paper, 5000),
    "gaussian": (ExperimentConfig.gaussian_kernel_paper, 600),
}
CASES = [(family, index) for family in FAMILIES for index in (0, 1)]


def preset(family, index):
    make, iters = FAMILIES[family]
    problem, _ = generate_instance(make(n_instances=2, master_seed=0), index)
    return problem, SolverConfig(max_iters=iters)


def rescaled(problem, gram=None, y_scale=1.0, lam_scale=1.0):
    """`problem` with its Gram, responses and lambda replaced or scaled."""
    return ProblemInstance(
        dataset=Dataset(problem.dataset.points,
                        y_scale * problem.dataset.responses),
        gram=problem.gram if gram is None else gram,
        lam=lam_scale * problem.lam,
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_path(trace, base):
    assert trace.iters_run == base.iters_run
    assert same_bits(trace.change_iters, base.change_iters)
    assert same_bits(trace.change_supports, base.change_supports)


@pytest.fixture(scope="module")
def solved():
    """Each case's problem, config and unscaled (coeffs, trace)."""
    runs = {}
    for case in CASES:
        problem, config = preset(*case)
        runs[case] = (problem, config, *solve(problem, config))
    return runs


@pytest.mark.parametrize("k", [-40, -20, 20])
@pytest.mark.parametrize("case", CASES, ids=[f"{f}-{i}" for f, i in CASES])
def test_scaling_data_and_lambda_scales_the_run(solved, case, k):
    problem, config, coeffs, trace = solved[case]
    c = 2.0 ** k
    scaled, scaled_trace = solve(rescaled(problem, y_scale=c, lam_scale=c),
                                 config)
    assert_same_path(scaled_trace, trace)
    assert same_bits(scaled.alpha / c, coeffs.alpha)
    assert same_bits(scaled_trace.step_norms / c, trace.step_norms)
    assert same_bits(scaled_trace.objectives / (c * c), trace.objectives)
    assert scaled_trace.objective / (c * c) == trace.objective
    assert scaled_trace.final_step_norm / c == trace.final_step_norm


def assert_same_identification(reference, problem, base, base_problem):
    report = qualification_check(base, base_problem)
    scaled_report = qualification_check(reference, problem)
    assert scaled_report.support == report.support
    assert scaled_report.extended_support == report.extended_support
    assert same_bits(scaled_report.qc_margin, report.qc_margin)


@pytest.mark.parametrize("k", [-20, 20])
@pytest.mark.parametrize("index", [0, 1])
def test_scaling_data_and_lambda_scales_the_polished_reference(polished,
                                                               index, k):
    problem, config = preset("gaussian", index)
    c = 2.0 ** k
    scaled_problem = rescaled(problem, y_scale=c, lam_scale=c)
    base = solve_with_reference(problem, config).reference
    scaled = solve_with_reference(scaled_problem, config).reference
    # both references come from the polish, not from a replay
    assert polished == [True, True]
    assert same_bits(scaled.alpha / c, base.alpha)
    assert_same_identification(scaled, scaled_problem, base, problem)


@pytest.mark.parametrize("k", [-10, 1])
@pytest.mark.parametrize("family", FAMILIES)
def test_scaling_the_kernels_and_lambda_scales_the_polished_reference(
        polished, family, k):
    # K -> 4^k K with lambda -> 2^k lambda. At 600 iterations instance
    # 0's reference is still to take in both families, so the polish
    # makes it; its weights are in units of 1/lipschitz, which scales
    # by 4^-k with them. The step norms scale by 2^-k, so at k = 10 the
    # group-lasso run's last step falls under the absolute settle test
    # of 1e-12 (from 2e-11 at iteration 600) and its reference is not
    # polished
    problem, _ = preset(family, 0)
    config = SolverConfig(max_iters=600)
    gram, c = problem.gram, 2.0 ** k
    if gram.features is None:
        scaled_gram = GramBlocks(blocks=c * c * gram.blocks,
                                 lipschitz=c * c * gram.lipschitz)
    else:
        scaled_gram = GramBlocks(features=c * gram.features,
                                 group_dims=gram.group_dims)
    assert scaled_gram.lipschitz == c * c * gram.lipschitz
    scaled_problem = rescaled(problem, scaled_gram, lam_scale=c)
    base = solve_with_reference(problem, config).reference
    scaled = solve_with_reference(scaled_problem, config).reference
    assert polished == [True, True]
    assert same_bits(c * c * scaled.alpha, base.alpha)
    assert_same_identification(scaled, scaled_problem, base, problem)


def permuted(gram, perm):
    """`gram` with its groups in the order `perm`, at the same step bound."""
    if gram.features is None:
        return GramBlocks(blocks=gram.blocks[perm], lipschitz=gram.lipschitz)
    ends = np.cumsum(gram.group_dims)
    columns = [np.arange(end - d, end) for end, d in zip(ends, gram.group_dims)]
    return GramBlocks(features=gram.features[:, np.concatenate(
        [columns[g] for g in perm])],
        group_dims=tuple(gram.group_dims[g] for g in perm),
        lipschitz=gram.lipschitz)


# per case, whether each of its two references (base, permuted) is
# polished; the empty list: both runs end at a step of at most 1e-12 and
# are their own references
PERMUTED = {("gaussian", 0, 300): [True, True],
            ("gaussian", 1, 300): [True, True],
            ("group-lasso", 0, 600): [True, True],
            ("group-lasso", 1, 600): []}


@pytest.mark.parametrize("case", PERMUTED,
                         ids=[f"{f}-{i}" for f, i, _ in PERMUTED])
def test_permuting_the_groups_permutes_the_reference(polished, case):
    # the permuted run sums its groups in another order, so its bits
    # differ; its reference's identification is the same, groups renamed
    family, index, iters = case
    problem, _ = preset(family, index)
    config = SolverConfig(max_iters=iters)
    perm = np.random.default_rng(index).permutation(problem.n_groups)
    moved = rescaled(problem, permuted(problem.gram, perm))
    base = solve_with_reference(problem, config).reference
    reference = solve_with_reference(moved, config).reference
    assert polished == PERMUTED[case]
    report = qualification_check(base, problem)
    moved_report = qualification_check(reference, moved)
    assert {int(perm[k]) for k in moved_report.support} == report.support
    assert ({int(perm[k]) for k in moved_report.extended_support}
            == report.extended_support)
    assert moved_report.qc_holds == report.qc_holds
    assert abs(moved_report.qc_margin - report.qc_margin) <= 1e-12


@pytest.mark.parametrize("index", [0, 1])
def test_doubling_the_features_and_lambda_quarters_the_coefficients(solved,
                                                                    index):
    problem, config, coeffs, trace = solved["group-lasso", index]
    gram = problem.gram
    doubled = GramBlocks(features=2.0 * gram.features,
                         group_dims=gram.group_dims)
    assert doubled.lipschitz == 4.0 * gram.lipschitz
    quartered, new_trace = solve(rescaled(problem, doubled, lam_scale=2.0),
                                 config)
    assert_same_path(new_trace, trace)
    assert same_bits(4.0 * quartered.alpha, coeffs.alpha)
    assert same_bits(2.0 * new_trace.step_norms, trace.step_norms)
    assert same_bits(new_trace.objectives, trace.objectives)
    assert new_trace.objective == trace.objective


def with_zero_group(gram):
    """`gram` and one more group, last, whose kernel is zero."""
    if gram.features is None:
        blocks = np.concatenate([gram.blocks, np.zeros((1, gram.m, gram.m))])
        return GramBlocks(blocks=blocks, lipschitz=gram.lipschitz)
    features = np.hstack([gram.features, np.zeros((gram.m, 1))])
    return GramBlocks(features=features, group_dims=gram.group_dims + (1,),
                      lipschitz=gram.lipschitz)


@pytest.mark.parametrize("case", CASES, ids=[f"{f}-{i}" for f, i in CASES])
def test_an_appended_zero_group_changes_nothing(solved, case):
    problem, config, coeffs, trace = solved[case]
    padded, new_trace = solve(rescaled(problem, with_zero_group(problem.gram)),
                              config)
    G = problem.n_groups
    assert not padded.alpha[:, G:].any()
    assert not new_trace.change_supports[:, G:].any()
    assert same_bits(padded.alpha[:, :G], coeffs.alpha)
    assert new_trace.iters_run == trace.iters_run
    assert same_bits(new_trace.change_iters, trace.change_iters)
    assert same_bits(new_trace.change_supports[:, :G], trace.change_supports)
    for name in ("objectives", "step_norms"):
        assert same_bits(getattr(new_trace, name), getattr(trace, name)), name
    assert new_trace.objective == trace.objective
    assert new_trace.final_step_norm == trace.final_step_norm

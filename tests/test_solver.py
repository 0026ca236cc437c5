import io
import json

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    DivergenceError,
    DualCoefficients,
    GramBlocks,
    LinearGroupProjection,
    ProblemInstance,
    SolverConfig,
    SolveTrace,
    assemble_gram_blocks,
    enumerate_solve,
    objective,
    residual,
    solve,
    support_of,
)
from sparsemkl.experiments import write_trace_rows
from sparsemkl.solver import solve_with_reference
from sparsemkl.support import (
    last_support_change,
    qualification_check,
    sandwich_check,
)

from _fixtures import coeffs_like, group_lasso_instance, one_dim_problem


class TestSolverConfig:
    @pytest.mark.parametrize("tf", [0.0, -0.1, 2.0, 2.5])
    def test_rejects_tau_factor_outside_open_interval(self, tf):
        with pytest.raises(ContractViolation):
            SolverConfig(tau_factor=tf)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ContractViolation):
            SolverConfig(max_iters=0)

    def test_rejects_negative_stop_tol(self):
        with pytest.raises(ContractViolation):
            SolverConfig(stop_tol=-1e-9)


def one_step(problem, coeffs, tau):
    """One iteration at step size `tau`, run through `solve`."""
    config = SolverConfig(tau_factor=tau * problem.gram.lipschitz, max_iters=1)
    out, _ = solve(problem, config, coeffs)
    return out


def thresholded(a, K, threshold, lipschitz=None):
    """Group thresholding of `a` with block `K`, run through `solve`.

    One step from zero on the one-group problem with y = a / tau and
    lambda = threshold / tau: its gradient step lands on `a`, and its
    threshold tau * lambda is `threshold`.
    """
    gram = GramBlocks(blocks=np.asarray(K, dtype=float)[None], lipschitz=lipschitz)
    tau = 1.0 / gram.lipschitz
    a = np.asarray(a, dtype=float)
    problem = ProblemInstance(
        dataset=Dataset(np.zeros((a.shape[0], 1)), a / tau),
        gram=gram,
        lam=threshold / tau,
    )
    coeffs, _ = solve(problem, SolverConfig(tau_factor=1.0, max_iters=1))
    return coeffs.alpha[:, 0]


class TestGroupThreshold:
    def test_zero_input_stays_zero(self):
        out = thresholded(np.zeros(3), np.eye(3), 7.5, lipschitz=1.0)
        assert np.array_equal(out, np.zeros(3))

    def test_boundary_norm_maps_to_exact_zero(self):
        out = thresholded(np.array([0.6, 0.8]), np.eye(2), 1.0, lipschitz=1.0)
        assert out.shape == (2,)
        assert np.array_equal(out, np.zeros(2))

    def test_radial_shrinkage(self):
        out = thresholded(np.array([3.0, 4.0]), np.eye(2), 1.0, lipschitz=1.0)
        assert np.allclose(out, [2.4, 3.2], rtol=1e-15, atol=0.0)

    def test_output_norm_is_soft_thresholded(self, rng):
        prob = group_lasso_instance(2)
        K = prob.gram.dense()[0]

        def norm(v):
            return float(prob.gram.norms(v)[0])

        for _ in range(20):
            a = rng.standard_normal(prob.m)
            nu = norm(a)
            thr = float(rng.uniform(0.1, 2.0) * max(nu, 1e-3))
            out = thresholded(a, K, thr)
            expected = max(0.0, nu - thr)
            assert norm(out) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        gram = GramBlocks(blocks=np.eye(2)[None])
        prob = ProblemInstance(
            dataset=Dataset(np.zeros((2, 1)), np.ones(2)), gram=gram, lam=1.0
        )
        with pytest.raises(ContractViolation):
            solve(prob, SolverConfig(max_iters=1), DualCoefficients(np.ones((3, 1))))


class TestIktaStep:
    def test_scalar_contraction(self, one_d):
        # alpha' = (1 - tau) alpha when lambda = 1, K = 1, y = 1
        c = DualCoefficients(np.full((1, 1), 0.5))
        out = one_step(one_d, c, 0.5)
        assert out.alpha[0, 0] == 0.25

    def test_zero_fixed_point_under_large_lambda(self, ortho):
        big = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=3.5)
        out = one_step(big, DualCoefficients(np.zeros((2, 2))), 0.9)
        assert np.array_equal(out.alpha, np.zeros((2, 2)))

    def test_orthonormal_single_step_solves(self, ortho):
        out = one_step(ortho, DualCoefficients(np.zeros((2, 2))), 1.0)
        # w_g = e_g^T alpha_g: group 1 lands on 2, group 2 dies
        assert out.alpha[0, 0] == pytest.approx(2.0, rel=1e-15)
        assert np.array_equal(out.alpha[:, 1], np.zeros(2))

    @pytest.mark.parametrize("tau", [0.0, -0.5, 2.0, 2.1])
    def test_step_size_window_enforced(self, one_d, tau):
        with pytest.raises(ContractViolation):
            one_step(one_d, DualCoefficients(np.zeros((1, 1))), tau)

    def test_coefficient_shape_checked(self, one_d):
        with pytest.raises(ContractViolation):
            one_step(one_d, DualCoefficients(np.zeros((2, 1))), 0.5)


class TestSolveScalarExample:
    def test_geometric_decay_is_exact(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=20)
        coeffs, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        assert trace.iters_run == 20
        assert coeffs.alpha[0, 0] == 0.5**20
        # every iterate keeps the single group active even though the
        # limit is the zero solution
        assert trace.supports.shape == (20, 1)
        assert trace.supports.all()
        assert np.array_equal(trace.iterations, np.arange(1, 21))

    def test_iterate_path_matches_closed_form(self, one_d):
        c = DualCoefficients(np.ones((1, 1)))
        for n in range(1, 51):
            # each solve takes one step from the previous iterate
            c, _ = solve(one_d, SolverConfig(tau_factor=0.5, max_iters=1), c)
            assert c.alpha[0, 0] == pytest.approx(0.5**n, rel=1e-12)
            assert support_of(c) == {0}


class TestSolveGeneral:
    def test_zero_solution_stops_immediately(self, ortho):
        big = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=10.0)
        cfg = SolverConfig(tau_factor=0.8, max_iters=500, stop_tol=1e-12)
        coeffs, trace = solve(big, cfg)
        assert np.array_equal(coeffs.alpha, np.zeros((2, 2)))
        assert trace.iters_run == 1
        assert trace.final_step_norm == 0.0

    def test_final_objective_matches_oracle(self):
        # m=8, G=4, two columns per group
        rng = np.random.default_rng(88)
        X = rng.standard_normal((8, 8))
        ds0 = Dataset(X, np.zeros(8))
        gram = assemble_gram_blocks(ds0, LinearGroupProjection((2, 2, 2, 2)))
        alpha = np.zeros((8, 4))
        alpha[:, [0, 2]] = rng.standard_normal((8, 2))
        y = gram.apply(alpha) + 0.01 * rng.standard_normal(8)
        prob = ProblemInstance(dataset=Dataset(X, y), gram=gram, lam=0.8)

        cfg = SolverConfig(tau_factor=0.8, max_iters=100000, stop_tol=1e-13)
        coeffs, _ = solve(prob, cfg)
        got = objective(coeffs, prob)
        want = enumerate_solve(prob).objective
        assert got == pytest.approx(want, rel=1e-8)

    def test_divergence_detected_and_named(self, ortho):
        huge = ProblemInstance(
            dataset=Dataset(ortho.dataset.points, np.array([1e200, 0.0])),
            gram=ortho.gram,
            lam=1.0,
        )
        cfg = SolverConfig(tau_factor=0.8, max_iters=10)
        with pytest.raises(DivergenceError) as exc:
            solve(huge, cfg)
        assert exc.value.iteration == 1

    def test_warm_start_shape_checked(self, ortho):
        cfg = SolverConfig(max_iters=5)
        with pytest.raises(ContractViolation):
            solve(ortho, cfg, alpha0=DualCoefficients(np.zeros((3, 2))))

    def test_config_type_checked(self, ortho):
        for run in (solve, solve_with_reference):
            with pytest.raises(ContractViolation, match="SolverConfig"):
                run(ortho, {"max_iters": 5})

    def test_deterministic_rerun_is_bit_identical(self):
        prob = group_lasso_instance(11)
        cfg = SolverConfig(tau_factor=0.8, max_iters=300)
        a, ta = solve(prob, cfg)
        b, tb = solve(prob, cfg)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(ta.objectives, tb.objectives)
        assert ta.supports.dtype == tb.supports.dtype == bool
        assert np.array_equal(ta.supports, tb.supports)


class TestSolveStack:
    def test_solve_refuses_a_stack(self, ortho):
        # one problem per call; a stack has one entry of its own
        for stack in ([ortho, ortho], (ortho,)):
            with pytest.raises(ContractViolation,
                               match="solve_with_reference"):
                solve(stack, SolverConfig())

    def test_results_come_back_in_the_order_given(self, ortho):
        big = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=10.0)
        cfg = SolverConfig(tau_factor=0.8, max_iters=50)
        results = solve_with_reference((big, ortho), cfg)
        for problem, result in zip((big, ortho), results):
            alone, trace = solve(problem, cfg)
            assert np.array_equal(result.coeffs.alpha, alone.alpha)
            assert np.array_equal(result.trace.objectives, trace.objectives)

    def test_rejects_an_empty_stack(self):
        with pytest.raises(ContractViolation):
            solve_with_reference([], SolverConfig())

    def test_rejects_rows_of_other_shapes(self, ortho):
        with pytest.raises(ContractViolation):
            solve_with_reference([ortho, group_lasso_instance(0)],
                                 SolverConfig())

    def test_rejects_starts_that_do_not_match_the_rows(self, ortho):
        # a row's start is one DualCoefficients, not a list of them
        with pytest.raises(ContractViolation):
            solve(ortho, SolverConfig(), [None])
        with pytest.raises(ContractViolation):
            solve(ortho, SolverConfig(), [DualCoefficients(np.zeros((2, 2)))])

    def test_divergence_names_the_row(self, ortho):
        huge = ProblemInstance(
            dataset=Dataset(ortho.dataset.points, np.array([1e200, 0.0])),
            gram=ortho.gram,
            lam=1.0,
        )
        cfg = SolverConfig(tau_factor=0.8, max_iters=10)
        with pytest.raises(DivergenceError, match="stack row 1") as exc:
            solve_with_reference([ortho, huge], cfg)
        assert exc.value.iteration == 1


class TestDescentAndKkt:
    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
    def test_objective_never_increases(self, index):
        prob = group_lasso_instance(index)
        cfg = SolverConfig(tau_factor=0.8, max_iters=1500)
        _, trace = solve(prob, cfg)
        diffs = np.diff(trace.objectives)
        assert diffs.max(initial=-np.inf) <= 1e-12

    @pytest.mark.parametrize("index", [0, 5, 9])
    def test_kkt_residuals_at_convergence(self, index):
        prob = group_lasso_instance(index)
        cfg = SolverConfig(tau_factor=0.8, max_iters=200000, stop_tol=1e-12)
        coeffs, trace = solve(prob, cfg)
        assert trace.final_step_norm <= 1e-12
        lam = prob.lam
        r = residual(coeffs, prob.gram, prob.dataset.responses)
        supp = support_of(coeffs)
        certs = prob.gram.norms(r)
        for g, cert in enumerate(certs):
            if g in supp:
                assert abs(cert - lam) <= 1e-6 * lam
            else:
                assert cert <= lam * (1.0 + 1e-6)

    def test_surviving_groups_have_positive_norm(self):
        prob = group_lasso_instance(6)
        cfg = SolverConfig(tau_factor=0.8, max_iters=200)
        coeffs, _ = solve(prob, cfg)
        norms = prob.gram.norms(coeffs.alpha)
        for g in range(prob.n_groups):
            col = coeffs.alpha[:, g]
            if g in support_of(coeffs):
                assert norms[g] > 0.0
            else:
                assert np.array_equal(col, np.zeros(prob.m))

    def test_step_norms_shrink_overall(self):
        prob = group_lasso_instance(8)
        cfg = SolverConfig(tau_factor=0.8, max_iters=2000)
        _, trace = solve(prob, cfg)
        assert trace.step_norms[-1] <= trace.step_norms[0]

    def test_recorded_objectives_match_recomputation(self):
        # the fused loop books objectives from cached quantities; they
        # must agree with an independent evaluation at the same iterate
        prob = group_lasso_instance(12)
        cfg = SolverConfig(tau_factor=0.8, max_iters=40)
        coeffs, trace = solve(prob, cfg)
        assert trace.objectives[-1] == pytest.approx(
            objective(coeffs, prob), rel=1e-12
        )


class TestRepresenterEquivalence:
    def test_dual_and_explicit_iterations_agree(self, rng):
        # run the same forward-backward scheme on explicit features
        # w in R^p and compare with w_g = X_g^T alpha_g at every step
        dims = (2, 3, 2, 1)
        m, p, G = 9, sum(dims), len(dims)
        X = rng.standard_normal((m, p))
        y = rng.standard_normal(m)
        prob = ProblemInstance(
            dataset=Dataset(X, y),
            gram=assemble_gram_blocks(Dataset(X, np.zeros(m)), LinearGroupProjection(dims)),
            lam=0.7,
        )
        tau = 0.8 / prob.gram.lipschitz
        lam = prob.lam

        slices = []
        off = 0
        for d in dims:
            slices.append(slice(off, off + d))
            off += d

        alpha = DualCoefficients(rng.standard_normal((m, G)))
        w = np.concatenate([X[:, sl].T @ alpha.alpha[:, g] for g, sl in enumerate(slices)])

        cfg = SolverConfig(tau_factor=0.8, max_iters=1)
        for n in range(1, 51):
            alpha, _ = solve(prob, cfg, alpha)
            grad = X.T @ (X @ w - y)
            z = w - tau * grad
            w_next = np.zeros(p)
            for sl in slices:
                nrm = float(np.linalg.norm(z[sl]))
                if nrm > lam * tau:
                    w_next[sl] = z[sl] * ((nrm - lam * tau) / nrm)
            w = w_next
            for g, sl in enumerate(slices):
                implicit = X[:, sl].T @ alpha.alpha[:, g]
                assert np.max(np.abs(implicit - w[sl])) <= 1e-10


class TestTrace:
    def test_stride_records_first_and_last(self):
        prob = group_lasso_instance(4)
        cfg = SolverConfig(tau_factor=0.8, max_iters=100)
        _, trace = solve(prob, cfg)
        assert np.array_equal(trace.iterations, np.arange(1, 101))

    def test_trace_off_still_reports_final_step(self):
        prob = group_lasso_instance(4)
        cfg = SolverConfig(tau_factor=0.8, max_iters=50, record_trace=False)
        _, trace = solve(prob, cfg)
        assert trace.n_recorded == 0
        assert trace.supports.shape == (0, prob.n_groups)
        assert trace.n_groups == prob.n_groups
        assert trace.iters_run == 50
        assert trace.final_step_norm >= 0.0

    def test_support_helpers_decode_masks(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=5)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        assert set(np.flatnonzero(trace.supports[0])) == {0}
        assert np.array_equal(trace.support_sizes(), np.ones(5, dtype=np.int64))
        assert trace.n_groups == 1

    def test_arrays_are_read_only(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=3)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        with pytest.raises(ValueError):
            trace.supports[0] = 0

    @pytest.mark.parametrize("iters, n_records", [
        ([], 2),          # records without events
        ([2], 5),         # an event after the first record
        ([1, 1], 0),      # not increasing
        ([0], 0),         # before the first iteration
        ([1, 6], 0),      # after the last
    ])
    def test_events_must_cover_the_records(self, iters, n_records):
        with pytest.raises(ContractViolation):
            SolveTrace(change_iters=iters,
                       change_supports=np.zeros((len(iters), 2), dtype=bool),
                       objectives=np.zeros(n_records),
                       step_norms=np.zeros(n_records), objective=0.0,
                       iters_run=5, final_step_norm=0.0)

    def test_untraced_run_keeps_its_events_and_objective(self):
        prob = group_lasso_instance(4)
        cfg = SolverConfig(tau_factor=0.8, max_iters=300)
        _, traced = solve(prob, cfg)
        _, untraced = solve(prob, SolverConfig(tau_factor=0.8, max_iters=300,
                                               record_trace=False))
        assert untraced.n_recorded == 0
        assert np.array_equal(untraced.change_iters, traced.change_iters)
        assert np.array_equal(untraced.change_supports,
                              traced.change_supports)
        assert untraced.objective == traced.objective == traced.objectives[-1]

    def test_wide_trace_at_100_groups(self):
        # one scalar group per feature; no group cap applies to traces
        G = 100
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, G))
        y = X[:, [3, 70, 99]] @ np.array([2.0, -1.5, 1.0])
        dataset = Dataset(X, y)
        gram = assemble_gram_blocks(dataset, LinearGroupProjection((1,) * G))
        prob = ProblemInstance(dataset=dataset, gram=gram,
                               lam=0.5 * float(gram.norms(y).max()))
        cfg = SolverConfig(tau_factor=0.8, max_iters=400)
        result = solve_with_reference(prob, cfg)
        trace = result.trace

        rows = trace.supports
        assert rows.shape == (400, G) and rows.dtype == bool
        assert trace.n_groups == G
        assert rows[:, 64:].any()
        for i in (0, 1, trace.n_recorded - 1):
            # the record's support is the change event in force at it
            n = trace.iterations[i]
            k = np.searchsorted(trace.change_iters, n, "right") - 1
            assert set(np.flatnonzero(rows[i])) == set(
                np.flatnonzero(trace.change_supports[k]))
        assert np.array_equal(trace.support_sizes(), rows.sum(axis=1))
        assert set(np.flatnonzero(rows[-1])) == support_of(result.coeffs)

        burn = last_support_change(trace)
        i = int(np.searchsorted(trace.iterations, burn))
        assert (rows[i:] == rows[-1]).all()
        assert burn == 1 or (rows[i - 1] != rows[i]).any()
        report = qualification_check(result.reference, prob)
        assert sandwich_check(trace, report, burn).passed

        out = io.StringIO()
        write_trace_rows(out, 7, trace)
        lines = out.getvalue().splitlines()
        assert len(lines) == trace.n_recorded
        for i, line in enumerate(lines):
            row = json.loads(line)
            assert row["run"] == 7
            assert row["iter"] == int(trace.iterations[i])
            assert row["support"] == [int(g) + 1 for g in np.flatnonzero(rows[i])]
            assert row["objective"] == float(trace.objectives[i])

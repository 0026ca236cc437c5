import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    Dataset,
    DualCoefficients,
    ExperimentConfig,
    GramBlocks,
    ProblemInstance,
    SolverConfig,
    SolveTrace,
    SupportReport,
    certificate_norms,
    generate_instance,
    last_support_change,
    objective,
    qualification_check,
    residual,
    sandwich_check,
    solve,
    solve_with_reference,
    support_of,
)
from sparsemkl import solver as solver_module
from sparsemkl.cli import main
from sparsemkl.oracle import enumerate_solve
from sparsemkl.solver import polish_reference

from _fixtures import coeffs_like, group_lasso_instance


class TestSupportOf:
    def test_zero_coefficients(self):
        assert support_of(DualCoefficients(np.zeros((4, 3)))) == frozenset()

    def test_scalar_example_iterates(self, one_d):
        c = DualCoefficients(np.ones((1, 1)))
        for n in range(1, 31):
            c, _ = solve(one_d, SolverConfig(tau_factor=0.5, max_iters=1), c)
            assert support_of(c) == {0}

    def test_equals_positive_dual_norm_groups(self):
        prob = group_lasso_instance(1)
        cfg = SolverConfig(tau_factor=0.8, max_iters=400)
        coeffs, _ = solve(prob, cfg)
        via_norms = {
            int(g) for g in np.flatnonzero(prob.gram.norms(coeffs.alpha) > 0.0)
        }
        assert support_of(coeffs) == via_norms


class TestCertificatesAndEsupp:
    def test_scalar_example_saturates_at_zero(self, one_d):
        zero = DualCoefficients(np.zeros((1, 1)))
        norms = certificate_norms(zero, one_d)
        assert norms[0] == 1.0
        assert qualification_check(zero, one_d).extended_support == {0}
        assert support_of(zero) == frozenset()

    def test_zero_data_empty_esupp(self, one_d):
        silent = ProblemInstance(
            dataset=Dataset(one_d.dataset.points, np.zeros(1)),
            gram=one_d.gram,
            lam=1.0,
        )
        zero = DualCoefficients(np.zeros((1, 1)))
        assert qualification_check(zero, silent).extended_support == frozenset()

    def test_orthonormal_solution(self, ortho):
        # w = (2, 0): residual (-1, -0.5), certificates (1, 0.5)
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        norms = certificate_norms(c, ortho)
        assert np.allclose(norms, [1.0, 0.5], atol=1e-15)
        assert qualification_check(c, ortho).extended_support == {0}
        assert support_of(c) == {0}

    def test_norms_scale_with_convention(self, ortho):
        c = DualCoefficients(np.zeros((2, 2)))
        per_sample = ProblemInstance(
            dataset=ortho.dataset,
            gram=ortho.gram,
            lam=0.5,
            lam_convention="per-sample",
        )
        raw = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=1.0)
        assert np.allclose(
            certificate_norms(c, per_sample), certificate_norms(c, raw)
        )

    def test_relabeling_equivariance(self, rng):
        prob = group_lasso_instance(9)
        alpha = rng.standard_normal((prob.m, prob.n_groups))
        norms = certificate_norms(DualCoefficients(alpha), prob)

        perm = rng.permutation(prob.n_groups)
        from sparsemkl import GramBlocks

        permuted = ProblemInstance(
            dataset=prob.dataset,
            gram=GramBlocks(
                blocks=prob.gram.dense()[perm],
                lipschitz=prob.gram.lipschitz,
            ),
            lam=prob.lam,
        )
        norms_p = certificate_norms(DualCoefficients(alpha[:, perm]), permuted)
        assert np.allclose(norms_p, norms[perm], atol=1e-12)


class TestQualificationCheck:
    def test_scalar_example_fails_qc_with_zero_margin(self, one_d):
        report = qualification_check(DualCoefficients(np.zeros((1, 1))), one_d)
        assert not report.qc_holds
        assert report.qc_margin == 0.0
        assert report.support == frozenset()
        assert report.extended_support == {0}

    def test_zero_data_holds_with_full_margin(self, one_d):
        silent = ProblemInstance(
            dataset=Dataset(one_d.dataset.points, np.zeros(1)),
            gram=one_d.gram,
            lam=1.0,
        )
        report = qualification_check(DualCoefficients(np.zeros((1, 1))), silent)
        assert report.qc_holds
        assert report.qc_margin == 1.0

    def test_orthonormal_margin(self, ortho):
        c = coeffs_like(ortho, {0: np.array([2.0, 0.0])})
        report = qualification_check(c, ortho)
        assert report.qc_holds
        assert report.qc_margin == pytest.approx(0.5, abs=1e-15)

    def test_qc_iff_supports_coincide(self):
        # over the battery, qc_holds must equal supp == esupp at the
        # same point and tolerance
        for i in range(25):
            prob = group_lasso_instance(i)
            cfg = SolverConfig(tau_factor=0.8, max_iters=50000, stop_tol=1e-12)
            coeffs, _ = solve(prob, cfg)
            report = qualification_check(coeffs, prob)
            assert report.qc_holds == (report.support == report.extended_support)

    def test_support_inside_esupp_at_kkt_points(self):
        for i in (3, 14, 17):
            prob = group_lasso_instance(i)
            cfg = SolverConfig(tau_factor=0.8, max_iters=100000, stop_tol=1e-12)
            coeffs, _ = solve(prob, cfg)
            report = qualification_check(coeffs, prob)
            assert report.support <= report.extended_support


class TestSandwichCheck:
    def test_scalar_example_passes_any_burn_in(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=30)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        reference = qualification_check(DualCoefficients(np.zeros((1, 1))), one_d)
        for burn in (0, 1, 15, 30):
            verdict = sandwich_check(trace, reference, burn)
            assert verdict.passed
            assert bool(verdict)

    def test_zero_solution_trace_passes(self, ortho):
        big = ProblemInstance(dataset=ortho.dataset, gram=ortho.gram, lam=50.0)
        cfg = SolverConfig(tau_factor=0.8, max_iters=20, stop_tol=1e-14)
        coeffs, trace = solve(big, cfg)
        report = qualification_check(coeffs, big)
        assert report.support == frozenset()
        assert report.extended_support == frozenset()
        assert sandwich_check(trace, report, 0).passed

    def test_long_reference_sandwich_on_random_instance(self):
        prob = group_lasso_instance(13)
        cfg = SolverConfig(tau_factor=0.8, max_iters=2000)
        result = solve_with_reference(prob, cfg)
        trace = result.trace
        report = qualification_check(result.reference, prob)
        burn = last_support_change(trace)
        assert sandwich_check(trace, report, burn).passed

    def test_failure_reports_first_bad_iteration(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=10)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        # fabricated reference with empty esupp: the all-ones trace
        # violates the upper inclusion from the first record
        fake = SupportReport(
            support=frozenset(),
            extended_support=frozenset(),
            certificate_norms=np.zeros(1),
            qc_holds=True,
            qc_margin=1.0,
            eps_rel=1e-4,
        )
        verdict = sandwich_check(trace, fake, 4)
        assert not verdict.passed
        assert verdict.first_violation == 4
        assert not bool(verdict)

    def test_burn_in_beyond_trace_rejected(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=10)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        report = qualification_check(DualCoefficients(np.zeros((1, 1))), one_d)
        with pytest.raises(ContractViolation):
            sandwich_check(trace, report, 11)

    def test_untraced_run_checked_on_its_events(self, one_d):
        # an untraced run keeps its support change events, so every
        # iteration >= burn_in is checked as on the traced run
        cfg = SolverConfig(tau_factor=0.5, max_iters=10, record_trace=False)
        start = DualCoefficients(np.ones((1, 1)))
        _, trace = solve(one_d, cfg, alpha0=start)
        _, traced = solve(one_d, dataclasses.replace(cfg, record_trace=True),
                          alpha0=start)
        assert trace.n_recorded == 0
        fake = SupportReport(
            support=frozenset(), extended_support=frozenset(),
            certificate_norms=np.zeros(1), qc_holds=True, qc_margin=1.0,
            eps_rel=1e-4,
        )
        passing = qualification_check(DualCoefficients(np.zeros((1, 1))), one_d)
        for burn in (0, 1, 4, 10):
            for report in (passing, fake):
                assert (sandwich_check(trace, report, burn)
                        == sandwich_check(traced, report, burn))
        assert sandwich_check(trace, fake, 4).first_violation == 4
        with pytest.raises(ContractViolation):
            sandwich_check(trace, passing, 11)
        # a trace with no events cannot be built, so neither check
        # meets one
        with pytest.raises(ContractViolation):
            SolveTrace(
                change_iters=[], change_supports=np.zeros((0, 1), dtype=bool),
                objectives=[], step_norms=[], objective=0.0, iters_run=10,
                final_step_norm=0.0,
            )


class TestBurnInAndReference:
    def test_constant_support_burns_in_at_first_record(self, one_d):
        cfg = SolverConfig(tau_factor=0.5, max_iters=25)
        _, trace = solve(one_d, cfg, alpha0=DualCoefficients(np.ones((1, 1))))
        assert last_support_change(trace) == 1

    def test_burn_in_tracks_latest_flip(self):
        prob = group_lasso_instance(16)
        cfg = SolverConfig(tau_factor=0.8, max_iters=3000)
        _, trace = solve(prob, cfg)
        burn = last_support_change(trace)
        rows = trace.supports
        idx = int(np.searchsorted(trace.iterations, burn))
        assert (rows[idx:] == rows[-1]).all()
        if burn > 1:
            assert (rows[idx - 1] != rows[idx]).any()

    def test_reference_is_converged(self):
        prob = group_lasso_instance(20)
        cfg = SolverConfig(tau_factor=0.8, max_iters=5000)
        ref = solve_with_reference(prob, cfg).reference
        moved, _ = solve(prob, SolverConfig(tau_factor=0.8, max_iters=1), ref)
        d = moved.alpha - ref.alpha
        assert np.linalg.norm(prob.gram.norms(d)) <= 1e-11


def gaussian_preset(index):
    """Gaussian-kernel preset instance `index` (master seed 0)."""
    config = ExperimentConfig.gaussian_kernel_paper(n_instances=8,
                                                    master_seed=0)
    return generate_instance(config, index)[0]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_certified(problem, ref):
    """`polish_reference`'s conditions (i)-(iv), read off `ref` alone."""
    gram, y = problem.gram, problem.dataset.responses
    S = sorted(support_of(ref))
    r = residual(ref, gram, y)
    # (i) each active block is -c_g r with a weight c_g > 0
    for g in S:
        c = -(ref.alpha[:, g] @ r) / (r @ r)
        assert c > 0.0
        assert np.linalg.norm(ref.alpha[:, g] + c * r) <= 1e-9 * abs(c) * (
            np.linalg.norm(r))
    # (ii) every certificate norm off S below 1
    certs = certificate_norms(ref, problem)
    assert (np.delete(certs, S) < 1.0).all()
    # (iii) [K_g r]_{g in S} has full column rank
    assert np.linalg.matrix_rank(gram.apply_each(r)[S].T) == len(S)
    # (iv) the relative duality gap, at -r scaled into the certificate ball
    primal = objective(ref, problem)
    scale = max(1.0, float(certs.max()))
    dual = -(y @ r) / scale - 0.5 * (r @ r) / scale ** 2
    assert primal - dual <= 1e-12 * primal


class TestPolish:
    """References certified by the kernel-weight Newton polish."""

    # Gaussian preset instances (master seed 0) at 300 iterations: the
    # supports and qc margins of their trajectories' limits, which a
    # forward-backward run reaches at a step of 1e-12 in 9544-15725
    # iterations
    LIMITS = {0: ({18}, 0.003439), 1: ({16}, 0.005016),
              2: ({16}, 0.00293), 4: ({12}, 0.003965)}

    @pytest.mark.parametrize("index", sorted(LIMITS))
    def test_agrees_with_a_converged_trajectory(self, index):
        problem = gaussian_preset(index)
        result = solve_with_reference(problem, SolverConfig(max_iters=300))
        ref = result.reference
        assert_certified(problem, ref)
        limit, trace = solve(problem, SolverConfig(
            max_iters=20000, stop_tol=1e-12, record_trace=False))
        assert trace.iters_run < 20000
        polished = qualification_check(ref, problem)
        converged = qualification_check(limit, problem)
        support, margin = self.LIMITS[index]
        assert polished.support == converged.support == support
        assert polished.extended_support == converged.extended_support
        assert abs(polished.qc_margin - converged.qc_margin) <= 1e-9
        assert polished.qc_margin == pytest.approx(margin, abs=1e-6)
        # the production run has not identified its limit yet
        assert support_of(result.coeffs) > support

    def test_matches_the_enumeration_oracle(self):
        # small group-lasso instances, polished from 30 iterations, the
        # zero solutions among them (instances 7 and 24) included
        for i in range(30):
            problem = group_lasso_instance(i)
            coeffs, _ = solve(problem, SolverConfig(max_iters=30,
                                                    record_trace=False))
            ref = polish_reference(problem, coeffs)
            assert ref is not None, i
            assert_certified(problem, ref)
            enum = enumerate_solve(problem)
            assert support_of(ref) == enum.support, i
            assert objective(ref, problem) == pytest.approx(enum.objective,
                                                            rel=1e-10), i

    def test_refuses_where_qc_fails(self, one_d):
        # the scalar example's minimizer is 0 with certificate exactly 1
        # (qc_margin 0): its weight's slack and the weight both go to 0
        for value in (0.0, 0.5 ** 50, 0.5, 1.0):
            start = DualCoefficients(np.full((1, 1), value))
            assert polish_reference(one_d, start) is None

    def test_a_refused_row_keeps_the_forward_backward_reference(self):
        # a duplicated group splits the limit's weight over two equal
        # columns K_g r: rank 1, so the weights are not unique. On dense
        # storage (the Gaussian preset's group 18) the replay from zero
        # runs out its budget; on factored storage (the group-lasso
        # preset's group 0) it reaches a step of 1e-12. The row steps its
        # production run and then the replay
        base = gaussian_preset(0)
        blocks = np.concatenate([base.gram.blocks, base.gram.blocks[18:19]])
        dense = ProblemInstance(base.dataset, GramBlocks(blocks=blocks),
                                base.lam)
        base = generate_instance(ExperimentConfig.group_lasso_paper(
            n_instances=1, master_seed=0), 0)[0]
        X = base.gram.features
        factored = ProblemInstance(base.dataset, GramBlocks(
            features=np.hstack([X, X[:, :5]]),
            group_dims=base.gram.group_dims + (5,)), base.lam)
        for problem, iters, stepped in ((dense, 300, 3000),
                                        (factored, 600, 746)):
            config = SolverConfig(max_iters=iters)
            coeffs, _ = solve(problem, config)
            assert polish_reference(problem, coeffs) is None
            result = solve_with_reference(problem, config)
            tail, trace = solve(problem, SolverConfig(
                max_iters=10 * iters, stop_tol=1e-12, record_trace=False))
            assert trace.iters_run == stepped
            assert same_bits(result.reference.alpha, tail.alpha)
            assert result.stepped == iters + stepped

    def test_a_polished_row_leaves_at_its_production_result(self):
        problems = [gaussian_preset(i) for i in range(4)]
        config = SolverConfig(max_iters=300, record_trace=False)
        results = solve_with_reference(problems, config)
        for problem, result in zip(problems, results):
            assert result.stepped == result.trace.iters_run == 300
            # the same bits alone as in the stack
            alone = solve_with_reference(problem, config)
            assert same_bits(alone.reference.alpha, result.reference.alpha)

    # the benchmark's three workloads at seed 0, as `sparsemkl batch` runs
    # them (group lasso untraced here: the trace changes no result). A
    # row is polished only where its last step is above the settle test
    # of 1e-12, and the steps lie orders of magnitude either side of it
    @pytest.mark.parametrize("argv, certified, steps", [
        (["--preset", "group-lasso-paper", "--instances", "6"], [],
         (0.0, 1e-15)),
        (["--config", str(Path(__file__).resolve().parents[1] / "bench"
                          / "large_m_linear.ini")], [], (0.0, 1e-15)),
        (["--preset", "gaussian-kernel-paper", "--instances", "4",
          "--iters", "300"], [True] * 4, (1e-4, 1e-1)),
    ], ids=["group-lasso-6x5000", "large-m-linear", "gaussian-4x300"])
    def test_the_polish_runs_only_on_unsettled_rows(
            self, polished, capsys, tmp_path, argv, certified, steps):
        assert main(["batch", *argv, "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert polished == certified
        with open(tmp_path / "summary.json", encoding="utf-8") as fh:
            runs = json.load(fh)["per_run"]
        low, high = steps
        assert all(low <= run["final_step_norm"] <= high for run in runs)

    def test_the_polish_is_tried_once_on_the_production_result(
            self, monkeypatch):
        problem = gaussian_preset(1)
        config = SolverConfig(max_iters=300, record_trace=False)
        calls = []

        def spy(problem, coeffs):
            calls.append(coeffs)
            return polish_reference(problem, coeffs)

        monkeypatch.setattr(solver_module, "polish_reference", spy)
        result = solve_with_reference(problem, config)
        assert len(calls) == 1
        assert same_bits(calls[0].alpha, result.coeffs.alpha)
        assert same_bits(result.reference.alpha,
                         polish_reference(problem, result.coeffs).alpha)

"""One trajectory per problem: the solver's exact-cycle exit, and the
reference taken from the production run or replayed from zero.

Both claim bit-identical results, so every comparison here is
bitwise. The oracle is a plain replica of the solver's arithmetic that
runs and records every iteration.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
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
    SolverConfig,
    SupportReport,
    assemble_gram_blocks,
    generate_instance,
    last_support_change,
    run_batch,
    sandwich_check,
    solve,
    solve_with_reference,
)
from sparsemkl.cli import _batch_config, _build_parser
from sparsemkl.experiments import _chunks
from sparsemkl import solver as solver_module

LARGE_M_LINEAR = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                              "bench", "large_m_linear.ini")

# periods of the exact cycles the group-lasso preset (master seed 0)
# falls into within its 5000-iteration budget, by instance; they move
# with the low bits of the arithmetic. Instances 0 and 4 settle on a
# fixed point; 2 and 1 have the periods above 2.
PRESET_PERIODS = {4: 1, 0: 1, 3: 2, 2: 3, 1: 14}


def iterates(problem, config, alpha0=None):
    """Yield every iteration of the solve loop as (n, nu, keep, AT, IM, step).

    IM holds the images of the coefficients that the loop carries,
    K_g alpha_g on dense storage and X_g' alpha_g on factored storage.
    The Gram products go through `gram.image` and `gram.from_images`:
    the replica checks the loop, not the operator.
    """
    gram = problem.gram
    factored = gram.features is not None
    G, m = gram.n_groups, gram.m
    y = problem.dataset.responses
    tau = config.tau_factor / problem.gram.lipschitz
    thr = tau * problem.lam
    AT = np.zeros((G, m))
    if alpha0 is None:
        IM = np.zeros(gram.image(AT).shape)
    else:
        AT = np.ascontiguousarray(alpha0.alpha.T)
        IM = gram.image(AT)
    for n in range(1, config.max_iters + 1):
        r = gram.from_images(IM) - y
        B = AT - tau * r
        IB = IM - tau * gram.image(r)
        # a kernel norm is ||X_g' b_g|| on factored storage, and
        # sqrt(b_g' K_g b_g) on dense
        nu = np.sqrt(np.maximum(
            np.einsum("gi,gi->g", IB if factored else B, IB), 0.0))
        keep = nu > thr
        gamma = np.where(keep, (nu - thr) / np.where(keep, nu, 1.0), 0.0)
        AT_new = gamma[:, None] * B
        IM_new = gamma[:, None] * IB
        dIM = IM_new - IM
        # per group, then over the groups, on either storage
        step_sq = float(np.einsum("gi,gi->g", dIM if factored else AT_new - AT,
                                  dIM).sum())
        AT, IM = AT_new, IM_new
        yield n, nu, keep, AT, IM, float(np.sqrt(max(step_sq, 0.0)))


def replica(problem, config, alpha0=None):
    """Every iteration and its record, without shortcuts."""
    y = problem.dataset.responses
    lam = problem.lam
    thr = config.tau_factor / problem.gram.lipschitz * lam
    rows = []
    for n, nu, keep, AT, IM, step in iterates(problem, config, alpha0):
        stop = config.stop_tol > 0.0 and step <= config.stop_tol
        if config.record_trace:
            r_new = problem.gram.from_images(IM) - y
            obj = float(lam * (nu[keep] - thr).sum() + 0.5 * (r_new @ r_new))
            rows.append((n, keep, obj, step))
        if stop:
            break
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    return {
        "alpha": np.ascontiguousarray(AT.T),
        "iterations": np.array(cols[0], dtype=np.int64),
        "supports": np.array(cols[1], dtype=bool).reshape(-1, problem.n_groups),
        "objectives": np.array(cols[2], dtype=np.float64),
        "step_norms": np.array(cols[3], dtype=np.float64),
        "iters_run": n,
        "final_step_norm": step,
    }


def solve_stack(problems, config, starts=None):
    """The stacked loop's (coeffs, traces), one entry per problem, without
    the references that `solve_with_reference` takes after it."""
    runs = solver_module._solve_stack(problems, config,
                                      starts or [None] * len(problems))
    return tuple(zip(*(run[:2] for run in runs)))


def first_repeat(problem, config):
    """(first iteration of the cycle, period) of a zero-start trajectory."""
    seen = {}
    for n, _, _, AT, IM, _ in iterates(problem, config):
        key = AT.tobytes() + IM.tobytes()
        if key in seen:
            return seen[key], n - seen[key]
        seen[key] = n
    return None


def first_image_repeat(problem, config):
    """(first iteration of the image cycle, period) of a zero-start
    trajectory. On factored storage the images are the whole state, and
    they can repeat long before the coefficients do."""
    seen = {}
    for n, _, _, _, IM, _ in iterates(problem, config):
        key = IM.tobytes()
        if key in seen:
            return seen[key], n - seen[key]
        seen[key] = n
    return None


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_replica(coeffs, trace, expected):
    assert same_bits(coeffs.alpha, expected["alpha"])
    for name in ("iterations", "supports", "objectives", "step_norms"):
        assert same_bits(getattr(trace, name), expected[name]), name
    assert trace.iters_run == expected["iters_run"]
    assert same_bits(trace.final_step_norm, expected["final_step_norm"])


def large_m_linear(seed=0):
    """Instance 0 of `bench/large_m_linear.ini` (factored, m = 800, G = 20)
    at a master seed, and the file's budget."""
    args = _build_parser().parse_args(
        ["batch", "--config", LARGE_M_LINEAR, "--seed", str(seed)])
    config = _batch_config(args)
    return generate_instance(config, 0)[0], config.iters


def preset_instance(index):
    config = ExperimentConfig.group_lasso_paper(n_instances=8, master_seed=0)
    problem, _ = generate_instance(config, index)
    return problem


def dense_copy(problem):
    """`problem` with its Gram blocks on dense storage."""
    gram = problem.gram
    return dataclasses.replace(problem, gram=GramBlocks(
        blocks=gram.dense(), lipschitz=gram.lipschitz))


@pytest.fixture(scope="module")
def preset_problems():
    return {i: preset_instance(i) for i in PRESET_PERIODS}


@pytest.fixture
def binds(monkeypatch):
    """The row count of each stack a Gram product is bound for."""
    calls = []
    original = solver_module.bind_stack

    def spy(grams, Y, R, out):
        calls.append(R.shape[0])
        return original(grams, Y, R, out)

    monkeypatch.setattr(solver_module, "bind_stack", spy)
    return calls


@pytest.fixture
def products(monkeypatch):
    """The stack's row count at each call of a bound Gram product: the
    rows the loop steps in that iteration."""
    calls = []
    original = solver_module.bind_stack

    def spy(grams, Y, R, out):
        product = original(grams, Y, R, out)

        def counted(images):
            calls.append(R.shape[0])
            return product(images)
        return counted

    monkeypatch.setattr(solver_module, "bind_stack", spy)
    return calls


@pytest.fixture
def unpolished(monkeypatch):
    """References without the polish: it refuses every row, so each
    reference is a settled production result or a replay from zero."""
    monkeypatch.setattr(solver_module, "polish_reference",
                        lambda problem, coeffs: None)


@pytest.fixture
def repeats(monkeypatch):
    """Count the bitwise state compares that found a repeat."""
    hits = []
    original = solver_module._same_bits

    def spy(a, b):
        found = original(a, b)
        hits.append(found)
        return found

    monkeypatch.setattr(solver_module, "_same_bits", spy)
    return hits


class TestCycleExit:
    @pytest.mark.parametrize("index", sorted(PRESET_PERIODS))
    def test_preset_instances_enter_the_expected_cycles(self, preset_problems,
                                                        index):
        found = first_repeat(preset_problems[index], SolverConfig(max_iters=5000))
        assert found is not None
        start, period = found
        assert period == PRESET_PERIODS[index]
        assert start < 2500

    # 4999 and 5000 give consecutive remaining budgets, so every
    # period above 1 gets a remainder that is not 0 from one of them
    @pytest.mark.parametrize("max_iters", [4999, 5000])
    @pytest.mark.parametrize("index", sorted(PRESET_PERIODS))
    def test_matches_every_iteration(self, preset_problems, repeats, index,
                                     max_iters):
        problem = preset_problems[index]
        config = SolverConfig(max_iters=max_iters)
        coeffs, trace = solve(problem, config)
        assert any(repeats), "the cycle exit did not fire"
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_short_budget_after_detection(self, preset_problems):
        # budgets that end right at, or just after, the first repeats
        problem = preset_problems[2]
        start, period = first_repeat(problem, SolverConfig(max_iters=5000))
        for max_iters in (start + period, start + 2 * period + 1,
                          start + 3 * period - 1):
            config = SolverConfig(max_iters=max_iters)
            coeffs, trace = solve(problem, config)
            assert_matches_replica(coeffs, trace, replica(problem, config))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_every_remainder_of_the_period(self, preset_problems, repeats,
                                           index):
        # period + 1 consecutive budgets, all past the first repeat, put
        # the remainder after the last skipped period at every value, 0
        # included
        problem = preset_problems[index]
        period = PRESET_PERIODS[index]
        for max_iters in range(5000 - period, 5001):
            repeats.clear()
            config = SolverConfig(max_iters=max_iters)
            coeffs, trace = solve(problem, config)
            assert any(repeats), "the cycle exit did not fire"
            assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_untraced_run(self, preset_problems, repeats):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=5000, record_trace=False)
        coeffs, trace = solve(problem, config)
        assert any(repeats)
        assert trace.n_recorded == 0
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_stop_tol_run(self, preset_problems):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=5000, stop_tol=1e-9)
        coeffs, trace = solve(problem, config)
        assert trace.iters_run < 5000
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_warm_start(self, preset_problems, repeats):
        problem = preset_problems[2]
        warm, _ = solve(problem, SolverConfig(max_iters=40, record_trace=False))
        config = SolverConfig(max_iters=5000)
        coeffs, trace = solve(problem, config, alpha0=warm)
        assert any(repeats)
        assert_matches_replica(coeffs, trace, replica(problem, config, warm))


def boundary_problem(seed):
    """A problem whose exact cycle changes support inside its period.

    One scalar group per feature and a weight one ulp below the largest
    certificate norm of the data: the solution is zero with a group at
    the boundary of the support, which rounding turns on and off.
    """
    rng = np.random.default_rng(seed)
    m, G = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    X = rng.standard_normal((m, G))
    y = rng.standard_normal(m)
    gram = assemble_gram_blocks(Dataset(X, np.zeros(m)),
                                LinearGroupProjection((1,) * G))
    lam = float(gram.norms(y).max()) * (1.0 - 2.0**-52)
    return ProblemInstance(dataset=Dataset(X, y), gram=gram, lam=lam)


def sandwich_of_rows(iterations, rows, report, burn_in):
    """The sandwich verdict read off every iteration's support row."""
    G = rows.shape[1]
    lo = np.isin(np.arange(G), sorted(report.support))
    hi = np.isin(np.arange(G), sorted(report.extended_support))
    sel = iterations >= burn_in
    bad = ~((rows[sel] >= lo).all(axis=1) & (rows[sel] <= hi).all(axis=1))
    return None if not bad.any() else int(iterations[sel][bad][0])


class TestCycleWithSupportChanges:
    """Exact cycles whose support changes inside the period.

    No preset run has one, so `boundary_problem` builds them. From zero
    the state after iteration 1 comes back every period, and the
    supports over a period are, by seed: 11 on, on, off (period 3; the
    one the exit finds, iterations 65-67, runs on, off, on, so the
    support at its start equals the one at its end); 8 on, off (period
    2, they differ); 0 {1}, {} over two groups (period 2).
    """

    CASES = {11: (1.5, 3), 8: (1.2, 2), 0: (1.75, 2)}

    @pytest.mark.parametrize("seed", sorted(CASES))
    def test_events_match_the_full_budget_replay(self, repeats, seed):
        tau_factor, period = self.CASES[seed]
        problem = boundary_problem(seed)
        G = problem.n_groups
        assert first_repeat(problem, SolverConfig(tau_factor=tau_factor,
                                                  max_iters=50)) == (1, period)
        reports = [
            SupportReport(support=supp, extended_support=esupp,
                          certificate_norms=np.zeros(G), qc_holds=True,
                          qc_margin=1.0, eps_rel=1e-4)
            for supp, esupp in ((frozenset(), frozenset(range(G))),
                                (frozenset(), frozenset()),
                                (frozenset({G - 1}), frozenset(range(G))))
        ]
        # every remainder after the last skipped period
        for max_iters in range(200, 201 + period):
            config = SolverConfig(tau_factor=tau_factor, max_iters=max_iters)
            repeats.clear()
            coeffs, trace = solve(problem, config)
            assert any(repeats), "the cycle exit did not fire"
            expected = replica(problem, config)
            assert_matches_replica(coeffs, trace, expected)
            rows, its = expected["supports"], expected["iterations"]
            changes = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 2
            assert same_bits(trace.change_iters,
                             np.concatenate([[1], changes]))
            assert last_support_change(trace) == int(changes[-1])
            _, untraced = solve(problem, dataclasses.replace(
                config, record_trace=False))
            assert untraced.n_recorded == 0
            for name in ("change_iters", "change_supports"):
                assert same_bits(getattr(untraced, name),
                                 getattr(trace, name)), name
            for report in reports:
                for burn in (0, 1, 2, 100, max_iters):
                    want = sandwich_of_rows(its, rows, report, burn)
                    for t in (trace, untraced):
                        verdict = sandwich_check(t, report, burn)
                        assert verdict.first_violation == want
                        assert verdict.passed == (want is None)

    def test_constant_support_periods_add_no_events(self, preset_problems):
        # the preset cycles keep their support, so a run's events end
        # before its cycle does, whatever the budget
        for problem in preset_problems.values():
            _, short = solve(problem, SolverConfig(max_iters=4999))
            _, long = solve(problem, SolverConfig(max_iters=50000))
            assert same_bits(short.change_iters, long.change_iters)
            assert short.change_iters.size < 30


class TestImageCycleExit:
    """Factored rows exit once their images repeat.

    On factored storage the residual, the kernel norms and the step norm
    are read off the images alone, so a row's cycle check compares its
    images and step norm, and a zero step from unchanged images is a
    fixed point, found at once. The coefficients need not repeat with
    them: the row records one period of the factors ``(gamma, tau r)``
    that step AT, and AT is advanced over the skipped periods by the
    loop's own two ops. In every case here the images repeat before the
    coefficients do, and the run is compared bit for bit with the
    replica.
    """

    @pytest.fixture(scope="class")
    def large_m(self):
        return large_m_linear()

    def test_large_m_linear_images_settle_first(self, large_m):
        # a fixed point of the images more than 100 iterations before
        # the budget, while the coefficients still change at its last
        # iteration
        problem, iters = large_m
        start, period = first_image_repeat(problem,
                                           SolverConfig(max_iters=iters))
        assert period == 1 and start + period < iters - 100
        last = [replica(problem, SolverConfig(max_iters=n))["alpha"]
                for n in (iters - 1, iters)]
        assert not same_bits(*last)

    @pytest.mark.parametrize("max_iters", [199, 200, 1000])
    def test_large_m_linear(self, large_m, products, max_iters):
        problem, _ = large_m
        config = SolverConfig(max_iters=max_iters)
        coeffs, trace = solve(problem, config)
        assert len(products) < max_iters - 100
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_large_m_linear_steps_to_its_image_fixed_point(self, large_m,
                                                           products):
        # the fixed point is found at its first iteration, whose factors
        # step AT at every later one, and the budget's own is computed
        problem, iters = large_m
        config = SolverConfig(max_iters=iters)
        start, period = first_image_repeat(problem, config)
        assert period == 1
        solve(problem, config)
        assert len(products) <= start + period + 1 < iters

    @pytest.mark.parametrize("index", [0, 1, 7])
    def test_every_remainder_of_the_period(self, products, index):
        # period + 1 consecutive budgets from the first that the images'
        # cycle surely leaves a period to skip, all before the
        # coefficients repeat, put the remainder at every value
        problem = preset_instance(index)
        config = SolverConfig(max_iters=5000)
        start, period = first_image_repeat(problem, config)
        base = start + solver_module._CYCLE_WINDOW + 3 * period
        assert base + period < first_repeat(problem, config)[0]
        for max_iters in range(base, base + period + 1):
            products.clear()
            config = SolverConfig(max_iters=max_iters)
            coeffs, trace = solve(problem, config)
            assert len(products) < max_iters
            assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_untraced_run(self, large_m, products):
        problem, iters = large_m
        config = SolverConfig(max_iters=iters, record_trace=False)
        coeffs, trace = solve(problem, config)
        assert len(products) < iters and trace.n_recorded == 0
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_warm_start(self, large_m, products):
        problem, iters = large_m
        warm, _ = solve(problem, SolverConfig(max_iters=40,
                                              record_trace=False))
        products.clear()
        config = SolverConfig(max_iters=iters)
        coeffs, trace = solve(problem, config, alpha0=warm)
        assert len(products) < iters
        assert_matches_replica(coeffs, trace, replica(problem, config, warm))

    def test_stop_tol_run(self, large_m, products):
        # the first zero step ends the large-m run before its exit would;
        # preset instance 1's period-14 cycle has no step below the stop,
        # so there the exit fires under an active stop rule
        problem, iters = large_m
        config = SolverConfig(max_iters=iters, stop_tol=1e-300)
        start, period = first_image_repeat(problem, config)
        coeffs, trace = solve(problem, config)
        assert trace.iters_run == len(products) == start + period
        assert_matches_replica(coeffs, trace, replica(problem, config))
        problem = preset_instance(1)
        start, period = first_image_repeat(problem,
                                           SolverConfig(max_iters=5000))
        max_iters = start + solver_module._CYCLE_WINDOW + 3 * period
        config = SolverConfig(max_iters=max_iters, stop_tol=1e-300)
        products.clear()
        coeffs, trace = solve(problem, config)
        assert trace.iters_run == max_iters > len(products)
        assert (trace.step_norms[-period:] > 1e-300).all()
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_support_changes_inside_the_period(self, products):
        # boundary_problem(11) with a point of zero features and response
        # appended: its images cycle on, on, off from the zero start, as
        # the problem's own do. Coefficients that start at 1 on that
        # point keep their images at 0, and keep it past the first two
        # steps, times the factors that scale the group, until the
        # group's first off resets it: the coefficients cycle from
        # iteration 3
        tau_factor, period = TestCycleWithSupportChanges.CASES[11]
        base = boundary_problem(11)
        m, G = base.m, base.n_groups
        X = np.vstack([base.dataset.points, np.zeros((1, G))])
        gram = assemble_gram_blocks(Dataset(X, np.zeros(m + 1)),
                                    LinearGroupProjection((1,) * G))
        problem = ProblemInstance(
            dataset=Dataset(X, np.append(base.dataset.responses, 0.0)),
            gram=gram, lam=base.lam)
        alpha = np.zeros((m + 1, G))
        alpha[m] = 1.0
        start = DualCoefficients(alpha)
        states = list(iterates(problem, SolverConfig(
            tau_factor=tau_factor, max_iters=3 + period), start))
        # (n, nu, keep, AT, IM, step) at iterations 1 to 3 + period
        assert [bool(s[2].any()) for s in states[:period]] == [True, True,
                                                              False]
        for k in range(period):
            assert same_bits(states[k][4], states[k + period][4])
            assert same_bits(states[k][3], states[k + period][3]) == (k == 2)
        for max_iters in range(200, 201 + period):
            products.clear()
            config = SolverConfig(tau_factor=tau_factor, max_iters=max_iters)
            coeffs, trace = solve(problem, config, alpha0=start)
            assert len(products) < max_iters
            assert_matches_replica(coeffs, trace,
                                   replica(problem, config, start))

    def test_dense_rows_compare_their_coefficients_too(self, monkeypatch):
        # a dense row's kernel norms pair B with its images, so AT is
        # part of its state: its one checkpoint holds AT and the images,
        # and the compare that finds the repeat reads both. The same
        # problem on factored storage checkpoints its images alone
        rows, compared = [], []

        class Row(solver_module._Row):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                rows.append(self)

        original = solver_module._same_bits

        def spy(a, b):
            compared.append(b)
            return original(a, b)

        monkeypatch.setattr(solver_module, "_Row", Row)
        monkeypatch.setattr(solver_module, "_same_bits", spy)
        tau_factor, _ = TestCycleWithSupportChanges.CASES[8]
        problem = boundary_problem(8)
        config = SolverConfig(tau_factor=tau_factor, max_iters=200)
        for p, factored in ((problem, True), (dense_copy(problem), False)):
            rows.clear()
            compared.clear()
            coeffs, trace = solve(p, config)
            [row] = rows
            assert row.span is not None, "the cycle exit did not fire"
            # the state at the checkpoint's iteration
            *_, AT, IM, _ = list(iterates(p, dataclasses.replace(
                config, max_iters=row.ck_n)))[-1]
            state = [IM] if factored else [AT, IM]
            assert len(row.ck) == len(state)
            for ck, expected in zip(row.ck, state):
                assert same_bits(ck, expected)
                assert any(b is ck for b in compared)
            assert_matches_replica(coeffs, trace, replica(p, config))


class TestDenseCycleExit:
    """Dense rows take the factored rows' exit: their state is AT and its
    images, a fixed point of it is found at once, and on a repeat the
    row records one period of ``(gamma, tau r)`` before the jump.

    Group-lasso preset instances (master seed 0) on dense storage, whose
    arithmetic is not the factored rows': 1, 3 and 7 reach a fixed point
    within 5000 iterations, and 0, 4 and 5 cycles of periods 2, 5 and 3.
    The periods move with the low bits of the instances: under
    OpenBLAS's Haswell kernels 4 and 5 reach fixed points too.
    """

    @pytest.fixture(scope="class")
    def problems(self):
        return {i: dense_copy(preset_instance(i)) for i in (0, 1, 3, 4, 5, 7)}

    @pytest.mark.parametrize("index", [1, 3, 7])
    def test_a_fixed_point_costs_two_products_past_its_start(self, problems,
                                                             products, index):
        # the zero step into the repeated state finds it, and the
        # budget's own iteration is computed
        problem = problems[index]
        config = SolverConfig(max_iters=5000)
        start, period = first_repeat(problem, config)
        assert period == 1
        coeffs, trace = solve(problem, config)
        assert len(products) == start + 2
        assert_matches_replica(coeffs, trace, replica(problem, config))

    @pytest.mark.parametrize("index", [0, 4, 5])
    def test_every_remainder_of_the_period(self, problems, products, index):
        # period + 1 consecutive budgets that leave a period to skip after
        # the exit records one: AT is advanced by the recorded period,
        # which finds it repeated, and the remainder takes every value
        problem = problems[index]
        start, period = first_repeat(problem, SolverConfig(max_iters=5000))
        base = start + solver_module._CYCLE_WINDOW + 3 * period
        for max_iters in range(base, base + period + 1):
            products.clear()
            config = SolverConfig(max_iters=max_iters)
            coeffs, trace = solve(problem, config)
            assert len(products) < max_iters
            assert_matches_replica(coeffs, trace, replica(problem, config))


class TestEarlyCycleExit:
    """The cycle checkpoint ends a cycling row soon after its cycle starts.

    Each group-lasso preset instance 0-7 (master seed 0) is solved alone
    at its 5000-iteration budget, and the Gram products its row computes
    are counted: one per computed iteration.
    """

    @pytest.mark.parametrize("index", range(8))
    def test_exit_follows_the_cycle_start(self, products, index):
        # the rows are factored, so the exit follows their images: found
        # within a window and a period of the images' cycle start, then
        # the rest of a period to record the factors that step AT, and
        # at most one period left over after the jump
        problem = preset_instance(index)
        config = SolverConfig(max_iters=5000)
        start, period = first_image_repeat(problem, config)
        coeffs, trace = solve(problem, config)
        assert set(products) == {1}
        assert len(products) <= start + solver_module._CYCLE_WINDOW + 3 * period
        assert_matches_replica(coeffs, trace, replica(problem, config))

    def test_a_row_that_never_repeats_never_arms(self, products):
        # the Gaussian preset's step norms still fall at 3000 iterations
        config = ExperimentConfig.gaussian_kernel_paper(n_instances=8,
                                                        master_seed=0)
        problems = [generate_instance(config, i)[0] for i in range(8)]
        _, traces = solve_stack(problems, SolverConfig(max_iters=3000))
        assert {t.iters_run for t in traces} == {3000}
        assert products == [8] * 3000

    def test_a_stack_binds_once_and_again_as_rows_leave(self, binds):
        # instances 0-5 leave the stack at six different iterations: one
        # bind for the stack, then one each time rows leave and some remain
        solve_stack([preset_instance(i) for i in range(6)],
                    SolverConfig(max_iters=5000))
        assert binds == [6, 5, 4, 3, 2, 1]

    def test_the_window_bounds_the_periods_found(self, monkeypatch, products,
                                                 repeats):
        # a period-3 cycle from iteration 1: checkpoints 2 iterations
        # apart never see it repeat, 64 apart they do
        tau_factor, period = TestCycleWithSupportChanges.CASES[11]
        assert 2 < period <= solver_module._CYCLE_WINDOW
        problem = boundary_problem(11)
        config = SolverConfig(tau_factor=tau_factor, max_iters=200)
        expected = replica(problem, config)
        for window, found in ((2, False), (solver_module._CYCLE_WINDOW, True)):
            monkeypatch.setattr(solver_module, "_CYCLE_WINDOW", window)
            products.clear()
            repeats.clear()
            coeffs, trace = solve(problem, config)
            assert any(repeats) == found
            assert (len(products) < 200) == found
            assert_matches_replica(coeffs, trace, expected)

    def test_a_found_cycle_carries_into_the_reference(self, monkeypatch,
                                                      products, unpolished):
        # with no reference stop, instance 2's reference is a replay from
        # zero to its 50000-iteration budget. The replay finds the
        # period-3 cycle where the production run found it and skips its
        # periods to the later budget: the two compute the same
        # iterations, give or take one period's leftover
        monkeypatch.setattr(solver_module, "REFERENCE_STOP_TOL", 0.0)
        problem, period = preset_instance(2), PRESET_PERIODS[2]
        config = SolverConfig(max_iters=5000)
        _, trace = solve(problem, config)
        alone = len(products)
        # found before the budget, and no step in the cycle is 0
        assert alone < 5000 and (trace.step_norms[-period:] > 0.0).all()
        products.clear()
        ref = solve_with_reference(problem, config).reference
        replayed = len(products) - alone
        assert set(products) == {1} and abs(replayed - alone) < period
        full, _ = solve(problem, SolverConfig(max_iters=50000,
                                              record_trace=False))
        assert same_bits(ref.alpha, full.alpha)


class TestTraceMemory:
    @staticmethod
    def traced_peak(problem, config):
        """tracemalloc peak of one solve, after a warm-up solve."""
        solve(problem, config)
        tracemalloc.start()
        try:
            _, trace = solve(problem, config)
            return tracemalloc.get_traced_memory()[1], trace
        finally:
            tracemalloc.stop()

    def test_peak_is_near_the_finished_arrays(self, preset_problems):
        peak, trace = self.traced_peak(preset_problems[0],
                                       SolverConfig(max_iters=5000))
        kept = sum(getattr(trace, name).nbytes for name in
                   ("iterations", "supports", "objectives", "step_norms"))
        assert trace.n_recorded == 5000
        assert peak <= 2.5 * kept

    def test_untraced_run_holds_no_per_iteration_arrays(self,
                                                         preset_problems):
        # what a batch instance's untraced solve leaves behind, at two
        # budgets ten times apart. At 3000 iterations the run has settled
        # and is its own reference, where at 300 the polish makes a
        # second (G, m) array; that one is counted at both budgets
        problem = preset_problems[0]
        G, m = problem.n_groups, problem.m
        held = []
        for iters, settled in ((300, False), (3000, True)):
            config = SolverConfig(max_iters=iters, record_trace=False)
            solve_with_reference(problem, config)
            tracemalloc.start()
            try:
                out = solve_with_reference(problem, config)
                held.append(tracemalloc.get_traced_memory()[0]
                            + settled * out.reference.alpha.nbytes)
            finally:
                tracemalloc.stop()
            assert out.trace.n_recorded == 0 and out.trace.iters_run == iters
            assert (out.reference is out.coeffs) == settled
            del out
        assert abs(held[1] - held[0]) < 8 * G * m

    def test_buffers_grow_with_the_iterations_run(self, preset_problems):
        # a full-budget reservation would take tens of megabytes here
        peak, trace = self.traced_peak(
            preset_problems[0],
            SolverConfig(max_iters=2_000_000, stop_tol=1e-9),
        )
        assert trace.iters_run < 5000
        assert peak < 1_000_000


class TestContinuation:
    def test_trace_of_another_problem_is_rejected(self, preset_problems):
        # a trace holds records only, so no trace is a start, not even
        # one of the same problem
        _, trace = solve(preset_problems[0], SolverConfig(max_iters=5))
        for problem in (preset_problems[4], preset_problems[0]):
            with pytest.raises(ContractViolation):
                solve(problem, SolverConfig(max_iters=10), alpha0=trace)

    def test_pickled_trace_keeps_records_but_not_state(self, preset_problems):
        problem = preset_problems[0]
        _, trace = solve(problem, SolverConfig(max_iters=50))
        copy = pickle.loads(pickle.dumps(trace))
        for name in ("iterations", "supports", "change_iters",
                     "change_supports", "objectives", "step_norms"):
            assert same_bits(getattr(copy, name), getattr(trace, name)), name
        assert set(vars(copy)) == {"change_iters", "change_supports",
                                   "objectives", "step_norms", "objective",
                                   "iters_run", "final_step_norm"}


def replay(problem, n, tau_factor=0.8):
    """The reference's replay from zero: 10x the budget n, stop at 1e-12."""
    config = SolverConfig(tau_factor=tau_factor, max_iters=10 * n,
                          stop_tol=1e-12, record_trace=False)
    return solve(problem, config)[0]


@pytest.mark.usefixtures("unpolished")
class TestContinuingReference:
    """With the polish refusing, a reference is the production result
    where its last step has settled, and otherwise the trajectory
    continued: a replay from zero, in a second call of the loop."""

    @pytest.fixture
    def loops(self, monkeypatch):
        """The stacks entering the stacked loop, as their row counts."""
        calls = []
        original = solver_module._solve_stack

        def spy(problems, *args, **kwargs):
            calls.append(len(problems))
            return original(problems, *args, **kwargs)

        monkeypatch.setattr(solver_module, "_solve_stack", spy)
        return calls

    def test_settled_production_run_is_reused(self, preset_problems, loops):
        # instance 4 ends on a fixed point: its result is its reference,
        # the same object, and nothing is replayed
        problem = preset_problems[4]
        config = SolverConfig(max_iters=5000)
        result = solve_with_reference(problem, config)
        trace = result.trace
        assert loops == [1]
        assert trace.iters_run == 5000 and trace.final_step_norm <= 1e-12
        assert result.reference is result.coeffs

    def test_unsettled_production_run_is_continued(self, loops):
        config = ExperimentConfig.gaussian_kernel_paper(
            n_instances=1, master_seed=0, iters=300,
        )
        problem, _ = generate_instance(config, 0)
        solver_cfg = SolverConfig(max_iters=300)
        result = solve_with_reference(problem, solver_cfg)
        assert loops == [1, 1]
        assert result.trace.final_step_norm > 1e-12
        assert same_bits(result.reference.alpha, replay(problem, 300).alpha)
        # the production run is untouched by the replay after it
        alone, alone_trace = solve(problem, solver_cfg)
        assert same_bits(result.coeffs.alpha, alone.alpha)
        for name in ("iterations", "supports", "objectives", "step_norms"):
            assert same_bits(getattr(result.trace, name),
                             getattr(alone_trace, name)), name

    def test_run_stopped_on_stop_tol_is_continued(self, preset_problems,
                                                  loops):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=5000, stop_tol=1e-9)
        result = solve_with_reference(problem, config)
        trace = result.trace
        assert loops == [1, 1]
        assert trace.iters_run < 5000 and trace.final_step_norm > 1e-12
        assert same_bits(result.reference.alpha, replay(problem, 5000).alpha)

    def test_reference_runs_at_the_configured_tau_factor(self,
                                                         preset_problems):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=500, tau_factor=0.5)
        ref = solve_with_reference(problem, config).reference
        assert same_bits(ref.alpha, replay(problem, 500, 0.5).alpha)
        assert not same_bits(ref.alpha, replay(problem, 500).alpha)

    def test_one_loop_per_batch_chunk(self, loops):
        # the Gaussian Gram stacks split 8 instances into two chunks. Each
        # chunk is one stack, and its refused rows are replayed as one
        # more, not one by one
        config = ExperimentConfig.gaussian_kernel_paper(
            n_instances=8, master_seed=0, iters=300,
        )
        run_batch(config, keep_traces=False)
        assert loops == [len(chunk) for chunk in _chunks(config, 1)
                         for _ in range(2)] == [4, 4, 4, 4]


@pytest.mark.usefixtures("unpolished")
class TestStackedRows:
    """A row's results do not depend on the stack it is solved in.

    Group-lasso preset instances 0-7 (master seed 0) are solved alone,
    in stacks of 3 and in one shuffled stack of 8, and every row is
    compared bit for bit with the replica. Their exact cycles have
    periods {0: 1, 1: 14, 2: 3, 3: 2, 4: 1, 5: 1, 6: 6, 7: 2}, so rows
    leave the stack at different iterations. The polish refuses, so that
    every reference is either a settled production result or a replay
    from zero, and its replica checks the stack's bits;
    `tests/test_support.py` stacks polished rows.
    """

    SHUFFLED = [5, 2, 7, 0, 3, 6, 1, 4]
    STACKS = [SHUFFLED[:3], SHUFFLED[3:6], SHUFFLED[5:], SHUFFLED]

    @pytest.fixture(scope="class")
    def problems(self):
        return [preset_instance(i) for i in range(8)]

    @staticmethod
    def reference_replica(problem, config, expected):
        """The reference of a row whose replica is `expected`."""
        if expected["final_step_norm"] <= solver_module.REFERENCE_STOP_TOL:
            return expected["alpha"]
        ref_cfg = SolverConfig(
            tau_factor=config.tau_factor,
            max_iters=config.max_iters * solver_module.REFERENCE_BUDGET_FACTOR,
            stop_tol=solver_module.REFERENCE_STOP_TOL, record_trace=False,
        )
        return replica(problem, ref_cfg)["alpha"]

    def check_stacks(self, problems, config):
        expected = [replica(p, config) for p in problems]
        references = [self.reference_replica(p, config, e)
                      for p, e in zip(problems, expected)]
        runs = []
        for i, problem in enumerate(problems):
            result = solve_with_reference(problem, config)
            runs.append(([i], [(result.coeffs, result.trace)],
                         [result.reference]))
        for stack in self.STACKS:
            rows = [problems[i] for i in stack]
            results = solve_with_reference(rows, config)
            runs.append((stack, [(r.coeffs, r.trace) for r in results],
                         [r.reference for r in results]))
            # without the references
            runs.append((stack, list(zip(*solve_stack(rows, config))), None))
        for stack, outs, refs in runs:
            assert len(outs) == len(stack)
            for k, (i, (c, t)) in enumerate(zip(stack, outs)):
                assert_matches_replica(c, t, expected[i])
                if refs is not None:
                    assert same_bits(refs[k].alpha, references[i]), i
        return [t for _, [(_, t)], _ in runs[:len(problems)]]

    def test_full_budget(self, problems):
        traces = self.check_stacks(problems, SolverConfig(max_iters=5000))
        assert {t.iters_run for t in traces} == {5000}

    def test_rows_that_stop_early_leave_the_others_running(self, problems):
        traces = self.check_stacks(
            problems, SolverConfig(max_iters=5000, stop_tol=1e-9),
        )
        stops = [t.iters_run for t in traces]
        assert max(stops) < 5000 and len(set(stops)) == len(stops)

    def test_settled_references_beside_continued_ones(self, problems):
        # at 600 iterations instances 1, 4, 5, 6 and 7 end at a step of
        # at most 1e-12 and are their own references; 0, 2 and 3 are
        # replayed, as one stack after the production one
        config = SolverConfig(max_iters=600)
        traces = self.check_stacks(problems, config)
        settled = [t.final_step_norm <= 1e-12 for t in traces]
        assert settled == [False, True, False, False, True, True, True, True]

    def test_rows_can_start_anywhere(self, problems):
        # warm starts beside zero starts, each row bit-identical to its
        # replica from its own start
        config = SolverConfig(max_iters=2000)
        warm = [solve(p, SolverConfig(max_iters=n, record_trace=False))[0]
                for p, n in ((problems[2], 40), (problems[4], 7))]
        rows = problems[1:5]
        starts = [None, warm[0], None, warm[1]]
        coeffs, traces = solve_stack(rows, config, starts)
        for problem, start, c, t in zip(rows, starts, coeffs, traces):
            assert_matches_replica(c, t, replica(problem, config, start))

    def test_dense_rows_in_one_stack(self):
        # Gaussian (dense Gram) rows; neither reaches the stop within
        # the budget
        config = ExperimentConfig.gaussian_kernel_paper(n_instances=2,
                                                        master_seed=0)
        rows = [generate_instance(config, i)[0] for i in range(2)]
        solver_cfg = SolverConfig(max_iters=600, stop_tol=1e-8)
        coeffs, traces = solve_stack(rows, solver_cfg)
        assert [t.iters_run for t in traces] == [600, 600]
        for problem, c, t in zip(rows, coeffs, traces):
            assert_matches_replica(c, t, replica(problem, solver_cfg))

    def test_a_stack_that_mixes_storages_is_refused(self, problems):
        config = ExperimentConfig.gaussian_kernel_paper(n_instances=1,
                                                        master_seed=0)
        rows = [problems[0], generate_instance(config, 0)[0]]
        solver_cfg = SolverConfig(max_iters=10)
        for run in (solve_stack, solve_with_reference):
            with pytest.raises(ContractViolation, match="storage"):
                run(rows, solver_cfg)

    def test_rows_longer_than_one_einsum_pass(self):
        # G*m = 8400 elements a row, more than einsum's 8192-element
        # buffer: a stack reduces each row's step norm per group, so that
        # it has the bits of the row alone, dense or factored
        for make, iters in ((ExperimentConfig.gaussian_kernel_paper, 60),
                            (ExperimentConfig.group_lasso_paper, 100)):
            config = make(n_instances=3, m=420)
            problems = [generate_instance(config, i)[0] for i in range(3)]
            assert problems[0].n_groups * problems[0].m == 8400
            solver_cfg = SolverConfig(max_iters=iters)
            coeffs, traces = solve_stack(problems, solver_cfg)
            for problem, c, t in zip(problems, coeffs, traces):
                assert_matches_replica(c, t, replica(problem, solver_cfg))


class TestCrossStorage:
    """Factored rows step in factor coordinates, dense rows in the Gram's:
    the two loops agree on the same blocks, to rounding."""

    @pytest.mark.parametrize("index", range(4))
    def test_factored_and_dense_storage_agree(self, index):
        problem = preset_instance(index)
        dense = dense_copy(problem)
        config = SolverConfig(max_iters=600)
        (a, ta), (b, tb) = solve(problem, config), solve(dense, config)
        for name in ("change_iters", "change_supports"):
            assert same_bits(getattr(ta, name), getattr(tb, name)), name
        assert (np.abs(a.alpha - b.alpha).max()
                <= 1e-12 * np.abs(b.alpha).max())
        assert (np.abs(ta.objectives - tb.objectives)
                <= 1e-12 * np.abs(tb.objectives)).all()
        assert abs(ta.objective - tb.objective) <= 1e-12 * tb.objective


class TestSteppedCount:
    """A result's `stepped` against the Gram products the loop ran."""

    def test_stepped_sums_to_the_rows_stepped(self, products):
        # instances 0-5 end in exact cycles, settled, so that their
        # production results are their references
        problems = [preset_instance(i) for i in range(6)]
        results = solve_with_reference(problems, SolverConfig(max_iters=5000))
        assert sum(r.stepped for r in results) == sum(products)
        for result in results:
            assert result.reference is result.coeffs
            assert result.stepped < result.trace.iters_run == 5000

    def test_a_settled_reference_costs_no_iteration(self, preset_problems,
                                                    products):
        # instance 4 ends at a step of 0, so its production result is its
        # reference: the loop steps no iteration for the reference
        problem = preset_problems[4]
        config = SolverConfig(max_iters=5000)
        result = solve_with_reference(problem, config)
        assert result.trace.final_step_norm <= 1e-12
        products.clear()
        solve(problem, config)
        assert result.stepped == sum(products) < 5000


class TestStackMemory:
    def test_a_kept_row_does_not_pin_the_stack(self):
        config = ExperimentConfig.gaussian_kernel_paper(n_instances=8,
                                                        master_seed=0)
        problems = [generate_instance(config, i)[0] for i in range(8)]
        solver_cfg = SolverConfig(max_iters=300)
        solve_with_reference(problems, solver_cfg)
        tracemalloc.start()
        try:
            # the other rows' records go with the tuple
            row = solve_with_reference(problems, solver_cfg)[3]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        coeff, trace, ref = row.coeffs, row.trace, row.reference
        records = sum(getattr(trace, name).nbytes for name in
                      ("supports", "objectives", "step_norms"))
        own = coeff.alpha.nbytes + ref.alpha.nbytes
        for kept in (coeff, ref):
            assert kept.alpha.shape == (50, 20) and kept.alpha.base is None
        # one stacked (8, G, m) array alone would take 4x the row's own
        stack_array = 8 * coeff.alpha.nbytes
        assert held < records + own + stack_array // 2


@pytest.mark.parametrize("argv", [
    ["--preset", "group-lasso-paper", "--instances", "3", "--iters", "2000",
     "--trace"],
    # dense Gram blocks, whose product the group-lasso stack never runs
    ["--preset", "gaussian-kernel-paper", "--instances", "4", "--iters", "300"],
], ids=["group-lasso", "gaussian"])
def test_batch_outputs_do_not_depend_on_blas_threads(tmp_path, argv):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
                   ))
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from sparsemkl.cli import main; sys.exit(main())",
             "batch", *argv, "--out-dir", str(out_dir)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out_dir)
    for name in ["histogram.csv", "summary.json"] + ["traces.jsonl"] * (
            "--trace" in argv):
        first = (outputs[0] / name).read_bytes()
        assert first, name
        assert first == (outputs[1] / name).read_bytes(), name


def test_a_large_factored_solve_does_not_depend_on_blas_threads():
    # at m = 20000 a single X'r product over all groups changes its bits
    # between one and two threads; the loop's per-group projections and
    # its (m, G d_max) residual product do not
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = (
        "import dataclasses, sys\n"
        "from sparsemkl import (ExperimentConfig, SolverConfig,\n"
        "                       generate_instance, solve)\n"
        "config = dataclasses.replace(\n"
        "    ExperimentConfig.group_lasso_paper(n_instances=1), m=20000)\n"
        "problem, _ = generate_instance(config, 0)\n"
        "coeffs, trace = solve(problem, SolverConfig(max_iters=20))\n"
        "sys.stdout.buffer.write(coeffs.alpha.tobytes()\n"
        "                        + trace.step_norms.tobytes())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
                   ))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      check=True, capture_output=True).stdout)
    # the (m, G) coefficients and 20 step norms
    assert len(outputs[0]) == 8 * (20000 * 20 + 20)
    assert outputs[0] == outputs[1]

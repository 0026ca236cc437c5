"""One trajectory per problem: the solver's exact-cycle exit and the
reference solve that continues the production run.

Both shortcuts claim bit-identical results, so every comparison here is
bitwise. The oracle is a plain replica of the solver's arithmetic that
runs and records every iteration.
"""

import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sparsemkl import (
    ContractViolation,
    ExperimentConfig,
    SolverConfig,
    generate_instance,
    reference_solve,
    solve,
)
from sparsemkl import solver as solver_module
from sparsemkl import support as support_module

# periods of the exact cycles the group-lasso preset (master seed 0)
# falls into within its 5000-iteration budget, by instance; they move
# with the low bits of the step size. Instance 0, which most tests below
# run on, has the one period above 2.
PRESET_PERIODS = {4: 1, 0: 4, 2: 2, 1: 2}


def iterates(problem, config, alpha0=None):
    """Yield every iteration of the solve loop as (n, nu, keep, AT, KA, step).

    The Gram products go through `gram.apply_each`: the replica checks
    the loop, not the operator.
    """
    gram = problem.gram
    G, m = gram.n_groups, gram.m
    y = problem.dataset.responses
    tau = config.tau_factor / problem.gram.lipschitz
    thr = tau * problem.effective_lambda
    if alpha0 is None:
        AT = np.zeros((G, m))
        KA = np.zeros((G, m))
    else:
        AT = np.ascontiguousarray(alpha0.alpha.T)
        KA = gram.apply_each(AT)
    for n in range(1, config.max_iters + 1):
        r = KA.sum(axis=0) - y
        Kr = gram.apply_each(r)
        B = AT - tau * r
        KB = KA - tau * Kr
        nu = np.sqrt(np.maximum(np.einsum("gi,gi->g", B, KB), 0.0))
        keep = nu > thr
        gamma = np.where(keep, (nu - thr) / np.where(keep, nu, 1.0), 0.0)
        AT_new = gamma[:, None] * B
        KA_new = gamma[:, None] * KB
        step_sq = float(np.einsum("gi,gi->", AT_new - AT, KA_new - KA))
        AT, KA = AT_new, KA_new
        yield n, nu, keep, AT, KA, float(np.sqrt(max(step_sq, 0.0)))


def replica(problem, config, alpha0=None):
    """Every iteration and its record, without shortcuts."""
    y = problem.dataset.responses
    lam = problem.effective_lambda
    thr = config.tau_factor / problem.gram.lipschitz * lam
    rows = []
    for n, nu, keep, AT, KA, step in iterates(problem, config, alpha0):
        stop = config.stop_tol > 0.0 and step <= config.stop_tol
        if config.record_trace:
            r_new = KA.sum(axis=0) - y
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


def first_repeat(problem, config):
    """(first iteration of the cycle, period) of a zero-start trajectory."""
    seen = {}
    for n, _, _, AT, KA, _ in iterates(problem, config):
        key = AT.tobytes() + KA.tobytes()
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


def preset_instance(index):
    config = ExperimentConfig.group_lasso_paper(n_instances=8, master_seed=0)
    problem, _ = generate_instance(config, index)
    return problem


@pytest.fixture(scope="module")
def preset_problems():
    return {i: preset_instance(i) for i in PRESET_PERIODS}


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

    def test_buffers_grow_with_the_iterations_run(self, preset_problems):
        # a full-budget reservation would take tens of megabytes here
        peak, trace = self.traced_peak(
            preset_problems[0],
            SolverConfig(max_iters=2_000_000, stop_tol=1e-9),
        )
        assert trace.iters_run < 5000
        assert peak < 1_000_000


class TestContinuation:
    def test_continuing_a_trace_gives_the_uninterrupted_run(self,
                                                            preset_problems):
        problem = preset_problems[2]
        _, first = solve(problem, SolverConfig(max_iters=300))
        config = SolverConfig(max_iters=2000)
        coeffs, trace = solve(problem, config, alpha0=first)
        full = replica(problem, config)
        tail = full["iterations"] > 300
        assert same_bits(coeffs.alpha, full["alpha"])
        for name in ("iterations", "supports", "objectives", "step_norms"):
            assert same_bits(getattr(trace, name), full[name][tail]), name
        assert trace.iters_run == 2000

    def test_trace_of_another_problem_is_rejected(self, preset_problems):
        _, trace = solve(preset_problems[0], SolverConfig(max_iters=5))
        with pytest.raises(ContractViolation):
            solve(preset_problems[4], SolverConfig(max_iters=10), alpha0=trace)
        with pytest.raises(ContractViolation):
            solve(preset_problems[0], SolverConfig(max_iters=10, tau_factor=0.5),
                  alpha0=trace)

    def test_pickled_trace_keeps_records_but_not_state(self, preset_problems):
        problem = preset_problems[0]
        _, trace = solve(problem, SolverConfig(max_iters=50))
        copy = pickle.loads(pickle.dumps(trace))
        assert same_bits(copy.objectives, trace.objectives)
        with pytest.raises(ContractViolation):
            solve(problem, SolverConfig(max_iters=60), alpha0=copy)


class TestContinuingReference:
    @pytest.fixture
    def solves(self, monkeypatch):
        """The stack rows reference_solve solves, as (max_iters, start)."""
        calls = []

        def spy(problems, config, starts):
            calls.extend((config.max_iters, start) for start in starts)
            return solve(problems, config, starts)

        monkeypatch.setattr(support_module, "solve", spy)
        return calls

    @staticmethod
    def replay(problem, n, tau_factor=0.8):
        config = SolverConfig(tau_factor=tau_factor, max_iters=10 * n,
                              stop_tol=1e-12, record_trace=False)
        return solve(problem, config)[0]

    def test_settled_production_run_is_reused(self, preset_problems, solves):
        problem = preset_problems[4]
        config = SolverConfig(max_iters=5000)
        _, trace = solve(problem, config)
        ref = reference_solve(problem, config, trace)
        assert solves == []
        assert same_bits(ref.alpha, self.replay(problem, 5000).alpha)

    def test_unsettled_production_run_is_continued(self, solves):
        config = ExperimentConfig.gaussian_kernel_paper(
            n_instances=1, master_seed=0, iters=300,
        )
        problem, _ = generate_instance(config, 0)
        solver_cfg = SolverConfig(max_iters=300)
        _, trace = solve(problem, solver_cfg)
        ref = reference_solve(problem, solver_cfg, trace)
        assert solves == [(3000, trace)]
        assert same_bits(ref.alpha, self.replay(problem, 300).alpha)

    def test_run_stopped_on_stop_tol_is_continued(self, preset_problems,
                                                  solves):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=5000, stop_tol=1e-9)
        _, trace = solve(problem, config)
        assert trace.iters_run < 5000 and trace.final_step_norm > 1e-12
        ref = reference_solve(problem, config, trace)
        assert solves == [(50000, trace)]
        assert same_bits(ref.alpha, self.replay(problem, 5000).alpha)

    def test_warm_started_run_is_replayed(self, preset_problems, solves):
        problem = preset_problems[2]
        warm, _ = solve(problem, SolverConfig(max_iters=40, record_trace=False))
        config = SolverConfig(max_iters=500)
        _, trace = solve(problem, config, alpha0=warm)
        ref = reference_solve(problem, config, trace)
        assert solves == [(5000, None)]
        assert same_bits(ref.alpha, self.replay(problem, 500).alpha)

    def test_other_tau_factor_is_replayed(self, preset_problems, solves):
        problem = preset_problems[0]
        _, trace = solve(problem, SolverConfig(max_iters=500, tau_factor=0.5))
        config = SolverConfig(max_iters=500)
        ref = reference_solve(problem, config, trace)
        assert solves == [(5000, None)]
        assert same_bits(ref.alpha, self.replay(problem, 500).alpha)

    def test_no_trace_is_replayed(self, preset_problems, solves):
        problem = preset_problems[0]
        config = SolverConfig(max_iters=500, tau_factor=0.5)
        ref = reference_solve(problem, config)
        assert solves == [(5000, None)]
        assert same_bits(ref.alpha, self.replay(problem, 500, 0.5).alpha)

    def test_rejects_a_non_trace(self, preset_problems):
        with pytest.raises(ContractViolation):
            reference_solve(preset_problems[0], SolverConfig(), trace="trace")


class TestStackedRows:
    """A row's results do not depend on the stack it is solved in.

    Group-lasso preset instances 0-7 (master seed 0) are solved alone,
    in stacks of 3 and in one shuffled stack of 8, and every row is
    compared bit for bit with the replica. Their exact cycles have
    periods {0: 4, 1: 2, 2: 2, 3: 1, 4: 1, 5: 9, 6: 1, 7: 1}, so rows
    leave the stack at different iterations.
    """

    SHUFFLED = [5, 2, 7, 0, 3, 6, 1, 4]
    STACKS = [SHUFFLED[:3], SHUFFLED[3:6], SHUFFLED[5:], SHUFFLED]

    @pytest.fixture(scope="class")
    def problems(self):
        return [preset_instance(i) for i in range(8)]

    @staticmethod
    def reference_replica(problem, config):
        ref_cfg = SolverConfig(
            tau_factor=config.tau_factor,
            max_iters=config.max_iters * support_module.REFERENCE_BUDGET_FACTOR,
            stop_tol=solver_module.REFERENCE_STOP_TOL, record_trace=False,
        )
        return replica(problem, ref_cfg)["alpha"]

    def check_stacks(self, problems, config):
        expected = [replica(p, config) for p in problems]
        references = [self.reference_replica(p, config) for p in problems]
        runs = []
        for i, problem in enumerate(problems):
            coeffs, trace = solve(problem, config)
            ref = reference_solve(problem, config, trace)
            runs.append(([i], (coeffs,), (trace,), (ref,)))
        for stack in self.STACKS:
            rows = [problems[i] for i in stack]
            coeffs, traces = solve(rows, config)
            refs = reference_solve(rows, config, traces)
            runs.append((stack, coeffs, traces, refs))
        for stack, coeffs, traces, refs in runs:
            assert len(coeffs) == len(traces) == len(refs) == len(stack)
            for i, c, t, ref in zip(stack, coeffs, traces, refs):
                assert_matches_replica(c, t, expected[i])
                assert same_bits(ref.alpha, references[i]), i
        return [t for _, _, (t,), _ in runs[:len(problems)]]

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
        # at 600 iterations instances 1, 4, 5, 6 and 7 have passed a step
        # of 1e-12, whose iterate is their reference; 0, 2 and 3 continue
        config = SolverConfig(max_iters=600)
        traces = self.check_stacks(problems, config)
        settled = [t._end.settled is not None for t in traces]
        assert settled == [False, True, False, False, True, True, True, True]

    def test_rows_can_start_anywhere(self, problems):
        # a zero start, a warm start and a continued trace in one stack
        config = SolverConfig(max_iters=2000)
        warm, _ = solve(problems[2], SolverConfig(max_iters=40,
                                                  record_trace=False))
        _, first = solve(problems[3], SolverConfig(max_iters=300))
        coeffs, traces = solve(problems[1:4], config, [None, warm, first])
        assert_matches_replica(coeffs[0], traces[0],
                               replica(problems[1], config))
        assert_matches_replica(coeffs[1], traces[1],
                               replica(problems[2], config, warm))
        full = replica(problems[3], config)
        assert same_bits(coeffs[2].alpha, full["alpha"])
        tail = full["iterations"] > 300
        for name in ("iterations", "supports", "objectives", "step_norms"):
            assert same_bits(getattr(traces[2], name), full[name][tail]), name

    def test_rows_longer_than_one_einsum_pass(self):
        # G*m = 8400 > solver._EINSUM_BUFSIZE: each row's step norm is
        # reduced on its own, else stacking would change its bits
        config = ExperimentConfig.group_lasso_paper(n_instances=3, m=420)
        problems = [generate_instance(config, i)[0] for i in range(3)]
        G, m = problems[0].n_groups, problems[0].m
        assert G * m > solver_module._EINSUM_BUFSIZE
        solver_cfg = SolverConfig(max_iters=100)
        coeffs, traces = solve(problems, solver_cfg)
        for problem, c, t in zip(problems, coeffs, traces):
            assert_matches_replica(c, t, replica(problem, solver_cfg))


class TestStackMemory:
    def test_a_kept_row_does_not_pin_the_stack(self):
        config = ExperimentConfig.gaussian_kernel_paper(n_instances=8,
                                                        master_seed=0)
        problems = [generate_instance(config, i)[0] for i in range(8)]
        solver_cfg = SolverConfig(max_iters=300)
        solve(problems, solver_cfg)
        tracemalloc.start()
        try:
            coeffs, traces = solve(problems, solver_cfg)
            kept = traces[3]
            del coeffs, traces
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        records = sum(getattr(kept, name).nbytes for name in
                      ("iterations", "supports", "objectives", "step_norms"))
        end = kept._end
        own = end.AT.nbytes + end.KA.nbytes
        assert end.AT.shape == end.KA.shape == (20, 50)
        assert end.AT.base is None and end.KA.base is None
        # one stacked (8, G, m) array alone would take 4x the row's state
        stack_array = 8 * end.AT.nbytes
        assert held < records + own + stack_array // 2


def test_batch_outputs_do_not_depend_on_blas_threads(tmp_path):
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
             "batch", "--preset", "group-lasso-paper", "--instances", "3",
             "--iters", "2000", "--trace", "--out-dir", str(out_dir)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out_dir)
    for name in ("histogram.csv", "summary.json", "traces.jsonl"):
        first = (outputs[0] / name).read_bytes()
        assert first, name
        assert first == (outputs[1] / name).read_bytes(), name

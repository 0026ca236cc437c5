"""Acceptance gate: the nine headline guarantees, one test per criterion.

Each test prints a `criterion N: pass ...` line with the measured
numbers, so a `-s` run reads as a checklist. The expensive batteries
are solved once per session and shared:

* 100 random group-lasso instances (criteria 2, 3, 4, 7),
* 20 Gaussian-kernel instances at a 50000-iteration trace (criterion 3),
* two identically seeded CLI preset batches (criteria 5, 9),
* one reduced Gaussian preset batch (criterion 6).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from sparsemkl.cli import main as cli_main
from sparsemkl.core import DualCoefficients, objective
from sparsemkl.oracle import enumerate_solve
from sparsemkl.solver import SolverConfig, solve, solve_with_reference
from sparsemkl.strata import verify_lattice
from sparsemkl.support import (
    last_support_change,
    qualification_check,
    sandwich_check,
    support_of,
)

from _fixtures import (
    gaussian_sandwich_instance,
    group_lasso_instance,
    one_dim_problem,
)

N_GROUP_LASSO = 100
N_GAUSSIAN = 20


@dataclass(frozen=True)
class BatteryRun:
    problem: object
    coeffs: object
    trace: object
    enum: object
    report: object
    burn_in: int
    sandwich: object


def _identify(problem, trace, reference):
    report = qualification_check(reference, problem)
    burn_in = last_support_change(trace)
    return report, burn_in, sandwich_check(trace, report, burn_in)


@pytest.fixture(scope="session")
def gl_battery():
    """Solve, enumerate, and identify the 100-instance battery.

    Returns (runs, timings): timings has the solve, reference and oracle
    phase and the identification phase separately, since criteria 2 and 3 meter them
    against different budgets.
    """
    config = SolverConfig(
        tau_factor=0.8, max_iters=200000, stop_tol=1e-12, record_trace=True,
    )
    t0 = time.perf_counter()
    solved = []
    for i in range(N_GROUP_LASSO):
        problem = group_lasso_instance(i)
        result = solve_with_reference(problem, config)
        solved.append((problem, result.coeffs, result.trace,
                       result.reference, enumerate_solve(problem)))
    t1 = time.perf_counter()
    runs = []
    for problem, coeffs, trace, reference, enum in solved:
        report, burn_in, verdict = _identify(problem, trace, reference)
        runs.append(BatteryRun(
            problem, coeffs, trace, enum, report, burn_in, verdict,
        ))
    t2 = time.perf_counter()
    return runs, {"solve_enum_s": t1 - t0, "identify_s": t2 - t1}


@pytest.fixture(scope="session")
def gaussian_battery():
    """Trace 20 Gaussian-kernel instances long enough to shed all groups.

    The slowest observed off-support decay finishes near iteration
    39000, so a 50000-iteration trace leaves headroom while the
    10x-budget reference still converges to step norms below 1e-12.
    """
    config = SolverConfig(
        tau_factor=0.8, max_iters=50000, stop_tol=0.0, record_trace=True,
    )
    t0 = time.perf_counter()
    runs = []
    for i in range(N_GAUSSIAN):
        problem = gaussian_sandwich_instance(i)
        result = solve_with_reference(problem, config)
        report, burn_in, verdict = _identify(problem, result.trace,
                                             result.reference)
        runs.append(BatteryRun(
            problem, result.coeffs, result.trace, None, report, burn_in,
            verdict,
        ))
    return runs, time.perf_counter() - t0


def _run_preset_batch(out_dir, argv_tail):
    t0 = time.perf_counter()
    rc = cli_main(["batch", "--out-dir", str(out_dir)] + argv_tail)
    assert rc == 0, f"batch into {out_dir} failed with exit code {rc}"
    return time.perf_counter() - t0


def _read_histogram(out_dir):
    rows = (out_dir / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "support_size,count"
    return {
        int(size): int(count)
        for size, count in (row.split(",") for row in rows[1:])
    }


@pytest.fixture(scope="session")
def group_lasso_preset_batches(tmp_path_factory):
    """Two identically seeded 50-instance preset batches via the CLI."""
    base = tmp_path_factory.mktemp("gl-preset")
    tail = ["--preset", "group-lasso-paper", "--instances", "50"]
    elapsed = _run_preset_batch(base / "a", tail)
    _run_preset_batch(base / "b", tail)
    return base / "a", base / "b", elapsed


@pytest.fixture(scope="session")
def gaussian_preset_batch(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("gauss-preset") / "out"
    elapsed = _run_preset_batch(out_dir, [
        "--preset", "gaussian-kernel-paper",
        "--instances", "25", "--iters", "20000",
    ])
    return out_dir, elapsed


def report_line(text):
    print(f"\n{text}")


# ----------------------------------------------------------- criterion 1

def test_criterion_1_one_group_example_exact():
    t0 = time.perf_counter()
    problem = one_dim_problem()
    tau = 0.5
    start = DualCoefficients(np.ones((1, 1)))

    alpha = start
    worst = 0.0
    # the exact bound L = 1 makes tau_factor = tau * L the step size itself
    step = SolverConfig(tau_factor=tau * problem.gram.lipschitz, max_iters=1)
    for n in range(1, 51):
        # each solve takes one step from the previous iterate
        alpha, _ = solve(problem, step, alpha)
        value = float(alpha.alpha[0, 0])
        exact = (1.0 - tau) ** n
        worst = max(worst, abs(value - exact) / exact)
        assert support_of(alpha) == {0}, f"support left {{1}} at n={n}"
    assert worst <= 1e-12

    config = SolverConfig(
        tau_factor=0.5, max_iters=50, stop_tol=0.0, record_trace=True,
    )
    _, trace = solve(problem, config, start)
    assert all(set(np.flatnonzero(row)) == {0} for row in trace.supports)

    enum = enumerate_solve(problem)
    assert enum.support == frozenset()
    assert enum.objective == 0.5
    report = qualification_check(enum.alpha_or_w, problem)
    assert report.extended_support == {0}
    assert report.qc_margin == 0.0
    assert not report.qc_holds

    verdict = sandwich_check(trace, report, last_support_change(trace))
    assert verdict.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(
        f"criterion 1: pass (worst iterate rel err {worst:.2e}, "
        f"oracle at zero, esupp={{1}}, qc_margin=0.0, sandwich pass, "
        f"{elapsed:.2f} s < 1 s)"
    )


# ----------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence(gl_battery):
    runs, timings = gl_battery
    worst_rel = 0.0
    qualified = 0
    mismatched = []
    for i, run in enumerate(runs):
        obj = objective(run.coeffs, run.problem)
        denom = abs(run.enum.objective)
        rel = abs(obj - run.enum.objective) / denom if denom else abs(obj)
        worst_rel = max(worst_rel, rel)
        if run.report.qc_margin > 1e-3:
            qualified += 1
            if support_of(run.coeffs) != set(run.enum.support):
                mismatched.append(i)
    elapsed = timings["solve_enum_s"]
    assert worst_rel <= 1e-6
    assert mismatched == []
    assert qualified > 0
    assert elapsed < 60.0
    report_line(
        f"criterion 2: pass ({len(runs)} instances, worst rel objective "
        f"err {worst_rel:.2e} <= 1e-6, supports match on all {qualified} "
        f"runs with qc_margin > 1e-3, {elapsed:.1f} s < 60 s)"
    )


# ----------------------------------------------------------- criterion 3

def test_criterion_3_sandwich_property(gl_battery, gaussian_battery):
    gl_runs, gl_timings = gl_battery
    gauss_runs, gauss_elapsed = gaussian_battery
    failures = [
        (family, i)
        for family, runs in (("group-lasso", gl_runs),
                             ("gaussian", gauss_runs))
        for i, run in enumerate(runs)
        if not run.sandwich.passed
    ]
    elapsed = gl_timings["identify_s"] + gauss_elapsed
    assert failures == []
    assert elapsed < 120.0
    report_line(
        f"criterion 3: pass (sandwich holds on {len(gl_runs)} group-lasso "
        f"+ {len(gauss_runs)} gaussian runs at burn_in = last support "
        f"change, {elapsed:.1f} s < 120 s)"
    )


# ----------------------------------------------------------- criterion 4

def test_criterion_4_exact_recovery_under_qc(gl_battery):
    runs, _ = gl_battery
    checked = 0
    latest = 0
    for run in runs:
        if not run.report.qc_holds:
            continue
        checked += 1
        rows = run.trace.supports
        ref_row = np.isin(np.arange(rows.shape[1]), sorted(run.report.support))
        mismatch = np.flatnonzero((rows != ref_row).any(axis=1))
        if mismatch.size:
            settle = int(run.trace.iterations[mismatch[-1]]) + 1
            assert np.array_equal(rows[-1], ref_row), (
                "trace never settles on the reference support"
            )
        else:
            settle = int(run.trace.iterations[0])
        latest = max(latest, settle)
    assert checked > 0
    report_line(
        f"criterion 4: pass ({checked} runs with qc_holds all reach "
        f"supp(reference) by a finite recorded iteration; latest "
        f"settling at n={latest})"
    )


# ----------------------------------------------------------- criterion 5

def test_criterion_5_group_lasso_histogram(group_lasso_preset_batches):
    dir_a, _, elapsed = group_lasso_preset_batches
    hist = _read_histogram(dir_a)
    total = sum(hist.values())
    in_band = sum(count for size, count in hist.items() if 5 <= size <= 7)
    mode = max(hist, key=lambda size: (hist[size], -size))
    assert total == 50
    assert in_band / total >= 0.5
    assert mode in (5, 6, 7)
    report_line(
        f"criterion 5: pass (sizes 5-7 on {in_band}/{total} runs, "
        f"mode {mode}, {elapsed:.1f} s; target < 600 s)"
    )


# ----------------------------------------------------------- criterion 6

def test_criterion_6_gaussian_histogram(gaussian_preset_batch):
    out_dir, elapsed = gaussian_preset_batch
    hist = _read_histogram(out_dir)
    total = sum(hist.values())
    below = sum(count for size, count in hist.items() if size < 5)
    above = sum(count for size, count in hist.items() if size > 7)
    assert total == 25
    assert below > 0
    assert above <= below
    report_line(
        f"criterion 6: pass ({below}/{total} runs below size 5, "
        f"{above} above size 7, {elapsed:.1f} s; target < 1200 s)"
    )


# ----------------------------------------------------------- criterion 7

def test_criterion_7_descent_and_convergence(gl_battery):
    runs, _ = gl_battery
    worst_rise = -np.inf
    worst_step = 0.0
    for run in runs:
        values = run.trace.objectives[: run.trace.n_recorded]
        if values.size > 1:
            worst_rise = max(worst_rise, float(np.diff(values).max()))
        worst_step = max(worst_step, run.trace.final_step_norm)
    assert worst_rise <= 1e-12
    assert worst_step <= 1e-8
    report_line(
        f"criterion 7: pass (largest objective rise {worst_rise:.2e} "
        f"<= 1e-12, largest final step norm {worst_step:.2e} <= 1e-8)"
    )


# ----------------------------------------------------------- criterion 8

def test_criterion_8_strata_lattice():
    t0 = time.perf_counter()
    for G in range(1, 9):
        verdict = verify_lattice(G)
        assert verdict.passed, f"lattice check failed at G={G}: {verdict}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line(
        f"criterion 8: pass (lattices G=1..8 verified, "
        f"{elapsed * 1e3:.0f} ms < 1 s)"
    )


# ----------------------------------------------------------- criterion 9

def test_criterion_9_batch_determinism(group_lasso_preset_batches):
    dir_a, dir_b, _ = group_lasso_preset_batches
    first = (dir_a / "histogram.csv").read_bytes()
    second = (dir_b / "histogram.csv").read_bytes()
    assert len(first.splitlines()) > 1
    assert first == second
    report_line(
        f"criterion 9: pass (re-seeded batch reproduced histogram.csv "
        f"byte for byte, {len(first)} bytes)"
    )

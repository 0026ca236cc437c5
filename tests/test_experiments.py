import dataclasses
import hashlib
import io
import json
import os
import pickle
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsemkl import experiments, solver
from sparsemkl import (
    BatchResult,
    ContractViolation,
    DivergenceError,
    ExperimentConfig,
    SolverConfig,
    SolveTrace,
    emit_histogram,
    emit_summary,
    emit_traces,
    enumerate_solve,
    generate_instance,
    instance_seed,
    qualification_check,
    residual,
    run_batch,
    solve_with_reference,
    support_of,
)
from sparsemkl.experiments import write_trace_rows


def small_gl_config(**overrides):
    base = dict(
        family="group-lasso",
        m=8,
        G=4,
        s=2,
        lam=0.3,
        p=8,
        noise_std=1e-2,
        n_instances=6,
        iters=400,
        tau_factor=0.8,
        master_seed=42,
        group_dims=(2, 2, 2, 2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_planted_size_bounded_by_group_count(self):
        with pytest.raises(ContractViolation):
            small_gl_config(s=5)

    def test_zero_response_rejected(self):
        # no planted group and no noise: every response is zero
        with pytest.raises(ContractViolation, match="s = 0 with noise_std"):
            small_gl_config(s=0, noise_std=0.0)
        assert small_gl_config(s=0).noise_std > 0.0
        assert small_gl_config(noise_std=0.0).s > 0

    def test_group_dims_must_sum_to_p(self):
        with pytest.raises(ContractViolation):
            small_gl_config(group_dims=(2, 2, 2, 3))

    @pytest.mark.parametrize("dims", [(0, 2, 3, 3), (-1, 3, 3, 3)])
    def test_group_dims_must_be_positive(self, dims):
        # they sum to p, so only their sign can refuse them
        with pytest.raises(ContractViolation, match="group_dims must be >= 1"):
            small_gl_config(group_dims=dims)

    @pytest.mark.parametrize("bounds", [0.5, (0.5,), (0.1, 1.0, 10.0), ()])
    def test_sigma_range_must_be_two_bounds(self, bounds):
        with pytest.raises(ContractViolation, match="sigma_range must be lo, hi"):
            ExperimentConfig.gaussian_kernel_paper(sigma_range=bounds)

    def test_family_specific_fields_enforced(self):
        with pytest.raises(ContractViolation):
            small_gl_config(sigma_range=(0.1, 1.0))
        with pytest.raises(ContractViolation):
            ExperimentConfig(
                family="gaussian-kernel",
                m=5,
                G=2,
                s=1,
                lam=0.3,
                p=2,
                noise_std=0.0,
                n_instances=1,
                iters=10,
                tau_factor=0.8,
                master_seed=0,
                sigma_range=(1.0, -2.0),
            )

    def test_group_lasso_preset_mirrors_benchmark(self):
        cfg = ExperimentConfig.group_lasso_paper()
        assert (cfg.m, cfg.G, cfg.s, cfg.lam) == (50, 20, 5, 0.2)
        assert cfg.p == 100
        assert cfg.group_dims == (5,) * 20
        assert cfg.iters == 5000
        assert cfg.noise_std == 1e-2
        assert cfg.tau_factor == 0.8
        assert cfg.n_instances == 200

    def test_gaussian_preset_mirrors_benchmark(self):
        cfg = ExperimentConfig.gaussian_kernel_paper()
        assert (cfg.m, cfg.G, cfg.s, cfg.lam) == (50, 20, 5, 0.2)
        assert cfg.p == 2
        assert cfg.sigma_range == (0.1, 10.0)
        assert cfg.iters == 50000

    def test_preset_overrides(self):
        cfg = ExperimentConfig.group_lasso_paper(n_instances=7, iters=100)
        assert cfg.n_instances == 7
        assert cfg.iters == 100


class TestInstanceSeeds:
    def test_distinct_across_indices_and_masters(self):
        seeds = {instance_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert instance_seed(0, 3) != instance_seed(1, 3)

    def test_stable_values(self):
        assert instance_seed(7, 11) == instance_seed(7, 11)


class TestGenerateInstance:
    def test_benchmark_dimensions(self):
        cfg = ExperimentConfig.group_lasso_paper(n_instances=1)
        prob, planted = generate_instance(cfg, 0)
        assert (prob.gram.n_groups, prob.gram.m) == (20, 50)
        assert prob.gram.factors.shape == (20, 50, 5)
        assert len(support_of(planted)) == 5

    def test_points_are_stored_once(self):
        # the linear Gram reads the dataset's own read-only points
        prob, _ = generate_instance(small_gl_config(), 0)
        assert prob.dataset.points is prob.gram.features
        assert not prob.dataset.points.flags.writeable

    def test_bit_identical_regeneration(self):
        cfg = small_gl_config()
        a, pa = generate_instance(cfg, 2)
        b, pb = generate_instance(cfg, 2)
        assert np.array_equal(a.dataset.points, b.dataset.points)
        assert np.array_equal(a.dataset.responses, b.dataset.responses)
        assert a.lam == b.lam
        assert np.array_equal(pa.alpha, pb.alpha)

    def test_zero_noise_interpolates(self):
        cfg = small_gl_config(noise_std=0.0)
        prob, planted = generate_instance(cfg, 1)
        r = residual(planted, prob.gram, prob.dataset.responses)
        assert np.array_equal(r, np.zeros(cfg.m))

    def test_lambda_is_relative_to_certificates(self):
        cfg = small_gl_config()
        prob, _ = generate_instance(cfg, 0)
        y = prob.dataset.responses
        certs = np.sqrt(np.einsum("i,gij,j->g", y, prob.gram.dense(), y))
        assert prob.lam == pytest.approx(cfg.lam * certs.max(), rel=1e-14)

    def test_index_range_checked(self):
        cfg = small_gl_config()
        with pytest.raises(ContractViolation):
            generate_instance(cfg, 6)


class TestRunBatch:
    def test_histogram_counts_sum_to_instances(self):
        res = run_batch(small_gl_config(), keep_traces=False)
        assert sum(res.histogram.values()) == 6
        assert len(res.per_run) == 6

    def test_single_instance_matches_oracle(self):
        # one tiny instance, solved by hand through the enumeration
        # oracle; the batch histogram must be {that size: 1}
        cfg = small_gl_config(n_instances=1, iters=3000, m=6, G=2, s=1,
                              p=4, group_dims=(2, 2))
        res = run_batch(cfg, keep_traces=False)
        prob, _ = generate_instance(cfg, 0)
        want = len(enumerate_solve(prob).support)
        assert res.histogram == {want: 1}

    def test_dominant_lambda_empties_support(self):
        cfg = small_gl_config(lam=1.5, n_instances=3)
        res = run_batch(cfg, keep_traces=False)
        assert res.histogram == {0: 3}

    def test_deterministic_across_worker_counts(self):
        cfg = small_gl_config()
        seq = run_batch(cfg, jobs=1, keep_traces=False)
        par = run_batch(cfg, jobs=2, keep_traces=False)
        assert seq.histogram == par.histogram
        for a, b in zip(seq.per_run, par.per_run):
            assert a == b

    def test_final_size_matches_last_trace_entry(self):
        res = run_batch(small_gl_config(), keep_traces=True)
        for run, trace in zip(res.per_run, res.traces):
            assert run.support_size == int(trace.support_sizes()[-1])

    def test_sandwich_holds_batch_wide(self):
        res = run_batch(small_gl_config(n_instances=10), keep_traces=False)
        assert all(r.sandwich_passed for r in res.per_run)
        assert all(r.burn_in >= 1 for r in res.per_run)

    @pytest.mark.parametrize("preset", [
        ExperimentConfig.group_lasso_paper, ExperimentConfig.gaussian_kernel_paper,
    ], ids=["group-lasso", "gaussian"])
    def test_sandwich_verdict_reads_the_final_support(self, preset):
        # from burn_in = last_support_change on, every traced support is
        # the final one, so the verdict is the inclusion at the final
        # support, and a violation is first seen at burn_in. At seed 6
        # and 1000 iterations the Gaussian runs 0, 1 and 3 fail, and run
        # 2 passes
        cfg = preset(n_instances=4, master_seed=6, iters=1000)
        res = run_batch(cfg)
        problems = [generate_instance(cfg, i)[0] for i in range(4)]
        results = solve_with_reference(problems, SolverConfig(
            tau_factor=cfg.tau_factor, max_iters=cfg.iters))
        verdicts = []
        for run, trace, problem, result in zip(res.per_run, res.traces,
                                               problems, results):
            final = np.isin(np.arange(cfg.G), sorted(run.support))
            assert (trace.supports[trace.iterations >= run.burn_in]
                    == final).all()
            report = qualification_check(result.reference, problem)
            assert run.sandwich_passed == (
                report.support <= run.support <= report.extended_support)
            assert run.sandwich_first_violation == (
                None if run.sandwich_passed else run.burn_in)
            verdicts.append(run.sandwich_passed)
        if cfg.family == "gaussian-kernel":
            assert verdicts == [False, False, True, False]

    def test_divergence_aborts_naming_instance(self, monkeypatch):
        # with a certified step bound the iteration cannot actually blow
        # up on generated data, so exercise the abort path by stubbing
        # the solve call itself
        import sparsemkl.experiments as experiments

        def exploding_solve(problem, config):
            raise DivergenceError(3)

        monkeypatch.setattr(experiments, "solve_with_reference",
                            exploding_solve)
        with pytest.raises(DivergenceError, match="instance 0") as exc:
            run_batch(small_gl_config(), keep_traces=False)
        assert exc.value.iteration == 3


# the supports and everything read from them are claimed portable across
# x86-64 BLAS kernels; the objective and margin only to their last digits
# (README, "Across hosts"). final_step_norm is not: a different kernel
# can reach a different cycle or fixed point
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("argv", [
    ["--preset", "group-lasso-paper", "--instances", "8", "--iters", "600"],
    ["--preset", "gaussian-kernel-paper", "--instances", "4",
     "--iters", "300"],
], ids=["group-lasso", "gaussian"])
def test_portable_outputs_do_not_depend_on_the_blas_kernel(tmp_path, argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    outputs = []
    for name, extra in (("host", {}),
                        ("haswell", {"OPENBLAS_CORETYPE": "Haswell"})):
        out_dir = tmp_path / name
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from sparsemkl.cli import main; sys.exit(main())",
             "batch", *argv, "--seed", "0", "--out-dir", str(out_dir)],
            env={**base, **extra}, check=True, capture_output=True,
        )
        outputs.append((
            (out_dir / "histogram.csv").read_bytes(),
            json.loads((out_dir / "summary.json").read_text())["per_run"],
        ))
    (hist_a, runs_a), (hist_b, runs_b) = outputs
    assert hist_a == hist_b
    assert len(runs_a) == len(runs_b) > 0
    for a, b in zip(runs_a, runs_b):
        for key in ("support", "support_size", "burn_in", "sandwich_passed",
                    "sandwich_first_violation"):
            assert a[key] == b[key], (a["index"], key)
        assert a["objective"] == pytest.approx(b["objective"], rel=1e-12,
                                               abs=0.0)
        assert a["qc_margin"] == pytest.approx(b["qc_margin"], rel=0.0,
                                               abs=1e-12)


def gaussian_preset(n_instances, iters=300):
    return ExperimentConfig.gaussian_kernel_paper(
        n_instances=n_instances, master_seed=0, iters=iters,
    )


class TestChunkedBatch:
    def test_outputs_do_not_depend_on_jobs(self):
        # 3 workers split 8 instances into uneven chunks of 3, 3 and 2
        cfg = gaussian_preset(8)
        runs = [run_batch(cfg, jobs=jobs, keep_traces=True)
                for jobs in (1, 2, 3)]
        first = runs[0]
        for other in runs[1:]:
            assert other.per_run == first.per_run
            assert other.histogram == first.histogram
            for a, b in zip(first.traces, other.traces):
                for name in ("iterations", "supports", "objectives",
                             "step_norms"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.shape == y.shape
                    assert x.tobytes() == y.tobytes(), name
                assert a.iters_run == b.iters_run
                assert a.final_step_norm == b.final_step_norm

    def test_chunks_are_capped_by_row_bytes(self):
        # eight 400 kB Gaussian Gram stacks do not fit under the cap
        cfg = gaussian_preset(8)
        assert 8 * experiments._row_bytes(cfg) > experiments.CHUNK_BYTES
        for jobs in (1, 2, 3):
            chunks = experiments._chunks(cfg, jobs)
            assert [i for c in chunks for i in c] == list(range(8))
            assert len(chunks) >= jobs
            assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
            for chunk in chunks:
                assert (len(chunk) * experiments._row_bytes(cfg)
                        <= experiments.CHUNK_BYTES)

    def test_trace_buffers_count_toward_the_cap(self):
        # at the preset's own budget two traced rows' records and Gram
        # stacks exceed the cap, though their Gram stacks alone do not;
        # an untraced row records no per-iteration arrays, so four stack
        cfg = gaussian_preset(8, iters=50000)
        assert 2 * 8 * cfg.G * cfg.m * cfg.m < experiments.CHUNK_BYTES
        assert 2 * experiments._row_bytes(cfg, True) > experiments.CHUNK_BYTES
        assert [len(c) for c in experiments._chunks(cfg, 1, True)] == [1] * 8
        assert [len(c) for c in experiments._chunks(cfg, 1, False)] == [4, 4]
        # tiny Grams, long traces: the traces set a traced chunk's size
        cfg = small_gl_config(n_instances=8, iters=20000)
        assert 8 * 8 * cfg.G * cfg.m * 2 < experiments.CHUNK_BYTES
        assert [len(c) for c in experiments._chunks(cfg, 1, True)] == [4, 4]
        assert [len(c) for c in experiments._chunks(cfg, 1, False)] == [8]

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (1, 2, 2, 3)])
    def test_row_bytes_count_the_factored_gram(self, dims):
        # what the gram owns: the features, the transposed factor stack
        # and, with unequal widths, the zero-padded (m, G d_max)
        # features, which equal widths share with X and of which the
        # factor stack is a view; and the padded features and transposed
        # factors that a bound stack of two or more rows stacks
        cfg = small_gl_config(group_dims=dims)
        gram = generate_instance(cfg, 0)[0].gram
        padded = gram._padded
        assert np.shares_memory(gram.factors, padded)
        held = (gram.features.nbytes + gram._factors_t.nbytes
                + (padded is not gram.features) * padded.nbytes)
        stacked = padded.nbytes + gram._factors_t.nbytes
        # three (G, m) arrays and two spare, four (G, d_max) images, and
        # a cycle period's (gamma, tau r) pairs; then the trace buffers
        G, m, d_max = cfg.G, cfg.m, gram.factors.shape[2]
        state = (8 * (5 * G * m + 4 * G * d_max
                      + solver._CYCLE_WINDOW * (G + m))
                 + 16 * cfg.iters)
        assert (padded is gram.features) == (len(set(dims)) == 1)
        assert experiments._row_bytes(cfg) == held + stacked + state

    @pytest.mark.parametrize("workload, keep_traces, sizes", [
        (lambda: gaussian_preset(8), False, [4, 4]),
        (lambda: ExperimentConfig.group_lasso_paper(n_instances=6), True,
         [6]),
        (lambda: dataclasses.replace(
            ExperimentConfig.group_lasso_paper(n_instances=1), m=800,
            iters=200), False, [1]),
    ], ids=["gauss-preset", "gl-preset-trace", "large-m-linear"])
    def test_benchmark_workload_chunks(self, workload, keep_traces, sizes):
        chunks = experiments._chunks(workload(), 1, keep_traces)
        assert [len(c) for c in chunks] == sizes

    @staticmethod
    def batch_peak(cfg, keep_traces=False):
        run_batch(cfg, keep_traces=keep_traces)
        tracemalloc.start()
        try:
            result = run_batch(cfg, keep_traces=keep_traces)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    def test_peak_is_bounded_by_the_chunk(self):
        _, _, one = self.batch_peak(gaussian_preset(1))
        _, _, eight = self.batch_peak(gaussian_preset(8))
        assert eight <= experiments.CHUNK_BYTES + one

    @staticmethod
    def traced_chunk_peak(cfg):
        """Largest tracemalloc peak of a traced batch's chunks, each run
        on its own, its outcomes dropped before the next one runs."""
        run_batch(cfg, keep_traces=True)
        peaks = []
        for chunk in experiments._chunks(cfg, 1, True):
            tracemalloc.start()
            try:
                experiments._run_chunk(cfg, chunk, True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(peaks)

    def test_peak_is_bounded_when_traces_dominate(self):
        # only a traced batch records per-iteration arrays, and it keeps
        # every trace as its output, so the bound is on each chunk's run
        one = self.traced_chunk_peak(small_gl_config(n_instances=1,
                                                     iters=20000))
        eight = self.traced_chunk_peak(small_gl_config(n_instances=8,
                                                       iters=20000))
        assert eight <= experiments.CHUNK_BYTES + one

    # tracemalloc peaks of one `_run_chunk` per shape (master seed 0,
    # Python 3.11, numpy 2.4), each with about 57 kB of headroom. The
    # group-lasso ones were recorded once each instance held its features
    # once, the factor stack a view of them and the generator's draw
    # frozen into the dataset; the Gaussian one while a stack kept its
    # first rows' stacked factors and compacted them in place as rows
    # left. Binding each product from the rows it holds must not exceed
    # them, nor must the Gaussian chunk's reference polish, which runs
    # after the stack is freed. The slack covers the few hundred bytes of
    # Python objects by which repeated runs of one chunk differ.
    @pytest.mark.parametrize("cfg, keep_traces, recorded", [
        (ExperimentConfig.group_lasso_paper(n_instances=6, master_seed=0),
         True, 1_390_018),
        (ExperimentConfig.group_lasso_paper(n_instances=8, master_seed=0),
         False, 1_672_210),
        (gaussian_preset(4), False, 1_991_811),
        # the shape of bench/large_m_linear.ini: one row at m = 800
        (dataclasses.replace(
            ExperimentConfig.group_lasso_paper(n_instances=1, master_seed=0),
            m=800, iters=200), False, 1_902_092),
    ], ids=["group-lasso-traced-6x5000", "group-lasso-8x5000",
            "gaussian-4x300", "large-m-linear"])
    def test_chunk_peak_does_not_grow(self, cfg, keep_traces, recorded):
        [chunk] = experiments._chunks(cfg, 1, keep_traces)
        experiments._run_chunk(cfg, chunk, keep_traces)
        tracemalloc.start()
        try:
            experiments._run_chunk(cfg, chunk, keep_traces)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= recorded + 4096

    def test_a_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        # a fake pool that records its size and maps in this process, so
        # that no worker starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        expected = run_batch(small_gl_config(n_instances=2), jobs=1)
        for jobs, n_chunks in ((4, 2), (64, 2)):
            cfg = small_gl_config(n_instances=2)
            assert len(experiments._chunks(cfg, jobs)) == n_chunks
            result = run_batch(cfg, jobs=jobs)
            assert result.per_run == expected.per_run
            assert sizes[-1] == n_chunks, jobs

    def test_a_one_chunk_batch_builds_no_pool(self, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a one-chunk batch built a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        cfg = ExperimentConfig.group_lasso_paper(n_instances=1, iters=50)
        expected = run_batch(cfg, jobs=1)
        result = run_batch(cfg, jobs=2)
        assert result.per_run == expected.per_run
        assert result.histogram == expected.histogram

    def test_kept_traces_hold_their_records_only(self):
        result, held, _ = self.batch_peak(gaussian_preset(8),
                                          keep_traces=True)
        records = sum(
            getattr(trace, name).nbytes for trace in result.traces
            for name in ("supports", "objectives", "step_norms")
        )
        # a trace that also held its run's final (G, m) state would add
        # 16 kB, more than its records
        assert held < 1.5 * records

    def test_divergence_names_the_first_instance_whatever_the_chunks(
            self, monkeypatch):
        # instances 2 and 4 diverge; chunks of 1, 3 and 6 all name 2
        cfg = small_gl_config()
        bad = {generate_instance(cfg, i)[0].lam: i for i in (2, 4)}
        real_solve = experiments.solve_with_reference

        def solve(problem, config):
            rows = problem if isinstance(problem, list) else [problem]
            hits = [bad[p.lam] for p in rows if p.lam in bad]
            if hits:
                raise DivergenceError(10 + max(hits))
            return real_solve(problem, config)

        monkeypatch.setattr(experiments, "solve_with_reference", solve)
        per_instance = experiments._row_bytes(cfg)
        for size in (1, 3, 6):
            monkeypatch.setattr(experiments, "CHUNK_BYTES",
                                size * per_instance)
            assert len(experiments._chunks(cfg, 1)) == 6 // size
            with pytest.raises(DivergenceError, match="instance 2") as exc:
                run_batch(cfg, keep_traces=False)
            assert exc.value.iteration == 12

    def test_divergence_error_survives_pickling(self):
        # a worker's error reaches its pool pickled
        err = pickle.loads(pickle.dumps(
            DivergenceError(7, "instance 3: non-finite iterate")))
        assert isinstance(err, DivergenceError)
        assert err.iteration == 7
        assert str(err) == "instance 3: non-finite iterate"


class TestEmission:
    def test_histogram_round_trip(self, tmp_path):
        res = run_batch(small_gl_config(), keep_traces=False)
        path = tmp_path / "hist.csv"
        emit_histogram(res, path)
        # the file holds the histogram, sizes ascending, under its header
        rows = "".join(f"{size},{count}\n"
                       for size, count in sorted(res.histogram.items()))
        assert path.read_text(encoding="utf-8") == "support_size,count\n" + rows

    def test_histogram_format(self, tmp_path):
        cfg = small_gl_config(lam=1.5, n_instances=4)
        res = run_batch(cfg, keep_traces=False)
        path = tmp_path / "hist.csv"
        emit_histogram(res, path)
        assert path.read_bytes() == b"support_size,count\n0,4\n"

    def test_trace_rows_format_each_objective_as_dumps_would(self):
        # repeated values, both zeros, and values whose repr is long:
        # each distinct objective is formatted once, by its bits
        objectives = [1.5, -0.0, 0.0, 1.5, 0.1 + 0.2, -0.0, 1e-300, 0.3,
                      0.1 + 0.2, 0.0]
        supports = np.random.default_rng(0).random((len(objectives), 3)) < 0.5
        # records of iterations 3-12, with events from iteration 1 on
        changed = [0] + [i for i in range(1, len(supports))
                         if (supports[i] != supports[i - 1]).any()]
        trace = SolveTrace(
            change_iters=[1] + [3 + i for i in changed[1:]],
            change_supports=supports[changed],
            objectives=objectives, step_norms=np.zeros(len(objectives)),
            objective=objectives[-1], iters_run=12, final_step_norm=0.0,
        )
        assert (trace.supports == supports).all()
        out = io.StringIO()
        write_trace_rows(out, 4, trace)
        want = [
            json.dumps({"run": 4, "iter": n, "support": [
                int(g) + 1 for g in np.flatnonzero(row)
            ], "objective": obj}, separators=(",", ":"))
            for n, row, obj in zip(range(3, 13), supports, objectives)
        ]
        assert out.getvalue().splitlines() == want
        assert '"objective":-0.0}' in want[1] and '"objective":0.0}' in want[2]

    def test_traces_are_written_in_blocks(self, tmp_path):
        # 6 x 5000 rows, 2.4 MB of JSON lines: the emitter expands the
        # support events one segment at a time and writes blocks of rows
        res = run_batch(ExperimentConfig.group_lasso_paper(n_instances=6,
                                                           master_seed=0))
        path = tmp_path / "traces.jsonl"
        emit_traces(res, path)
        tracemalloc.start()
        try:
            emit_traces(res, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        golden = Path(__file__).parent / "data" / "traces_group_lasso_6x5000.sha256"
        digest, name = golden.read_text().split()
        assert name == path.name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_trace_lines_have_one_based_labels(self, tmp_path):
        cfg = small_gl_config(n_instances=2, iters=25)
        res = run_batch(cfg, keep_traces=True)
        path = tmp_path / "traces.jsonl"
        emit_traces(res, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records, "trace file must not be empty"
        seen_runs = set()
        for rec in records:
            assert set(rec) == {"run", "iter", "support", "objective"}
            seen_runs.add(rec["run"])
            assert all(1 <= g <= cfg.G for g in rec["support"])
            assert rec["support"] == sorted(rec["support"])
        assert seen_runs == {0, 1}

    def test_trace_filter_by_final_size(self, tmp_path):
        cfg = small_gl_config(n_instances=6, iters=60)
        res = run_batch(cfg, keep_traces=True)
        by_size = {}
        for run in res.per_run:
            by_size.setdefault(run.support_size, []).append(run.index)
        size, runs = next(iter(sorted(by_size.items())))
        path = tmp_path / "filtered.jsonl"
        emit_traces(res, path, final_size=size)
        got_runs = {
            json.loads(line)["run"] for line in path.read_text().splitlines()
        }
        assert got_runs == set(runs)

    def test_traces_require_kept_traces(self, tmp_path):
        res = run_batch(small_gl_config(), keep_traces=False)
        with pytest.raises(ContractViolation):
            emit_traces(res, tmp_path / "traces.jsonl")

    def test_summary_echoes_config_and_runs(self, tmp_path):
        cfg = small_gl_config(n_instances=3)
        res = run_batch(cfg, keep_traces=False)
        path = tmp_path / "summary.json"
        emit_summary(res, path)
        doc = json.loads(path.read_text())
        assert doc["config"]["family"] == "group-lasso"
        assert doc["config"]["n_instances"] == 3
        assert len(doc["per_run"]) == 3
        for rec in doc["per_run"]:
            assert all(1 <= g <= cfg.G for g in rec["support"])

    def test_emission_is_byte_deterministic(self, tmp_path):
        cfg = small_gl_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_histogram(run_batch(cfg, keep_traces=False), a)
        emit_histogram(run_batch(cfg, jobs=2, keep_traces=False), b)
        assert a.read_bytes() == b.read_bytes()

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from sparsemkl import experiments
from sparsemkl import (
    BatchResult,
    ContractViolation,
    DivergenceError,
    ExperimentConfig,
    SolverConfig,
    emit_histogram,
    emit_summary,
    emit_traces,
    enumerate_solve,
    generate_instance,
    instance_seed,
    load_histogram,
    qualification_check,
    reference_solve,
    residual,
    run_batch,
    support_of,
)


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

    def test_group_dims_must_sum_to_p(self):
        with pytest.raises(ContractViolation):
            small_gl_config(group_dims=(2, 2, 2, 3))

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
        # support, and a violation is first seen at burn_in. At seed 3
        # and 1000 iterations the Gaussian runs 0-2 fail, run 3 passes
        cfg = preset(n_instances=4, master_seed=3, iters=1000)
        res = run_batch(cfg)
        problems = [generate_instance(cfg, i)[0] for i in range(4)]
        refs = reference_solve(problems, SolverConfig(
            tau_factor=cfg.tau_factor, max_iters=cfg.iters))
        verdicts = []
        for run, trace, problem, ref in zip(res.per_run, res.traces,
                                            problems, refs):
            final = np.isin(np.arange(cfg.G), sorted(run.support))
            assert (trace.supports[trace.iterations >= run.burn_in]
                    == final).all()
            report = qualification_check(ref, problem)
            assert run.sandwich_passed == (
                report.support <= run.support <= report.extended_support)
            assert run.sandwich_first_violation == (
                None if run.sandwich_passed else run.burn_in)
            verdicts.append(run.sandwich_passed)
        if cfg.family == "gaussian-kernel":
            assert verdicts == [False, False, False, True]

    def test_divergence_aborts_naming_instance(self, monkeypatch):
        # with a certified step bound the iteration cannot actually blow
        # up on generated data, so exercise the abort path by stubbing
        # the solve call itself
        import sparsemkl.experiments as experiments

        def exploding_solve(problem, config, alpha0=None):
            raise DivergenceError(3)

        monkeypatch.setattr(experiments, "solve", exploding_solve)
        with pytest.raises(DivergenceError, match="instance 0") as exc:
            run_batch(small_gl_config(), keep_traces=False)
        assert exc.value.iteration == 3


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
        # at the preset's own budget one row's traces exceed the cap
        cfg = gaussian_preset(8, iters=50000)
        assert 50000 * (cfg.G + 24) > experiments.CHUNK_BYTES
        assert [len(c) for c in experiments._chunks(cfg, 1)] == [1] * 8
        # tiny Grams, long traces: the traces set the chunk size
        cfg = small_gl_config(n_instances=8, iters=20000)
        assert 8 * 8 * cfg.G * cfg.m * 2 < experiments.CHUNK_BYTES
        assert [len(c) for c in experiments._chunks(cfg, 1)] == [2, 3, 3]

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

    def test_peak_is_bounded_when_traces_dominate(self):
        _, _, one = self.batch_peak(small_gl_config(n_instances=1,
                                                    iters=20000))
        _, _, eight = self.batch_peak(small_gl_config(n_instances=8,
                                                      iters=20000))
        assert eight <= experiments.CHUNK_BYTES + one

    def test_kept_traces_hold_their_records_only(self):
        result, held, _ = self.batch_peak(gaussian_preset(8),
                                          keep_traces=True)
        assert all(trace._end is None for trace in result.traces)
        records = sum(
            getattr(trace, name).nbytes for trace in result.traces
            for name in ("iterations", "supports", "objectives", "step_norms")
        )
        # an end state would add 16 kB per trace, more than its records
        assert held < 1.5 * records

    def test_divergence_names_the_first_instance_whatever_the_chunks(
            self, monkeypatch):
        # instances 2 and 4 diverge; chunks of 1, 3 and 6 all name 2
        cfg = small_gl_config()
        bad = {generate_instance(cfg, i)[0].lam: i for i in (2, 4)}
        real_solve = experiments.solve

        def solve(problem, config, alpha0=None):
            rows = problem if isinstance(problem, list) else [problem]
            hits = [bad[p.lam] for p in rows if p.lam in bad]
            if hits:
                raise DivergenceError(10 + max(hits))
            return real_solve(problem, config, alpha0)

        monkeypatch.setattr(experiments, "solve", solve)
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
        assert load_histogram(path) == res.histogram

    def test_histogram_format(self, tmp_path):
        cfg = small_gl_config(lam=1.5, n_instances=4)
        res = run_batch(cfg, keep_traces=False)
        path = tmp_path / "hist.csv"
        emit_histogram(res, path)
        assert path.read_bytes() == b"support_size,count\n0,4\n"

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

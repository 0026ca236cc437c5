"""End-to-end checks of the command-line interface.

Every test drives `main(argv)` in-process and inspects exit codes,
stdout/stderr, and the files left in a temporary output directory.
"""

import hashlib
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sparsemkl
from sparsemkl.cli import main
from sparsemkl.core import Dataset, ProblemInstance
from sparsemkl.kernels import LinearGroupProjection, assemble_gram_blocks
from sparsemkl.solver import SolverConfig, solve
from sparsemkl.support import support_of


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ------------------------------------------------------ solve: built-in

EXPECTED_1D_LINES = [
    "supp={1}",
    "esupp={1}",
    "ref_supp={}",
    "qc_holds=false",
    "qc_margin=0.0",
    "cert_norms=1.0",
    "eps_rel=0.0001",
    "objective=0.5",
    "iters_run=50",
    f"final_step_norm={2.0 ** -50!r}",
    "burn_in=1",
    "sandwich=pass",
]


def test_builtin_example_stdout(tmp_path, capsys):
    rc, out, err = run_cli(
        ["solve", "--example", "paper-1d", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    assert err == ""
    assert out.splitlines() == EXPECTED_1D_LINES


def test_builtin_example_report_file(tmp_path, capsys):
    rc, out, _ = run_cli(
        ["solve", "--preset", "paper-1d", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert report == out
    assert report.splitlines() == EXPECTED_1D_LINES


def test_builtin_example_manifest(tmp_path, capsys):
    rc, _, _ = run_cli(
        ["solve", "--example", "paper-1d", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert doc["command"] == "solve"
    assert doc["version"] == sparsemkl.__version__
    assert doc["master_seed"] is None
    assert doc["config"]["preset"] == "paper-1d"
    assert doc["config"]["m"] == 1
    assert doc["config"]["G"] == 1
    assert doc["config"]["iters"] == 50
    assert doc["config"]["tau_factor"] == 0.5
    assert doc["config"]["lambda"] == 1.0
    assert doc["outputs"] == [str(tmp_path / "report.txt")]
    assert set(doc["timings"]) == {"solve_s", "report_s", "total_s"}


def test_builtin_example_trace_file(tmp_path, capsys):
    rc, _, _ = run_cli(
        ["solve", "--example", "paper-1d", "--trace",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "trace.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 50
    # group labels are 1-based on disk
    assert rows[0] == {
        "run": 0, "iter": 1, "support": [1], "objective": 0.625,
    }
    assert rows[-1]["iter"] == 50
    assert all(row["support"] == [1] for row in rows)
    doc = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert str(tmp_path / "trace.jsonl") in doc["outputs"]


def test_builtin_example_report_does_not_depend_on_the_trace(tmp_path,
                                                            capsys):
    # the warm-started run and the reference from zero are two solves;
    # tracing either changes no reported value
    reports = []
    for flags in ([], ["--trace"]):
        out_dir = tmp_path / ("traced" if flags else "untraced")
        rc, _, _ = run_cli(["solve", "--example", "paper-1d", *flags,
                            "--out-dir", str(out_dir)], capsys)
        assert rc == 0
        reports.append((out_dir / "report.txt").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0].decode().splitlines() == EXPECTED_1D_LINES


def test_only_the_reported_run_is_traced(tmp_path, capsys, monkeypatch):
    # paper-1d reports a warm-started run, so its reference from zero runs
    # untraced; a file's problem reports the run from zero, traced
    import sparsemkl.cli as cli

    traced = []
    original = cli.solve_with_reference

    def spy(problem, config):
        traced.append(config.record_trace)
        return original(problem, config)

    monkeypatch.setattr(cli, "solve_with_reference", spy)
    cfg = write_two_group_inputs(tmp_path)
    for source, want in ((["--example", "paper-1d"], False),
                         (["--config", str(cfg)], True)):
        traced.clear()
        out_dir = tmp_path / source[0].lstrip("-")
        rc, _, _ = run_cli(["solve", *source, "--trace",
                            "--out-dir", str(out_dir)], capsys)
        assert rc == 0, source
        assert traced == [want], source
        assert (out_dir / "trace.jsonl").read_text(), source


def test_solve_dry_run_prints_config_and_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "never"
    rc, out, _ = run_cli(
        ["solve", "--example", "paper-1d", "--dry-run",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    assert not out_dir.exists()
    assert out.splitlines() == [
        "G=1",
        "eps_rel=0.0001",
        "iters=50",
        "lambda=1.0",
        "m=1",
        "preset=paper-1d",
        "stop_tol=0.0",
        "tau_factor=0.5",
    ]


# -------------------------------------------------- solve: config files

def write_two_group_inputs(tmp_path, y0=3.0, y1=0.5):
    data = tmp_path / "data.csv"
    data.write_text(f"1,0,{y0}\n0,1,{y1}\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[problem]\n"
        f"data = {data}\n"
        "family = group-lasso\n"
        "group_dims = 1,1\n"
        "lambda = 1.0\n"
        "[solver]\n"
        "tau_factor = 0.8\n"
        "iters = 400\n",
        encoding="utf-8",
    )
    return cfg


def test_solve_from_config_matches_library(tmp_path, capsys):
    cfg = write_two_group_inputs(tmp_path)
    rc, out, _ = run_cli(
        ["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert rc == 0

    dataset = Dataset(np.eye(2), np.array([3.0, 0.5]))
    gram = assemble_gram_blocks(dataset, LinearGroupProjection((1, 1)))
    problem = ProblemInstance(dataset=dataset, gram=gram, lam=1.0)
    coeffs, trace = solve(problem, SolverConfig(
        tau_factor=0.8, max_iters=400, record_trace=True,
    ))
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["supp"] == "{1}"
    assert support_of(coeffs) == {0}
    assert lines["esupp"] == "{1}"
    assert lines["qc_holds"] == "true"
    assert lines["objective"] == repr(float(trace.objectives[-1]))
    assert lines["iters_run"] == str(trace.iters_run)


def test_solve_lambda_override(tmp_path, capsys):
    # weight above both certificate norms kills every group
    cfg = write_two_group_inputs(tmp_path)
    rc, out, _ = run_cli(
        ["solve", "--config", str(cfg), "--lambda", "4.0",
         "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert rc == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["supp"] == "{}"
    assert lines["esupp"] == "{}"
    assert lines["qc_holds"] == "true"


def test_solve_a_duplicated_group_matches_recorded_report(tmp_path, capsys,
                                                         polished):
    # group 1 repeats group 0's columns, so the two groups' columns K_g r
    # are equal, the polish refuses, and the reference is the replay from
    # zero. tests/data holds the report.txt recorded when that reference
    # was the production trajectory continued; the replay keeps its bits
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 6))
    data = tmp_path / "dup.npz"
    np.savez(data, points=np.hstack([X[:, :2], X]),
             responses=rng.standard_normal(12))
    cfg = tmp_path / "dup.ini"
    cfg.write_text(
        "[problem]\n"
        f"data = {data}\n"
        "family = group-lasso\n"
        "group_dims = 2, 2, 2, 2\n"
        "lambda = 0.3\n"
        "[solver]\n"
        "iters = 200\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["solve", "--config", str(cfg), "--out-dir", str(out_dir)], capsys,
    )
    assert rc == 0
    assert polished == [False]
    golden = Path(__file__).parent / "data" / "report_duplicated_group.txt"
    assert (out_dir / "report.txt").read_bytes() == golden.read_bytes()


def test_solve_missing_config_is_a_usage_error(capsys):
    rc, _, err = run_cli(["solve"], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert "--config" in err


def test_solve_rejects_bad_flag_values(tmp_path, capsys):
    base = ["solve", "--example", "paper-1d", "--out-dir", str(tmp_path)]
    for extra in (["--iters", "0"], ["--lambda", "-1.0"],
                  ["--tau-factor", "2.5"]):
        rc, _, err = run_cli(base + extra, capsys)
        assert rc == 1, extra
        assert err.startswith("error:"), extra


def test_solve_rejects_bad_eps_rel_before_solving(tmp_path, capsys,
                                                  monkeypatch):
    # outside [0, 1) is rejected by a dry run too, and before any solve
    import sparsemkl.cli as cli

    def no_solve(*args):
        raise AssertionError("solved before --eps-rel was checked")

    monkeypatch.setattr(cli, "solve_with_reference", no_solve)
    base = ["solve", "--example", "paper-1d", "--out-dir", str(tmp_path)]
    for value in ("2", "1", "-0.5", "nan"):
        for dry in ([], ["--dry-run"]):
            rc, out, err = run_cli(base + ["--eps-rel", value] + dry, capsys)
            assert rc == 1, (value, dry)
            assert "--eps-rel" in err, (value, dry)
            assert out == "", (value, dry)
    assert not (tmp_path / "report.txt").exists()


def test_solve_checks_its_flags_before_reading_files(tmp_path, capsys,
                                                     monkeypatch):
    # a bad flag fails before the dataset is loaded or its Gram assembled
    import sparsemkl.cli as cli

    def no_read(*args):
        raise AssertionError("read a file before the flags were checked")

    monkeypatch.setattr(cli, "_load_dataset", no_read)
    monkeypatch.setattr(cli, "assemble_gram_blocks", no_read)
    cfg = write_two_group_inputs(tmp_path)
    for flag, value, message in (
        ("--iters", "0", "--iters must be >= 1"),
        ("--lambda", "-1", "--lambda must be positive and finite"),
        ("--lambda", "nan", "--lambda must be positive and finite"),
        ("--lambda", "inf", "--lambda must be positive and finite"),
        ("--eps-rel", "1.5", "--eps-rel must lie in [0, 1)"),
        ("--tau-factor", "2.5", "--tau-factor must lie in (0, 2)"),
        ("--tau-factor", "0", "--tau-factor must lie in (0, 2)"),
        ("--tau-factor", "nan", "--tau-factor must lie in (0, 2)"),
    ):
        rc, out, err = run_cli(["solve", "--config", str(cfg), flag, value,
                                "--dry-run"], capsys)
        assert rc == 1, (flag, value)
        assert err.startswith("error:") and message in err, (flag, value)
        assert out == "", (flag, value)


def test_unknown_flag_exits_one(tmp_path, capsys):
    # --seed and --jobs are batch flags; verify takes none of the
    # problem flags either
    out = ["--out-dir", str(tmp_path), "--dry-run"]
    for argv in (
        ["solve", "--no-such-flag"],
        ["solve", "--example", "paper-1d", "--seed", "3", *out],
        ["solve", "--example", "paper-1d", "--jobs", "2", *out],
        ["verify", "--jobs", "2", *out],
        ["verify", "--seed", "3", *out],
        ["verify", "--config", "run.ini", *out],
        ["verify", "--iters", "5", *out],
        ["verify", "--lambda", "1.0", *out],
        ["verify", "--tau-factor", "0.5", *out],
        ["verify", "--preset", "paper-1d", *out],
    ):
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1, argv
        assert err.startswith("error:"), argv


def test_preset_and_example_are_one_option(tmp_path, capsys):
    runs = {}
    for flag in ("--preset", "--example"):
        out_dir = tmp_path / flag.strip("-")
        argv = ["solve", flag, "paper-1d", "--out-dir", str(out_dir)]
        dry = run_cli(argv + ["--dry-run"], capsys)
        assert run_cli(argv, capsys)[0] == 0
        runs[flag] = dry, (out_dir / "report.txt").read_bytes()
    assert runs["--preset"] == runs["--example"]
    assert runs["--preset"][0][0] == 0


# each names its two sources
CONFLICTING_SOURCES = {
    "example-and-preset": (["solve", "--example", "paper-1d", "--preset",
                            "nonsense"], ("--example", "--preset")),
    "example-and-config": (["solve", "--example", "paper-1d", "--config",
                            "{ini}"], ("--example", "--config")),
    "preset-and-config": (["batch", "--preset", "group-lasso-paper",
                           "--config", "{ini}"], ("--preset", "--config")),
}


@pytest.mark.parametrize("case", CONFLICTING_SOURCES)
def test_conflicting_sources_exit_one(tmp_path, capsys, case):
    argv, flags = CONFLICTING_SOURCES[case]
    ini = write_batch_ini(tmp_path)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(
        [arg.format(ini=ini) for arg in argv] + ["--out-dir", str(out_dir)],
        capsys,
    )
    assert (rc, out) == (1, "")
    assert err.startswith("error:")
    assert all(flag in err for flag in flags)
    assert not out_dir.exists()


def test_solve_ini_keys_left_out_take_the_library_defaults(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("1,0,3.0\n0,1,0.5\n", encoding="utf-8")
    problem = (f"[problem]\ndata = {data}\nfamily = group-lasso\n"
               "group_dims = 1,1\nlambda = 1.0\n")
    bare = tmp_path / "bare.ini"
    bare.write_text(problem, encoding="utf-8")
    spelled = tmp_path / "spelled.ini"
    spelled.write_text(problem + "[solver]\n"
                       "tau_factor = 0.8\niters = 1000\nstop_tol = 0\n",
                       encoding="utf-8")
    dry = [run_cli(["solve", "--config", str(cfg), "--dry-run"], capsys)
           for cfg in (bare, spelled)]
    assert dry[0] == dry[1]
    assert dry[0][0] == 0 and dry[0][2] == ""


def test_unknown_ini_key_named_in_error(tmp_path, capsys):
    cfg = write_two_group_inputs(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    # a removed option, and a key of the other kernel family
    for edited, key, section in (
        (text + "trace_stride = 5\n", "trace_stride", "[solver]"),
        (text.replace("[solver]", "sigmas = 1.0\n[solver]"), "sigmas",
         "[problem]"),
    ):
        cfg.write_text(edited, encoding="utf-8")
        rc, _, err = run_cli(
            ["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert rc == 1, key
        assert f"'{key}'" in err and section in err


def test_readme_solve_config_parses(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    ini = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(ini, encoding="utf-8")
    np.savetxt(tmp_path / "data.csv", np.eye(4, 7), delimiter=",")
    rc, out, err = run_cli(["solve", "--config", "run.ini", "--dry-run"],
                           capsys)
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "G=3",
        "eps_rel=0.0001",
        "iters=10000",
        "lambda=1.0",
        "m=4",
        "preset=None",
        "stop_tol=1e-12",
        "tau_factor=0.8",
    ]


# one error each; the whole message is pinned
SOLVE_INI_ERRORS = {
    "no-section": ("", "missing section [problem]"),
    "no-data": ("family = group-lasso\ngroup_dims = 1,1\nlambda = 1.0\n",
                "missing key 'data' in section [problem]"),
    "no-family": ("data = {data}\ngroup_dims = 1,1\nlambda = 1.0\n",
                  "missing key 'family' in section [problem]"),
    "bad-family": ("data = {data}\nfamily = lasso\ngroup_dims = 1,1\n"
                   "lambda = 1.0\n",
                   "bad value for 'family' in section [problem]: 'lasso'"),
    "no-group-dims": ("data = {data}\nfamily = group-lasso\nlambda = 1.0\n",
                      "missing key 'group_dims' in section [problem]"),
    "bad-sigmas": ("data = {data}\nfamily = gaussian-kernel\nsigmas = 1,x\n"
                   "lambda = 1.0\n",
                   "bad value for 'sigmas' in section [problem]: '1,x'"),
    "other-family-key": ("data = {data}\nfamily = gaussian-kernel\n"
                         "sigmas = 1,2\ngroup_dims = 1,1\nlambda = 1.0\n",
                         "unknown key 'group_dims' in section [problem]"),
    "no-lambda": ("data = {data}\nfamily = group-lasso\ngroup_dims = 1,1\n",
                  "missing key 'lambda' in section [problem]"),
    "bad-solver-iters": ("data = {data}\nfamily = group-lasso\n"
                         "group_dims = 1,1\nlambda = 1.0\n[solver]\n"
                         "iters = many\n",
                         "bad value for 'iters' in section [solver]: 'many'"),
    "unknown-solver-key": ("data = {data}\nfamily = group-lasso\n"
                           "group_dims = 1,1\nlambda = 1.0\n[solver]\n"
                           "tol = 1\n",
                           "unknown key 'tol' in section [solver]"),
    # λ has one spelling: the weight on the group norms
    "lambda-convention": ("data = {data}\nfamily = group-lasso\n"
                          "group_dims = 1,1\nlambda = 1.0\n"
                          "lambda_convention = raw\n",
                          "unknown key 'lambda_convention' in section "
                          "[problem]"),
}


@pytest.mark.parametrize("case", SOLVE_INI_ERRORS)
def test_solve_ini_error_messages(tmp_path, capsys, case):
    body, message = SOLVE_INI_ERRORS[case]
    data = tmp_path / "data.csv"
    data.write_text("1,0,3.0\n0,1,0.5\n", encoding="utf-8")
    cfg = tmp_path / "run.ini"
    section = "[problem]\n" if body else ""
    cfg.write_text(section + body.format(data=data), encoding="utf-8")
    rc, out, err = run_cli(["solve", "--config", str(cfg), "--dry-run"],
                           capsys)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["solve", "batch"])
def test_non_utf8_config_message(tmp_path, capsys, command):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes("[problem]\n# caf\u00e9\n".encode("latin-1"))
    rc, out, err = run_cli([command, "--config", str(cfg), "--dry-run"],
                           capsys)
    assert (rc, out, err) == (
        1, "", f"error: cannot parse {cfg}: 'utf-8' codec can't decode byte "
        "0xe9 in position 15: invalid continuation byte\n")


def _truncated_npz(path):
    np.savez(path, points=np.ones((2, 2)), responses=np.ones(2))
    path.write_bytes(path.read_bytes()[:100])


def _damaged_npz(path):
    # one flipped byte in the first float of the first member
    np.savez(path, points=np.ones((2, 2)), responses=np.ones(2))
    data = bytearray(path.read_bytes())
    data[data.index(np.float64(1.0).tobytes())] ^= 0xFF
    path.write_bytes(bytes(data))


def _npy_as_npz(path):
    with open(path, "wb") as f:
        np.save(f, np.ones((2, 2)))


# .npz datasets that do not load; the whole message is pinned
BAD_NPZ_DATASETS = {
    "pickle": (lambda path: path.write_bytes(pickle.dumps({"points": 1})),
               "not a zip archive"),
    "truncated": (_truncated_npz, "not a zip archive"),
    "npy": (_npy_as_npz, "not a zip archive"),
    "object-arrays": (
        lambda path: np.savez(path, points=np.array([[1, None]] * 2),
                              responses=np.ones(2)),
        "Object arrays cannot be loaded when allow_pickle=False"),
    "string-arrays": (
        lambda path: np.savez(path, points=np.array([["a", "b"]] * 2),
                              responses=np.ones(2)),
        f"could not convert string to float: {np.str_('a')!r}"),
    "bad-crc": (_damaged_npz, "Bad CRC-32 for file 'points.npy'"),
}


@pytest.mark.parametrize("case", BAD_NPZ_DATASETS)
def test_bad_npz_dataset_messages(tmp_path, capsys, case):
    write, reason = BAD_NPZ_DATASETS[case]
    data = tmp_path / "data.npz"
    write(data)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[problem]\ndata = {data}\nfamily = group-lasso\n"
                   "group_dims = 1,1\nlambda = 1.0\n", encoding="utf-8")
    rc, out, err = run_cli(["solve", "--config", str(cfg), "--dry-run"],
                           capsys)
    assert (rc, out, err) == (
        1, "", f"error: cannot parse .npz dataset {data}: {reason}\n")


def test_solve_gaussian_kernel_from_npz(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "data.npz"
    np.savez(data, points=rng.standard_normal((6, 2)),
             responses=rng.standard_normal(6))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[problem]\ndata = {data}\nfamily = gaussian-kernel\n"
                   "sigmas = 0.5, 2.0\nlambda = 0.1\n[solver]\niters = 200\n",
                   encoding="utf-8")
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(
        ["solve", "--config", str(cfg), "--out-dir", str(out_dir)], capsys,
    )
    assert (rc, err) == (0, "")
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert report == out
    assert [line.split("=", 1)[0] for line in report.splitlines()] == [
        line.split("=", 1)[0] for line in EXPECTED_1D_LINES
    ]
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert doc["config"]["G"] == 2 and doc["config"]["m"] == 6
    assert doc["outputs"] == [str(out_dir / "report.txt")]


def test_npz_dataset_is_loaded_without_a_copy(tmp_path):
    # the archive's float arrays become the dataset's, frozen in place;
    # a Fortran-ordered one is still copied to C order. The peak's
    # excess over the points is numpy's read buffer, 256 kB
    from sparsemkl.cli import _load_dataset

    rng = np.random.default_rng(0)
    points = rng.standard_normal((2000, 100))
    for order in ("C", "F"):
        data = tmp_path / f"data_{order}.npz"
        np.savez(data, points=np.asarray(points, order=order),
                 responses=rng.standard_normal(2000))
        tracemalloc.start()
        try:
            dataset = _load_dataset(str(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(dataset.points, points)
        assert not dataset.points.flags.writeable
        assert dataset.points.flags.c_contiguous
        if order == "C":
            assert peak < 1.5 * points.nbytes
            assert not dataset.points.base.flags.writeable


def test_missing_dataset_file_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[problem]\ndata = /nope/missing.csv\nfamily = group-lasso\n"
        "group_dims = 1\nlambda = 1.0\n",
        encoding="utf-8",
    )
    rc, _, err = run_cli(["solve", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "/nope/missing.csv" in err


def test_divergent_problem_exits_two(tmp_path, capsys):
    # response far above the overflow horizon: the first residual step
    # sends the objective to inf and the solver aborts
    cfg = write_two_group_inputs(tmp_path, y0=1e200, y1=0.0)
    rc, _, err = run_cli(
        ["solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert rc == 2
    assert err.startswith("error: solver diverged:")


def test_unwritable_out_dir_exits_three(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    rc, _, err = run_cli(
        ["solve", "--example", "paper-1d", "--out-dir", str(blocker)],
        capsys,
    )
    assert rc == 3
    assert err.startswith("error: I/O failure:")


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 EiB for an array")


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    # injected where each command allocates its problems: Gram assembly
    # for `solve --config`, instance generation for `batch`, whose
    # message names the chunk and the bytes predicted for it
    import sparsemkl.cli as cli
    import sparsemkl.experiments as experiments

    monkeypatch.setattr(cli, "assemble_gram_blocks", out_of_memory)
    monkeypatch.setattr(experiments, "generate_instance", out_of_memory)
    cfg = write_two_group_inputs(tmp_path)
    predicted = 2 * experiments._row_bytes(
        experiments.ExperimentConfig.group_lasso_paper(n_instances=2,
                                                       iters=10),
        keep_traces=False,
    )
    for argv, where in (
        (["solve", "--config", str(cfg)], ""),
        (["batch", "--preset", "group-lasso-paper", "--instances", "2",
          "--iters", "10"],
         f"instances 0-1, a chunk predicted to take {predicted} bytes: "),
    ):
        out_dir = tmp_path / argv[0]
        rc, out, err = run_cli(argv + ["--out-dir", str(out_dir)], capsys)
        assert rc == 1, argv
        assert err == (f"error: out of memory: {where}Unable to allocate "
                       "8.00 EiB for an array\n"), argv
        assert out == "" and not out_dir.exists(), argv


def test_a_chunk_out_of_memory_names_its_instances(monkeypatch):
    # the message is the whole of the error, so a pool's pickling keeps it
    import sparsemkl.experiments as experiments

    monkeypatch.setattr(experiments, "generate_instance", out_of_memory)
    config = experiments.ExperimentConfig.gaussian_kernel_paper(
        n_instances=8, iters=300)
    with pytest.raises(MemoryError) as exc:
        experiments._run_chunk(config, range(4, 8), True)
    predicted = 4 * experiments._row_bytes(config, True)
    message = (f"instances 4-7, a chunk predicted to take {predicted} "
               "bytes: Unable to allocate 8.00 EiB for an array")
    assert str(exc.value) == message
    assert str(pickle.loads(pickle.dumps(exc.value))) == message


# ---------------------------------------------------------------- batch

def write_batch_ini(tmp_path, **overrides):
    fields = {
        "family": "group-lasso",
        "m": 8,
        "G": 4,
        "s": 2,
        "lambda": 0.3,
        "p": 8,
        "group_dims": "2,2,2,2",
        "noise_std": 0.01,
        "n_instances": 4,
        "iters": 400,
    }
    fields.update(overrides)
    cfg = tmp_path / "batch.ini"
    cfg.write_text(
        "[experiment]\n"
        + "".join(f"{k} = {v}\n" for k, v in fields.items()),
        encoding="utf-8",
    )
    return cfg


def test_batch_tiny_config(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path)
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(
        ["batch", "--config", str(cfg), "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "instances=4"
    assert lines[1].startswith("histogram=")
    assert lines[2].startswith("sandwich_pass=")

    csv = (out_dir / "histogram.csv").read_text(encoding="utf-8").splitlines()
    assert csv[0] == "support_size,count"
    counts = [int(row.split(",")[1]) for row in csv[1:]]
    assert sum(counts) == 4

    summary = json.loads((out_dir / "summary.json").read_text())
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert doc["command"] == "batch"
    assert doc["master_seed"] == 0
    assert doc["config"]["n_instances"] == 4
    assert str(out_dir / "histogram.csv") in doc["outputs"]
    assert str(out_dir / "summary.json") in doc["outputs"]
    timings = doc["timings"]
    assert set(timings) == {"batch_s", "emit_s", "total_s"}
    assert 0 <= timings["emit_s"] <= timings["total_s"]
    assert len(summary["per_run"]) == 4
    assert summary["config"]["n_instances"] == 4


def test_batch_seed_flag_lands_in_manifest(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path)
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch", "--config", str(cfg), "--seed", "7",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert doc["master_seed"] == 7
    assert doc["config"]["master_seed"] == 7


def test_batch_byte_identical_outputs(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc, _, _ = run_cli(
            ["batch", "--config", str(cfg), "--out-dir", str(d)], capsys,
        )
        assert rc == 0
    for name in ("histogram.csv", "summary.json"):
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name


def test_batch_trace_output(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path, n_instances=2)
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch", "--config", str(cfg), "--trace", "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (out_dir / "traces.jsonl").read_text().splitlines()
    ]
    assert {row["run"] for row in rows} == {0, 1}
    assert all(set(row) == {"run", "iter", "support", "objective"}
               for row in rows)
    assert all(
        all(1 <= g <= 4 for g in row["support"]) for row in rows
    )


def test_batch_trace_matches_recorded_output(tmp_path, capsys):
    # tests/data holds this command's histogram.csv and traces.jsonl as
    # written before the trace supports became bool rows
    data = Path(__file__).parent / "data"
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch", "--preset", "group-lasso-paper", "--instances", "2",
         "--iters", "300", "--trace", "--seed", "0",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    assert ((out_dir / "histogram.csv").read_bytes()
            == (data / "histogram.csv").read_bytes())
    lines = (out_dir / "traces.jsonl").read_text().splitlines()
    golden = (data / "traces.jsonl").read_text().splitlines()
    assert len(lines) == len(golden) == 600
    for line, want in zip(lines, golden):
        row, want = json.loads(line), json.loads(want)
        assert line == json.dumps(row, separators=(",", ":"))
        assert (row["run"], row["iter"], row["support"]) == (
            want["run"], want["iter"], want["support"]
        )
        assert row["objective"] == pytest.approx(want["objective"], rel=1e-12)


@pytest.mark.parametrize("argv, golden", [
    # instances 1 and 4-7 end at a step of at most 1e-12 and are their
    # own references; those of 0, 2 and 3 are polished at 600
    (["--preset", "group-lasso-paper", "--instances", "8", "--iters", "600"],
     "summary_group_lasso_8x600.json"),
    # every reference is polished at the 300 production iterations
    (["--preset", "gaussian-kernel-paper", "--instances", "4",
      "--iters", "300"],
     "summary_gaussian_4x300.json"),
], ids=["group-lasso", "gaussian"])
def test_batch_summary_matches_recorded_output(tmp_path, capsys, argv, golden):
    # tests/data holds these commands' summary.json, reference-dependent
    # fields (qc_margin, sandwich_*, burn_in) included
    data = Path(__file__).parent / "data"
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch"] + argv + ["--seed", "0", "--out-dir", str(out_dir)], capsys,
    )
    assert rc == 0
    assert ((out_dir / "summary.json").read_bytes()
            == (data / golden).read_bytes())


def test_batch_full_budget_trace_matches_recorded_output(tmp_path, capsys):
    # at the preset's own 5000 iterations instances 0-5 (seed 0) end in
    # exact cycles of periods 4, 2, 2, 1, 1 and 9, whose records the
    # solver tiles over the iterations it skips; tests/data holds this
    # command's histogram.csv and summary.json, and the sha256 of its
    # 2.4 MB traces.jsonl
    data = Path(__file__).parent / "data"
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch", "--preset", "group-lasso-paper", "--trace",
         "--instances", "6", "--seed", "0", "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    for name, golden in (("histogram.csv", "histogram_group_lasso_6x5000.csv"),
                         ("summary.json", "summary_group_lasso_6x5000.json")):
        assert (out_dir / name).read_bytes() == (data / golden).read_bytes()
    digest, name = (data / "traces_group_lasso_6x5000.sha256").read_text().split()
    assert name == "traces.jsonl"
    got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("flags, message", [
    (["--trace-size", "5"], "needs --trace"),
    (["--trace", "--trace-size", "-3"], "[0, G=20]"),
    (["--trace", "--trace-size", "21"], "[0, G=20]"),
    (["--instances", "0"], "--instances must be >= 1"),
], ids=["without-trace", "negative", "above-G", "no-instances"])
def test_batch_rejects_bad_trace_size(tmp_path, capsys, flags, message):
    # a dry run rejects what the real run would, before any output
    out_dir = tmp_path / "out"
    for dry in ([], ["--dry-run"]):
        rc, out, err = run_cli(
            ["batch", "--preset", "group-lasso-paper", "--instances", "1",
             "--iters", "5", "--out-dir", str(out_dir), *flags, *dry],
            capsys,
        )
        assert rc == 1
        assert err.startswith("error:") and message in err
        assert out == ""
        assert not out_dir.exists()


@pytest.mark.parametrize("size", [0, 20])
def test_batch_accepts_trace_size_bounds(tmp_path, capsys, size):
    out_dir = tmp_path / "out"
    rc, _, _ = run_cli(
        ["batch", "--preset", "group-lasso-paper", "--instances", "1",
         "--iters", "5", "--trace", "--trace-size", str(size),
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    # no run ends with an empty or a full support here
    assert (out_dir / "traces.jsonl").read_bytes() == b""


def test_batch_preset_dry_run(capsys):
    rc, out, _ = run_cli(
        ["batch", "--preset", "group-lasso-paper", "--dry-run"], capsys,
    )
    assert rc == 0
    lines = dict(line.split("=", 1) for line in out.splitlines())
    assert lines["family"] == "group-lasso"
    assert lines["m"] == "50"
    assert lines["G"] == "20"
    assert lines["iters"] == "5000"
    assert lines["n_instances"] == "200"


def test_batch_unknown_preset_exits_one(capsys):
    rc, _, err = run_cli(["batch", "--preset", "nope"], capsys)
    assert rc == 1
    assert "nope" in err


def test_batch_rejects_bad_worker_count(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path)
    rc, _, err = run_cli(
        ["batch", "--config", str(cfg), "--jobs", "0"], capsys,
    )
    assert rc == 1
    assert "--jobs" in err
    # a dry run rejects what the real run would
    rc, out, err = run_cli(
        ["batch", "--preset", "group-lasso-paper", "--dry-run", "--jobs", "0"],
        capsys,
    )
    assert rc == 1
    assert "--jobs" in err
    assert out == ""


def test_batch_checks_its_flags_before_reading_files(tmp_path, capsys,
                                                     monkeypatch):
    # a bad flag is named before the config file is read, even when
    # the file does not exist
    import sparsemkl.cli as cli

    def no_read(*args):
        raise AssertionError("read a file before the flags were checked")

    monkeypatch.setattr(cli, "_read_ini", no_read)
    for flags, message in (
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--instances", "0"], "--instances must be >= 1"),
        (["--trace-size", "3"], "--trace-size needs --trace"),
        (["--iters", "0"], "--iters must be >= 1"),
        (["--lambda", "nan"], "--lambda must be positive and finite"),
        (["--tau-factor", "2.5"], "--tau-factor must lie in (0, 2)"),
    ):
        rc, out, err = run_cli(
            ["batch", "--config", str(tmp_path / "missing.ini"), *flags,
             "--dry-run"], capsys,
        )
        assert rc == 1, flags
        assert err.startswith("error:") and message in err, flags
        assert out == "", flags


def test_batch_unknown_key_named_in_error(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path, master_sead=3)
    rc, _, err = run_cli(["batch", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "'master_sead'" in err and "[experiment]" in err


def test_batch_missing_key_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "batch.ini"
    cfg.write_text("[experiment]\nfamily = group-lasso\n", encoding="utf-8")
    rc, _, err = run_cli(["batch", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "[experiment]" in err


# each preset's fields, spelled out as an [experiment] section
PRESET_INIS = {
    "group-lasso-paper": {
        "family": "group-lasso", "m": 50, "G": 20, "s": 5, "lambda": 0.2,
        "p": 100, "noise_std": 0.01, "n_instances": 200, "iters": 5000,
        "tau_factor": 0.8, "master_seed": 0, "group_dims": ",".join("5" * 20),
    },
    "gaussian-kernel-paper": {
        "family": "gaussian-kernel", "m": 50, "G": 20, "s": 5, "lambda": 0.2,
        "p": 2, "noise_std": 0.01, "n_instances": 200, "iters": 50000,
        "tau_factor": 0.8, "master_seed": 0, "sigma_range": "0.1, 10",
    },
}


@pytest.mark.parametrize("preset", PRESET_INIS)
def test_batch_ini_spelling_out_a_preset_is_that_preset(tmp_path, capsys,
                                                         preset):
    cfg = tmp_path / "batch.ini"
    cfg.write_text("[experiment]\n" + "".join(
        f"{k} = {v}\n" for k, v in PRESET_INIS[preset].items()
    ), encoding="utf-8")
    flags = ["--dry-run", "--instances", "3", "--seed", "7"]
    from_ini = run_cli(["batch", "--config", str(cfg)] + flags, capsys)
    from_preset = run_cli(["batch", "--preset", preset] + flags, capsys)
    assert from_ini[0] == 0 and from_ini[2] == ""
    assert from_ini == from_preset


# one error each (write_batch_ini's fields, edited); the whole message is
# pinned
BATCH_INI_ERRORS = {
    "no-family": ({"family": None},
                  "missing key 'family' in section [experiment]"),
    "bad-family": ({"family": "lasso"},
                   "invalid [experiment] config: family must be one of "
                   "('group-lasso', 'gaussian-kernel'), got 'lasso'"),
    "no-iters": ({"iters": None},
                 "missing key 'iters' in section [experiment]"),
    "bad-m": ({"m": "eight"},
              "bad value for 'm' in section [experiment]: 'eight'"),
    "no-group-dims": ({"group_dims": None},
                      "missing key 'group_dims' in section [experiment]"),
    "other-family-key": ({"family": "gaussian-kernel", "p": 2,
                          "sigma_range": "0.5,2"},
                         "unknown key 'group_dims' in section [experiment]"),
    "group-dims-sum": ({"group_dims": "2,2,2,1"},
                       "invalid [experiment] config: group_dims sums to 7 "
                       "but p=8"),
    "zero-group-dim": ({"G": 3, "p": 6, "group_dims": "0,3,3"},
                       "invalid [experiment] config: group_dims must be "
                       ">= 1, got (0, 3, 3)"),
    "negative-group-dim": ({"G": 3, "p": 6, "group_dims": "-1,4,3"},
                           "invalid [experiment] config: group_dims must be "
                           ">= 1, got (-1, 4, 3)"),
    "one-sigma": ({"family": "gaussian-kernel", "p": 2, "group_dims": None,
                   "sigma_range": "0.5"},
                  "invalid [experiment] config: sigma_range must be lo, hi "
                  "with 0 < lo <= hi, got (0.5,)"),
    "three-sigmas": ({"family": "gaussian-kernel", "p": 2, "group_dims": None,
                      "sigma_range": "0.1, 1, 10"},
                     "invalid [experiment] config: sigma_range must be lo, "
                     "hi with 0 < lo <= hi, got (0.1, 1.0, 10.0)"),
    "bad-tau-factor": ({"tau_factor": 2.5},
                       "invalid [experiment] config: tau_factor must lie "
                       "in (0, 2), got 2.5"),
    "zero-response": ({"s": 0, "noise_std": 0},
                      "invalid [experiment] config: s = 0 with noise_std = 0 "
                      "makes every response zero, which leaves the relative "
                      "lam nothing to scale"),
}


@pytest.mark.parametrize("case", BATCH_INI_ERRORS)
def test_batch_ini_error_messages(tmp_path, capsys, case):
    edits, message = BATCH_INI_ERRORS[case]
    cfg = write_batch_ini(tmp_path, **edits)
    cfg.write_text("".join(line for line in cfg.read_text().splitlines(True)
                           if not line.endswith("= None\n")))
    rc, out, err = run_cli(["batch", "--config", str(cfg), "--dry-run"],
                           capsys)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_batch_lambda_flag_is_named_in_its_error(tmp_path, capsys):
    # NaN is not positive: the flag fails, not the config field it sets
    cfg = write_batch_ini(tmp_path)
    for value in ("nan", "inf", "0"):
        rc, out, err = run_cli(["batch", "--config", str(cfg), "--lambda",
                                value, "--dry-run"], capsys)
        assert (rc, out, err) == (
            1, "", "error: --lambda must be positive and finite\n"), value


def test_batch_zero_response_fails_before_any_instance(tmp_path, capsys):
    cfg = write_batch_ini(tmp_path, s=0, noise_std=0)
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(
        ["batch", "--config", str(cfg), "--out-dir", str(out_dir)], capsys,
    )
    assert (rc, out) == (1, "")
    assert err.startswith("error: invalid [experiment] config: s = 0 with ")
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["zero-group-dim", "one-sigma"])
def test_batch_bad_family_field_fails_before_any_instance(tmp_path, capsys,
                                                          case):
    # the run without --dry-run fails as the dry run does, with the
    # config's message and not a traceback
    edits, message = BATCH_INI_ERRORS[case]
    cfg = write_batch_ini(tmp_path, **edits)
    cfg.write_text("".join(line for line in cfg.read_text().splitlines(True)
                           if not line.endswith("= None\n")))
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(
        ["batch", "--config", str(cfg), "--out-dir", str(out_dir)], capsys,
    )
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_batch_ini_without_its_section(tmp_path, capsys):
    cfg = tmp_path / "batch.ini"
    cfg.write_text("[solver]\niters = 5\n", encoding="utf-8")
    rc, out, err = run_cli(["batch", "--config", str(cfg)], capsys)
    assert (rc, out, err) == (1, "", "error: missing section [experiment]\n")


# --------------------------------------------------------------- verify

def test_verify_lattice_passes(tmp_path, capsys):
    rc, out, _ = run_cli(
        ["verify", "--lattice-G", "3", "--out-dir", str(tmp_path)], capsys,
    )
    assert rc == 0
    assert out.splitlines() == [
        "lattice G=1: pass",
        "lattice G=2: pass",
        "lattice G=3: pass",
    ]
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["command"] == "verify"
    assert doc["config"]["lattice_G"] == 3


def test_verify_oracle_suite(tmp_path, capsys):
    rc, out, _ = run_cli(
        ["verify", "--lattice-G", "1", "--oracle-suite", "small",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lattice G=1: pass"
    suite = [line for line in lines[1:]]
    assert len(suite) == 12
    assert all(": pass [" in line for line in suite)
    assert suite[0].startswith("oracle case 0 solver-vs-enumeration")


def test_verify_dry_run_prints_config_and_writes_nothing(tmp_path, capsys):
    rc, out, _ = run_cli(
        ["verify", "--dry-run", "--out-dir", str(tmp_path)], capsys,
    )
    assert rc == 0
    assert out.splitlines() == ["lattice_G=8", "oracle_suite=None"]
    assert not (tmp_path / "manifest.json").exists()


def test_verify_lattice_bound_enforced(capsys):
    for g in ("0", "17"):
        rc, _, err = run_cli(["verify", "--lattice-G", g], capsys)
        assert rc == 1
        assert "--lattice-G" in err


def test_version_flag_prints_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == sparsemkl.__version__


def test_subcommand_required(capsys):
    rc, _, err = run_cli([], capsys)
    assert rc == 1
    assert err.startswith("error:")

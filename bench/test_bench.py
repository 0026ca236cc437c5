"""Tests of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest bench/test_bench.py`` from the root of a
checkout; about half a minute on 2 cores.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY_INI = """\
[experiment]
family = group-lasso
m = 30
G = 4
s = 2
lambda = 0.2
p = 8
group_dims = 2,2,2,2
noise_std = 0.01
n_instances = 2
iters = 20
"""


def tiny(name, tmp_path):
    """The workload `name` shrunk to 3 instances and 20 iterations."""
    workload = run.WORKLOADS[name]
    if name == "large-m-linear":
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI)
        args = ("--config", str(ini))
    else:
        args = workload.args + ("--iters", "20")  # the last --iters wins
    return dataclasses.replace(workload, args=args, instances=3)


def measure(workload, tmp_path, trace=0, expected=None):
    return run.run_workload(workload, seed=0, seconds=0, trace=trace,
                            min_rounds=1, setup_samples=2,
                            expected=expected or {}, out=str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    result = measure(tiny(name, tmp_path), tmp_path, trace)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))


def test_mismatched_outputs_count_as_failed_instances(tmp_path):
    workload = tiny("gauss-preset", tmp_path)
    measure(workload, tmp_path)
    out_dir = os.path.join(tmp_path, workload.name, "plain-out")
    good = run.read_outputs(out_dir, workload)
    assert run.count_failed(workload, out_dir, 0, good) == 0

    supports = [list(s) for s in good["supports"]]
    supports[1].append(99)
    assert run.count_failed(
        workload, out_dir, 0, dict(good, supports=supports)) == 1
    objectives = list(good["objectives"])
    objectives[0] *= 1 + 1e-6
    assert run.count_failed(
        workload, out_dir, 0, dict(good, objectives=objectives)) == 1

    header, first, *rest = good["histogram_csv"].splitlines()
    size, count = first.split(",")
    corrupt = "\n".join([header, f"{int(size) + 1},{count}", *rest]) + "\n"
    result = measure(workload, tmp_path,
                     expected={"0": dict(good, histogram_csv=corrupt)})["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gl-preset-trace",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import tracer
    from sparsemkl import cli

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("experiments.gone", "sparsemkl.experiments", "no_such_function"),))
    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(["batch", *tiny("gauss-preset", tmp_path).batch_args(
            0, str(tmp_path / "out"))])
    finally:
        spans.uninstall()
    layers = spans.finish(0.0, 1.0)
    assert code == 0
    assert layers["absent"] == ["experiments.gone"]
    assert set(layers["metrics"]) == set(tracer.UNITS)
    assert layers["metrics"]["solver.iters"] == 3 * 20

"""Benchmark of `sparsemkl batch`: end-to-end metrics and a traced breakdown.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn. Each batch runs in a fresh
child process (``bench/child.py``) as one closed-loop client: the next
batch starts only after the previous one has ended, with ``--jobs 1``,
BLAS and OpenMP threads pinned to 1, and the benchmark seed passed as the
batch's ``--seed``. A run repeats the same batch ("rounds", at least
``MIN_ROUNDS``) until ``--seconds`` have passed, so the inputs of a run
depend on the seed alone.

With ``--trace 0`` the batches run untraced and the run reports the
end-to-end metrics, each a median over the run: ``batch_s``, the wall
time of ``cli.main(["batch", ...])`` with outputs written; ``setup_s``,
from child start until ``sparsemkl.cli`` is imported, over at least
``SETUP_SAMPLES`` children; and ``peak_rss_mb``, the child's
``ru_maxrss``. Rounds are short (1.5-4.5 s) and many, because the 2-core
machines this runs on change speed by up to 2x for seconds to minutes at
a time, and a median over many short rounds follows that least. With
``--trace 1`` traced and untraced batches alternate, and the run reports
the per-layer metrics of ``tracer.py`` as medians over the traced rounds,
plus ``trace_overhead_s`` (median traced minus median untraced
``batch_s``).

Every batch is checked: exit code 0, all outputs present, a histogram
that sums to the instance count and agrees with the per-run support
sizes, and, for seeds recorded in ``bench/expected/``, a byte-identical
``histogram.csv``, identical per-run supports and objectives within
``OBJECTIVE_RTOL``. Each mismatch counts its instances as failed
(``instances_failed``, reported as the result's ``failed`` out of
``attempted``); a histogram mismatch fails every instance of its batch.
The sandwich verdicts are reported by the traced run and never gated.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
print each metric by name with its unit, and the machine. The full
record, with per-round values and the spans of traced rounds, is written
to ``bench/out/``.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracer import UNITS as LAYER_UNITS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
EXPECTED = os.path.join(BENCH, "expected")
CHILD = os.path.join(BENCH, "child.py")

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
#: Loose enough for a matvec that changes low-order bits (a factored
#: Gram operator); far below any change of support.
OBJECTIVE_RTOL = 1e-8
#: One run must end within this many seconds, child processes included.
RUN_LIMIT_S = 170.0
#: The largest array any workload allocates: large-m-linear's dense Gram
#: stack, G * m * m float64 values.
LARGEST_ARRAY_BYTES = 20 * 800 * 800 * 8

END_TO_END_UNITS = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    """One batch configuration; `args` omit --seed, --instances, --out-dir."""

    name: str
    args: tuple
    instances: int

    @property
    def traces(self):
        return "--trace" in self.args

    def batch_args(self, seed, out_dir):
        return [*self.args, "--instances", str(self.instances),
                "--seed", str(seed), "--jobs", "1", "--out-dir", out_dir]


# Why each workload exists is recorded in BENCHMARK.json. A round takes
# 1.5-4.5 s on 2 cores, so a run holds many of them; the instance counts
# keep the spread between seeds small. The Gaussian preset runs 300
# iterations, so nearly every reference solve exhausts its 10x budget
# instead of converging after a seed-dependent, heavy-tailed count;
# large-m-linear runs 200 (large_m_linear.ini), which keeps Gram assembly
# and validation above a third of its time.
WORKLOADS = {
    w.name: w for w in (
        Workload("gl-preset-trace",
                 ("--preset", "group-lasso-paper", "--trace"), 6),
        Workload("gauss-preset",
                 ("--preset", "gaussian-kernel-paper", "--iters", "300"), 8),
        Workload("large-m-linear",
                 ("--config", os.path.join("bench", "large_m_linear.ini")), 1),
    )
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ------------------------------------------------------------ child runs

def _child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(mode, batch_args, work_dir, deadline):
    """Run one child to completion; returns its result dict, or None.

    None means the child ended without a result (it crashed or exited
    non-zero); its log is kept in `work_dir`.
    """
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(work_dir, f"{mode}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    log_path = os.path.join(work_dir, f"{mode}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, CHILD, str(spawn_ns), result_path, mode,
             *batch_args],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child overran the run limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------- correctness

def load_expected(workload):
    """Recorded outputs of `workload` by seed (str), or {} if none."""
    path = os.path.join(EXPECTED, f"{workload.name}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["args"] != list(workload.args) or doc["instances"] != workload.instances:
        raise BenchError(f"{path} was recorded for another definition of "
                         f"{workload.name}")
    return doc["seeds"]


def read_outputs(out_dir, workload):
    """The batch outputs the check reads; raises OSError or ValueError."""
    with open(os.path.join(out_dir, "histogram.csv"), encoding="utf-8") as fh:
        histogram_csv = fh.read()
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        per_run = json.load(fh)["per_run"]
    if workload.traces and os.path.getsize(
            os.path.join(out_dir, "traces.jsonl")) == 0:
        raise ValueError("traces.jsonl is empty")
    return {
        "histogram_csv": histogram_csv,
        "supports": [rec["support"] for rec in per_run],
        "objectives": [rec["objective"] for rec in per_run],
    }


def _parse_histogram(text):
    lines = text.splitlines()
    if not lines or lines[0] != "support_size,count":
        raise ValueError("bad histogram header")
    counts = {}
    for line in lines[1:]:
        size, count = line.split(",")
        counts[int(size)] = int(count)
    return counts


def count_failed(workload, out_dir, exit_code, expected):
    """Instances of one batch that failed; `expected` may be None."""
    n = workload.instances
    if exit_code != 0:
        return n
    try:
        got = read_outputs(out_dir, workload)
        counts = _parse_histogram(got["histogram_csv"])
    except (OSError, ValueError, KeyError, TypeError):
        return n
    sizes = {}
    for support in got["supports"]:
        sizes[len(support)] = sizes.get(len(support), 0) + 1
    if sum(counts.values()) != n or len(got["supports"]) != n or sizes != counts:
        return n
    if expected is None:
        return 0
    if got["histogram_csv"] != expected["histogram_csv"]:
        return n
    return sum(
        1 for sup, obj, exp_sup, exp_obj in zip(
            got["supports"], got["objectives"],
            expected["supports"], expected["objectives"])
        if sup != exp_sup
        or not math.isclose(obj, exp_obj, rel_tol=OBJECTIVE_RTOL, abs_tol=0.0)
    )


# --------------------------------------------------------------- machine

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _llc():
    """(level, size text, bytes) of the largest cache of cpu0."""
    best = (0, "unknown", 0)
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level")).strip()
        size = _read(os.path.join(base, entry, "size")).strip()
        if level.isdigit() and size[:-1].isdigit() and size[-1] in "KM":
            nbytes = int(size[:-1]) * (1024 if size[-1] == "K" else 1024 ** 2)
            if nbytes > best[2]:
                best = (int(level), size, nbytes)
    return best


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sparsemkl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(versions):
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    level, size, llc_bytes = _llc()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": f"L{level} {size}",
        **versions,
        "thread_env": THREAD_ENV,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "bandwidth": (
            f"not reported: a bandwidth figure needs an array of at least "
            f"4x the LLC ({4 * llc_bytes / 1e6:.0f} MB); the largest "
            f"workload array is {LARGEST_ARRAY_BYTES / 1e6:.1f} MB"),
    }


# ------------------------------------------------------------------- run

def run_workload(workload, seed, seconds, trace, min_rounds=MIN_ROUNDS,
                 setup_samples=SETUP_SAMPLES, expected=None, out=OUT):
    """Measure one workload; returns the full record of the run.

    `expected` maps seeds (str) to recorded outputs and defaults to the
    file in bench/expected/. Batch outputs and logs go under `out`.
    """
    if not os.path.isdir(os.path.join(SRC, "sparsemkl")):
        raise BenchError(f"no sparsemkl package under {SRC}")
    if expected is None:
        expected = load_expected(workload)
    expected = expected.get(str(seed))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = os.path.join(out, workload.name)
    shutil.rmtree(work, ignore_errors=True)

    # warm-up: byte-compiles the package and fills the page cache
    warm = run_child("probe", [], work, deadline)
    if warm is None:
        raise BenchError(f"the package does not import; see {work}/probe.log")
    setups, rounds = [], []
    attempted = failed = 0

    def one_round(mode):
        nonlocal attempted, failed
        out_dir = os.path.join(work, mode + "-out")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        res = run_child(mode, workload.batch_args(seed, out_dir), work,
                        deadline)
        code = None if res is None else res.get("exit_code")
        n_failed = count_failed(workload, out_dir, code, expected)
        attempted += workload.instances
        failed += n_failed
        if res is not None:
            setups.append(res["setup_s"])
            rounds.append({"mode": mode, "failed": n_failed,
                           "wall_s": time.monotonic() - t0, **res})

    def room():
        longest = max((r["wall_s"] for r in rounds), default=0.0)
        return deadline - time.monotonic() > 2 * longest + 5

    # traced and untraced batches alternate, traced first
    modes = itertools.cycle(("traced", "plain") if trace else ("plain",))
    batches = 0
    while room() and (batches < max(min_rounds, 2 if trace else 1)
                      or time.monotonic() - start < seconds):
        one_round(next(modes))
        batches += 1
    while len(setups) < setup_samples and room():
        res = run_child("probe", [], work, deadline)
        if res is None:
            raise BenchError(f"set-up probe failed; see {work}/probe.log")
        setups.append(res["setup_s"])

    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    if not plain or (trace and not traced):
        raise BenchError(f"no batch of {workload.name} completed; see {work}")
    batch_s = statistics.median(r["batch_s"] for r in plain)
    if trace:
        values = {name: statistics.median(r["layers"]["metrics"][name]
                                          for r in traced)
                  for name in LAYER_UNITS}
        values["trace_overhead_s"] = (
            statistics.median(r["batch_s"] for r in traced) - batch_s)
        units = {**LAYER_UNITS, "trace_overhead_s": "s"}
    else:
        values = {
            "batch_s": batch_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "checked_against_recorded": expected is not None,
        "absent_layers": sorted({name for r in traced
                                 for name in r["layers"]["absent"]}),
        "machine": machine(warm["versions"]),
        "setup_samples": setups,
        "rounds": rounds,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def report(record):
    """Print the human-readable lines of one run; returns the result line."""
    result = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {len(record['rounds'])} batches, "
          f"{len(record['setup_samples'])} set-up samples, outputs checked "
          + ("against recorded outputs" if record["checked_against_recorded"]
             else "for consistency only (no recorded outputs for this seed)"))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  instances_failed = {result['failed']} of "
          f"{result['attempted']} attempted")
    for name in record["absent_layers"]:
        print(f"  layer absent: {name} (its metrics read 0)")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    return json.dumps(result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  args.trace)
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(
                OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            lines.append(report(record))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

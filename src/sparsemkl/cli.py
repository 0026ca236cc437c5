"""Command-line entry point.

Three subcommands: `solve` runs the iteration on one problem (a built-in
example or a dataset described by a config file) and reports its support
structure; `batch` runs a full synthetic battery and writes histogram,
summary, and optional trace files; `verify` exercises the lattice and
oracle self-checks. Config files are INI-style with sections mirroring
the library's config dataclasses; command-line flags override file
values. Every successful command ends by atomically writing a
`manifest.json` from which the run can be reproduced.

Exit codes: 0 success, 1 validation failure, 2 solver divergence,
3 I/O failure.
"""

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .core import Dataset, DualCoefficients, GramBlocks, ProblemInstance
from .errors import ConfigError, ContractViolation, DivergenceError
from .experiments import (
    ExperimentConfig,
    emit_histogram,
    emit_summary,
    emit_traces,
    run_batch,
    write_trace_rows,
)
from .kernels import GaussianFamily, LinearGroupProjection, assemble_gram_blocks
from .oracle import bcd_solve, enumerate_solve
from .solver import SolverConfig, solve
from .strata import MAX_LATTICE_GROUPS, verify_lattice
from .support import (
    last_support_change,
    qualification_check,
    reference_solve,
    sandwich_check,
    support_of,
)

__all__ = ["main"]

_BATCH_PRESETS = ("group-lasso-paper", "gaussian-kernel-paper")
_SOLVE_PRESETS = ("paper-1d",)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through ConfigError
    # so all validation failures share exit code 1
    def error(self, message):
        raise ConfigError(message)


def _add_shared(sub):
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--dry-run", action="store_true",
                     help="print the resolved configuration and exit")


def _add_problem(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--iters", type=int, help="override iteration budget")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="override regularization weight")
    sub.add_argument("--tau-factor", type=float, help="override step factor")
    sub.add_argument("--preset", help="built-in configuration name")


def _build_parser():
    parser = _Parser(prog="sparsemkl")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve one problem instance")
    _add_shared(p_solve)
    _add_problem(p_solve)
    p_solve.add_argument("--example", help="alias of --preset",
                         choices=_SOLVE_PRESETS)
    p_solve.add_argument("--trace", action="store_true",
                         help="write per-iteration trace.jsonl")
    p_solve.add_argument("--eps-rel", type=float, default=1e-4,
                         help="certificate tolerance for the report")

    p_batch = subs.add_parser("batch", help="run a synthetic batch")
    _add_shared(p_batch)
    _add_problem(p_batch)
    p_batch.add_argument("--seed", type=int, help="override master_seed")
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_batch.add_argument("--instances", type=int,
                         help="override n_instances")
    p_batch.add_argument("--trace", action="store_true",
                         help="write traces.jsonl (needs memory for all traces)")
    p_batch.add_argument("--trace-size", type=int,
                         help="emit only runs with this final support size")

    p_verify = subs.add_parser("verify", help="run self-checks")
    _add_shared(p_verify)
    p_verify.add_argument("--lattice-G", dest="lattice_g", type=int, default=8,
                          help="verify strata lattices for G=1..this")
    p_verify.add_argument("--oracle-suite", choices=("small",),
                          help="cross-check solver against both oracles")
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_verify(args)
    except (ConfigError, ContractViolation) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"error: solver diverged: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------- helpers

def _read_ini(path):
    if path is None:
        raise ConfigError("missing --config (or use --preset/--example)")
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    return ini


def _section(ini, name):
    if not ini.has_section(name):
        raise ConfigError(f"missing section [{name}]")
    return ini[name]


def _get(section, sec_name, key, conv, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in section [{sec_name}]")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (ValueError, TypeError) as err:
        raise ConfigError(
            f"bad value for '{key}' in section [{sec_name}]: {raw!r}"
        ) from err


def _reject_unknown_keys(section, sec_name, known):
    known = {section.parser.optionxform(key) for key in known}
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section [{sec_name}]")


def _int_tuple(raw):
    return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)


def _float_tuple(raw):
    return tuple(float(tok) for tok in raw.replace(" ", "").split(",") if tok)


def _fmt_group_set(groups):
    return "{" + ",".join(str(g + 1) for g in sorted(groups)) + "}"


def _write_atomic(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir, command, config_doc, master_seed, outputs, timings):
    doc = {
        "command": command,
        "version": __version__,
        "master_seed": master_seed,
        "config": config_doc,
        "outputs": sorted(outputs),
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _print_config(doc):
    for key in sorted(doc):
        print(f"{key}={doc[key]}")


# ------------------------------------------------------------------ solve

def _paper_1d_problem():
    """Hand-built single-kernel instance with unit data.

    The operator bound is pinned to exactly 1, the top eigenvalue itself
    rather than the default with its margin, so tau_factor is the step
    size; the closed-form iterates are then reproduced digit for digit.
    """
    gram = GramBlocks(features=np.ones((1, 1)), group_dims=(1,), lipschitz=1.0)
    dataset = Dataset(np.ones((1, 1)), np.ones(1))
    problem = ProblemInstance(dataset=dataset, gram=gram, lam=1.0)
    return problem, DualCoefficients(np.ones((1, 1)))


def _load_dataset(path):
    if not os.path.isfile(path):
        raise ConfigError(f"dataset file not found: {path}")
    if path.endswith(".npz"):
        with np.load(path) as data:
            if "points" not in data or "responses" not in data:
                raise ConfigError(
                    f"{path} must contain arrays 'points' and 'responses'"
                )
            return Dataset(data["points"], data["responses"])
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ConfigError(f"cannot parse CSV dataset {path}: {err}") from err
    if table.shape[1] < 2:
        raise ConfigError("CSV dataset needs feature columns plus a response")
    return Dataset(table[:, :-1], table[:, -1])


def _solve_from_config(args):
    ini = _read_ini(args.config)
    prob_sec = _section(ini, "problem")
    dataset = _load_dataset(_get(prob_sec, "problem", "data", str))
    family = _get(prob_sec, "problem", "family", str)
    if family == "group-lasso":
        dims = _get(prob_sec, "problem", "group_dims", _int_tuple)
        spec = LinearGroupProjection(dims)
    elif family == "gaussian-kernel":
        sigmas = _get(prob_sec, "problem", "sigmas", _float_tuple)
        spec = GaussianFamily(sigmas)
    else:
        raise ConfigError(
            f"bad value for 'family' in section [problem]: {family!r}"
        )
    _reject_unknown_keys(prob_sec, "problem", (
        "data", "family", "lambda", "lambda_convention",
        "group_dims" if family == "group-lasso" else "sigmas",
    ))
    lam = _get(prob_sec, "problem", "lambda", float)
    convention = _get(prob_sec, "problem", "lambda_convention", str,
                      required=False, default="raw")
    gram = assemble_gram_blocks(dataset, spec)
    problem = ProblemInstance(dataset=dataset, gram=gram, lam=lam,
                              lam_convention=convention)

    solver_kw = {}
    if ini.has_section("solver"):
        sec = ini["solver"]
        keys = (("tau_factor", float), ("iters", int), ("stop_tol", float))
        _reject_unknown_keys(sec, "solver", [key for key, _ in keys])
        for key, conv in keys:
            val = _get(sec, "solver", key, conv, required=False)
            if val is not None:
                solver_kw["max_iters" if key == "iters" else key] = val
    solver_kw.setdefault("max_iters", 1000)
    return problem, solver_kw


def _cmd_solve(args):
    t0 = time.perf_counter()
    preset = args.example or args.preset
    if preset is not None:
        if preset not in _SOLVE_PRESETS:
            raise ConfigError(f"unknown solve preset {preset!r}")
        problem, alpha0 = _paper_1d_problem()
        solver_kw = {"tau_factor": 0.5, "max_iters": 50}
    else:
        problem, solver_kw = _solve_from_config(args)
        alpha0 = None

    if args.lam is not None:
        if args.lam <= 0:
            raise ConfigError("--lambda must be positive")
        problem = ProblemInstance(
            dataset=problem.dataset, gram=problem.gram, lam=args.lam,
            lam_convention=problem.lam_convention,
        )
    if args.iters is not None:
        if args.iters < 1:
            raise ConfigError("--iters must be >= 1")
        solver_kw["max_iters"] = args.iters
    if args.tau_factor is not None:
        solver_kw["tau_factor"] = args.tau_factor
    config = SolverConfig(record_trace=True, **solver_kw)

    config_doc = {
        "preset": preset,
        "lambda": problem.lam,
        "lambda_convention": problem.lam_convention,
        "m": problem.m,
        "G": problem.n_groups,
        "tau_factor": config.tau_factor,
        "iters": config.max_iters,
        "stop_tol": config.stop_tol,
        "eps_rel": args.eps_rel,
    }
    if args.dry_run:
        _print_config(config_doc)
        return 0

    t1 = time.perf_counter()
    coeffs, trace = solve(problem, config, alpha0)
    t2 = time.perf_counter()
    reference = reference_solve(problem, config, trace)
    report = qualification_check(reference, problem, eps_rel=args.eps_rel)
    burn_in = last_support_change(trace)
    verdict = sandwich_check(trace, report, burn_in)
    t3 = time.perf_counter()

    lines = [
        f"supp={_fmt_group_set(support_of(coeffs))}",
        f"esupp={_fmt_group_set(report.extended_support)}",
        f"ref_supp={_fmt_group_set(report.support)}",
        f"qc_holds={str(report.qc_holds).lower()}",
        f"qc_margin={report.qc_margin!r}",
        "cert_norms=" + ",".join(repr(float(v)) for v in report.certificate_norms),
        f"eps_rel={report.eps_rel!r}",
        f"objective={float(trace.objectives[-1])!r}",
        f"iters_run={trace.iters_run}",
        f"final_step_norm={trace.final_step_norm!r}",
        f"burn_in={burn_in}",
        "sandwich=" + ("pass" if verdict.passed
                       else f"fail@{verdict.first_violation}"),
    ]
    print("\n".join(lines))

    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.txt")
    _write_atomic(report_path, "\n".join(lines) + "\n")
    outputs = [report_path]
    if args.trace:
        trace_path = os.path.join(args.out_dir, "trace.jsonl")
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            write_trace_rows(fh, 0, trace)
        outputs.append(trace_path)
    _write_manifest(
        args.out_dir, "solve", config_doc, None, outputs,
        {"solve_s": t2 - t1, "report_s": t3 - t2,
         "total_s": time.perf_counter() - t0},
    )
    return 0


# ------------------------------------------------------------------ batch

def _batch_config(args):
    preset = args.preset
    if preset is not None:
        if preset == "group-lasso-paper":
            config = ExperimentConfig.group_lasso_paper()
        elif preset == "gaussian-kernel-paper":
            config = ExperimentConfig.gaussian_kernel_paper()
        else:
            raise ConfigError(
                f"unknown batch preset {preset!r}; "
                f"choose from {', '.join(_BATCH_PRESETS)}"
            )
    else:
        ini = _read_ini(args.config)
        sec = _section(ini, "experiment")
        family = _get(sec, "experiment", "family", str)
        kw = {
            "family": family,
            "m": _get(sec, "experiment", "m", int),
            "G": _get(sec, "experiment", "G", int),
            "s": _get(sec, "experiment", "s", int),
            "lam": _get(sec, "experiment", "lambda", float),
            "p": _get(sec, "experiment", "p", int),
            "noise_std": _get(sec, "experiment", "noise_std", float),
            "n_instances": _get(sec, "experiment", "n_instances", int),
            "iters": _get(sec, "experiment", "iters", int),
            "tau_factor": _get(sec, "experiment", "tau_factor", float,
                               required=False, default=0.8),
            "master_seed": _get(sec, "experiment", "master_seed", int,
                                required=False, default=0),
        }
        if family == "group-lasso":
            kw["group_dims"] = _get(sec, "experiment", "group_dims", _int_tuple)
        elif family == "gaussian-kernel":
            kw["sigma_range"] = _get(sec, "experiment", "sigma_range",
                                     _float_tuple)
        try:
            config = ExperimentConfig(**kw)
        except ContractViolation as err:
            raise ConfigError(f"invalid [experiment] config: {err}") from err
        _reject_unknown_keys(sec, "experiment", (
            "family", "m", "G", "s", "lambda", "p", "noise_std",
            "n_instances", "iters", "tau_factor", "master_seed",
            "group_dims" if family == "group-lasso" else "sigma_range",
        ))

    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.instances is not None:
        if args.instances < 1:
            raise ConfigError("--instances must be >= 1")
        overrides["n_instances"] = args.instances
    if args.iters is not None:
        if args.iters < 1:
            raise ConfigError("--iters must be >= 1")
        overrides["iters"] = args.iters
    if args.lam is not None:
        if args.lam <= 0:
            raise ConfigError("--lambda must be positive")
        overrides["lam"] = args.lam
    if args.tau_factor is not None:
        overrides["tau_factor"] = args.tau_factor
    if overrides:
        import dataclasses
        try:
            config = dataclasses.replace(config, **overrides)
        except ContractViolation as err:
            raise ConfigError(str(err)) from err
    return config


def _cmd_batch(args):
    from .experiments import _config_dict

    t0 = time.perf_counter()
    config = _batch_config(args)
    config_doc = _config_dict(config)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if args.dry_run:
        _print_config(config_doc)
        return 0

    t1 = time.perf_counter()
    result = run_batch(config, jobs=args.jobs, keep_traces=args.trace)
    t2 = time.perf_counter()

    os.makedirs(args.out_dir, exist_ok=True)
    hist_path = os.path.join(args.out_dir, "histogram.csv")
    emit_histogram(result, hist_path)
    summary_path = os.path.join(args.out_dir, "summary.json")
    emit_summary(result, summary_path)
    outputs = [hist_path, summary_path]
    if args.trace:
        trace_path = os.path.join(args.out_dir, "traces.jsonl")
        emit_traces(result, trace_path, final_size=args.trace_size)
        outputs.append(trace_path)

    n_pass = sum(1 for rec in result.per_run if rec.sandwich_passed)
    print(f"instances={config.n_instances}")
    print("histogram=" + ",".join(
        f"{k}:{v}" for k, v in sorted(result.histogram.items())
    ))
    print(f"sandwich_pass={n_pass}/{config.n_instances}")
    _write_manifest(
        args.out_dir, "batch", config_doc, config.master_seed, outputs,
        {"batch_s": t2 - t1, "total_s": time.perf_counter() - t0},
    )
    return 0


# ----------------------------------------------------------------- verify

def _oracle_suite_small():
    """Cross-check solver and both oracles on tiny random instances.

    Returns a list of (name, passed, detail) rows.
    """
    from .core import objective as objective_of

    rows = []
    rng = np.random.default_rng(2011)
    for case in range(6):
        m = int(rng.integers(5, 9))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
        points = rng.standard_normal((m, sum(dims)))
        y_seed = rng.standard_normal(m)
        dataset = Dataset(points, y_seed)
        gram = assemble_gram_blocks(dataset, LinearGroupProjection(dims))
        certs = np.sqrt(gram.quad(y_seed))
        lam = float((0.25 + 0.5 * rng.random()) * certs.max())
        problem = ProblemInstance(dataset=dataset, gram=gram, lam=lam)

        ikta, _ = solve(problem, SolverConfig(
            tau_factor=0.8, max_iters=200000, stop_tol=1e-12,
            record_trace=False,
        ))
        obj_ikta = objective_of(ikta, problem)
        enum = enumerate_solve(problem)
        bcd = bcd_solve(problem)
        scale = max(1.0, abs(enum.objective))
        ok_enum = abs(obj_ikta - enum.objective) <= 1e-6 * scale
        ok_bcd = abs(bcd.objective - enum.objective) <= 1e-8 * scale
        rows.append((
            f"oracle case {case} solver-vs-enumeration", ok_enum,
            f"ikta={obj_ikta!r} enum={enum.objective!r}",
        ))
        rows.append((
            f"oracle case {case} bcd-vs-enumeration", ok_bcd,
            f"bcd={bcd.objective!r} enum={enum.objective!r}",
        ))
    return rows


def _cmd_verify(args):
    t0 = time.perf_counter()
    if not 1 <= args.lattice_g <= MAX_LATTICE_GROUPS:
        raise ConfigError(
            f"--lattice-G must lie in [1, {MAX_LATTICE_GROUPS}], "
            f"got {args.lattice_g}"
        )
    config_doc = {
        "lattice_G": args.lattice_g,
        "oracle_suite": args.oracle_suite,
    }
    if args.dry_run:
        _print_config(config_doc)
        return 0

    all_ok = True
    for g in range(1, args.lattice_g + 1):
        verdict = verify_lattice(g)
        ok = verdict.passed
        all_ok &= ok
        detail = "" if ok else f" ({verdict.check})"
        print(f"lattice G={g}: {'pass' if ok else 'fail'}{detail}")
    if args.oracle_suite is not None:
        for name, ok, detail in _oracle_suite_small():
            all_ok &= ok
            print(f"{name}: {'pass' if ok else 'fail'} [{detail}]")
    if not all_ok:
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    _write_manifest(
        args.out_dir, "verify", config_doc, None, [],
        {"total_s": time.perf_counter() - t0},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

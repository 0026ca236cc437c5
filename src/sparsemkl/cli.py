"""Command-line entry point.

Three subcommands: `solve` runs the iteration on one problem (a built-in
example or a dataset described by a config file) and reports its support
structure; `batch` runs a full synthetic battery and writes histogram,
summary, and optional trace files; `verify` exercises the lattice and
oracle self-checks. Config files are INI-style with sections mirroring
the library's config dataclasses; command-line flags override file
values. Every successful command ends by atomically writing a
`manifest.json` from which the run can be reproduced.

Exit codes: 0 success, 1 validation failure or out of memory, 2 solver
divergence, 3 I/O failure.
"""

import argparse
import configparser
import dataclasses
import json
# argparse's gettext imports locale as every command builds its parser;
# here it loads at start-up
import locale  # noqa: F401
import os
import sys
import time
import zipfile

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
from .solver import SolverConfig, solve, solve_with_reference
from .support import (
    DEFAULT_EPS_REL,
    last_support_change,
    qualification_check,
    sandwich_check,
    support_of,
)

__all__ = ["main"]

_BATCH_PRESETS = {
    "group-lasso-paper": ExperimentConfig.group_lasso_paper,
    "gaussian-kernel-paper": ExperimentConfig.gaussian_kernel_paper,
}
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


def _add_problem(sub, presets, *preset_aliases):
    # one source of the configuration: a file or a built-in
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="INI config file")
    source.add_argument("--preset", *preset_aliases, choices=presets,
                        help="built-in configuration name")
    sub.add_argument("--iters", type=int, help="override iteration budget")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="override regularization weight")
    sub.add_argument("--tau-factor", type=float, help="override step factor")


def _build_parser():
    parser = _Parser(prog="sparsemkl")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve one problem instance")
    _add_shared(p_solve)
    _add_problem(p_solve, _SOLVE_PRESETS, "--example")
    p_solve.add_argument("--trace", action="store_true",
                         help="write per-iteration trace.jsonl")
    p_solve.add_argument("--eps-rel", type=float, default=DEFAULT_EPS_REL,
                         help="certificate tolerance for the report")

    p_batch = subs.add_parser("batch", help="run a synthetic batch")
    _add_shared(p_batch)
    _add_problem(p_batch, _BATCH_PRESETS)
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
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"error: solver diverged: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------- helpers

def _read_ini(path):
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    try:
        ini.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    return ini


def _read_section(ini, name, keys, optional=()):
    """The keys that section `name` of `ini` gives, read through `keys`.

    `keys` maps key -> converter. A key of `optional` may be left out, to
    take the default of the config type it feeds, and so may the whole
    section when every key may. A key that `keys` does not list is an
    error.
    """
    if not ini.has_section(name):
        if set(keys) <= set(optional):
            return {}
        raise ConfigError(f"missing section [{name}]")
    sec = ini[name]
    values = {}
    for key, conv in keys.items():
        if key not in sec:
            if key not in optional:
                raise ConfigError(f"missing key '{key}' in section [{name}]")
            continue
        try:
            values[key] = conv(sec[key])
        except (ValueError, TypeError) as err:
            raise ConfigError(
                f"bad value for '{key}' in section [{name}]: {sec[key]!r}"
            ) from err
    known = {ini.optionxform(key) for key in keys}
    for key in sec:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
    return values


def _family_keys(ini, name, table):
    """The keys of the family that `name` names, and the optional ones.

    A missing or unknown family reads every family's keys as optional,
    so that the error names the family, not a key of another family.
    """
    family = ini[name].get("family") if ini.has_section(name) else None
    if family in table:
        return table[family], ()
    keys = {key: conv for fam in table.values() for key, conv in fam.items()}
    return keys, keys


def _fields(values):
    """`values` keyed by config field: files spell `lam` as `lambda`."""
    return {key.replace("lambda", "lam"): value for key, value in values.items()}


def _given(**overrides):
    """The overrides whose flags were given."""
    return {key: value for key, value in overrides.items() if value is not None}


def _check_problem_flags(args):
    if args.iters is not None and args.iters < 1:
        raise ConfigError("--iters must be >= 1")
    # written so that NaN fails too
    if args.lam is not None and not 0.0 < args.lam < np.inf:
        raise ConfigError("--lambda must be positive and finite")
    if args.tau_factor is not None and not 0.0 < args.tau_factor < 2.0:
        raise ConfigError("--tau-factor must lie in (0, 2)")


def _int_tuple(raw):
    return tuple(int(tok) for tok in raw.replace(" ", "").split(",") if tok)


def _float_tuple(raw):
    return tuple(float(tok) for tok in raw.replace(" ", "").split(",") if tok)


_PROBLEM_KEYS = {"data": str, "family": str, "lambda": float,
                 "lambda_convention": str}
_PROBLEM_FAMILY_KEYS = {"group-lasso": {"group_dims": _int_tuple},
                        "gaussian-kernel": {"sigmas": _float_tuple}}
_SOLVER_KEYS = {"tau_factor": float, "iters": int, "stop_tol": float}
_EXPERIMENT_KEYS = {
    "family": str, "m": int, "G": int, "s": int, "lambda": float, "p": int,
    "noise_std": float, "n_instances": int, "iters": int,
    "tau_factor": float, "master_seed": int,
}
_EXPERIMENT_FAMILY_KEYS = {"group-lasso": {"group_dims": _int_tuple},
                           "gaussian-kernel": {"sigma_range": _float_tuple}}


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
        with open(path, "rb") as f:  # an unreadable file is an I/O failure
            # an empty, text, pickled or .npy file, or a truncated archive
            if not zipfile.is_zipfile(f):
                raise ConfigError(f"cannot parse .npz dataset {path}: "
                                  "not a zip archive")
        with np.load(path) as data:
            if "points" not in data or "responses" not in data:
                raise ConfigError(
                    f"{path} must contain arrays 'points' and 'responses'"
                )
            try:
                # object arrays do not load, strings do not convert, and a
                # damaged member fails its CRC
                points, responses = (np.asarray(data[key], dtype=np.float64)
                                     for key in ("points", "responses"))
            except (ValueError, zipfile.BadZipFile) as err:
                raise ConfigError(
                    f"cannot parse .npz dataset {path}: {err}") from err
        # frozen with the buffers they view, they become the dataset's
        for a in (points, responses, points.base, responses.base):
            if a is not None:
                a.setflags(write=False)
        return Dataset(points, responses)
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ConfigError(f"cannot parse CSV dataset {path}: {err}") from err
    if table.shape[1] < 2:
        raise ConfigError("CSV dataset needs feature columns plus a response")
    return Dataset(table[:, :-1], table[:, -1])


def _solve_from_config(path):
    ini = _read_ini(path)
    keys, optional = _family_keys(ini, "problem", _PROBLEM_FAMILY_KEYS)
    kw = _read_section(ini, "problem", {**_PROBLEM_KEYS, **keys},
                       ("lambda_convention", *optional))
    family = kw.pop("family")
    if family == "group-lasso":
        spec = LinearGroupProjection(kw.pop("group_dims"))
    elif family == "gaussian-kernel":
        spec = GaussianFamily(kw.pop("sigmas"))
    else:
        raise ConfigError(
            f"bad value for 'family' in section [problem]: {family!r}"
        )
    dataset = _load_dataset(kw.pop("data"))
    gram = assemble_gram_blocks(dataset, spec)
    problem = ProblemInstance(dataset=dataset, gram=gram, **_fields(kw))

    solver = _read_section(ini, "solver", _SOLVER_KEYS, _SOLVER_KEYS)
    if "iters" in solver:
        solver["max_iters"] = solver.pop("iters")
    return problem, solver


def _cmd_solve(args):
    t0 = time.perf_counter()
    # the flags first: a bad one fails before any file is read
    _check_problem_flags(args)
    if not (0.0 <= args.eps_rel < 1.0):
        raise ConfigError(f"--eps-rel must lie in [0, 1), got {args.eps_rel!r}")
    if args.preset is not None:
        problem, alpha0 = _paper_1d_problem()
        solver_kw = {"tau_factor": 0.5, "max_iters": 50}
    else:
        problem, solver_kw = _solve_from_config(args.config)
        alpha0 = None

    if args.lam is not None:
        problem = dataclasses.replace(problem, lam=args.lam)
    # a flag overrides the file before the config is checked
    config = SolverConfig(record_trace=args.trace, **solver_kw | _given(
        max_iters=args.iters, tau_factor=args.tau_factor))

    config_doc = {
        "preset": args.preset,
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
    # the reference is from zero; a warm start's run is a second solve,
    # the one reported, so the run from zero is not traced
    ref_cfg = (config if alpha0 is None
               else dataclasses.replace(config, record_trace=False))
    result = solve_with_reference(problem, ref_cfg)
    coeffs, trace = (solve(problem, config, alpha0) if alpha0 is not None
                     else (result.coeffs, result.trace))
    t2 = time.perf_counter()
    report = qualification_check(result.reference, problem, args.eps_rel)
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
        f"objective={trace.objective!r}",
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
    # the flags first: a bad one fails before any file is read
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    if args.instances is not None and args.instances < 1:
        raise ConfigError("--instances must be >= 1")
    if args.trace_size is not None and not args.trace:
        raise ConfigError("--trace-size needs --trace")
    _check_problem_flags(args)
    if args.preset is not None:
        config = _BATCH_PRESETS[args.preset]()
    else:
        ini = _read_ini(args.config)
        keys, optional = _family_keys(ini, "experiment",
                                      _EXPERIMENT_FAMILY_KEYS)
        kw = _read_section(ini, "experiment", {**_EXPERIMENT_KEYS, **keys},
                           ("tau_factor", "master_seed", *optional))
        try:
            config = ExperimentConfig(**_fields(kw))
        except ContractViolation as err:
            raise ConfigError(f"invalid [experiment] config: {err}") from err

    if args.trace_size is not None and not 0 <= args.trace_size <= config.G:
        raise ConfigError(f"--trace-size must lie in [0, G={config.G}], "
                          f"got {args.trace_size}")
    return dataclasses.replace(config, **_given(
        master_seed=args.seed, n_instances=args.instances, iters=args.iters,
        lam=args.lam, tau_factor=args.tau_factor,
    ))


def _cmd_batch(args):
    t0 = time.perf_counter()
    config = _batch_config(args)
    config_doc = config.as_dict()
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
    t3 = time.perf_counter()

    n_pass = sum(1 for rec in result.per_run if rec.sandwich_passed)
    print(f"instances={config.n_instances}")
    print("histogram=" + ",".join(
        f"{k}:{v}" for k, v in sorted(result.histogram.items())
    ))
    print(f"sandwich_pass={n_pass}/{config.n_instances}")
    _write_manifest(
        args.out_dir, "batch", config_doc, config.master_seed, outputs,
        {"batch_s": t2 - t1, "emit_s": t3 - t2,
         "total_s": time.perf_counter() - t0},
    )
    return 0


# ----------------------------------------------------------------- verify

def _oracle_suite_small():
    """Cross-check solver and both oracles on tiny random instances.

    Returns a list of (name, passed, detail) rows.
    """
    from .core import objective as objective_of
    from .oracle import bcd_solve, enumerate_solve

    rows = []
    rng = np.random.default_rng(2011)
    for case in range(6):
        m = int(rng.integers(5, 9))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=3))
        points = rng.standard_normal((m, sum(dims)))
        y_seed = rng.standard_normal(m)
        dataset = Dataset(points, y_seed)
        gram = assemble_gram_blocks(dataset, LinearGroupProjection(dims))
        lam = float((0.25 + 0.5 * rng.random()) * gram.norms(y_seed).max())
        problem = ProblemInstance(dataset=dataset, gram=gram, lam=lam)

        # stop_tol is absolute, and the data are unit scale: standard-normal
        # points and responses, lam a fraction of the largest certificate.
        # So a step of 1e-12 is 1e-12 of that scale too, far inside the
        # verdict's 1e-6 relative objective gap
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
    from .strata import MAX_LATTICE_GROUPS, verify_lattice

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

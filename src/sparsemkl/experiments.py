"""Synthetic benchmark batteries and their file formats.

Instances are generated deterministically: every instance's generator is
seeded by a documented mix of the batch master seed and the instance
index, so batches are reproducible bit for bit regardless of execution
order or worker count. Two families are built in: linear kernels on
disjoint coordinate groups, and banks of Gaussian kernels with random
bandwidths. Batch runs record, per instance, the final support, the
objective, the qualification margin of a long reference run, and the
support-sandwich verdict; histograms of final support sizes and
per-iteration trace files are emitted as plot-ready CSV/JSON lines.
"""

import dataclasses
import json
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor

import numpy as np
# numpy loads numpy.random on first use; here it loads at start-up
import numpy.random  # noqa: F401

from .core import Dataset, DualCoefficients, ProblemInstance
from .errors import ContractViolation, DivergenceError
from .kernels import GaussianFamily, LinearGroupProjection, assemble_gram_blocks
from .solver import SolverConfig, solve
from .support import (
    last_support_change,
    qualification_check,
    reference_solve,
    sandwich_check,
    support_of,
)

__all__ = [
    "ExperimentConfig",
    "PerRun",
    "BatchResult",
    "instance_seed",
    "generate_instance",
    "run_batch",
    "emit_histogram",
    "load_histogram",
    "emit_traces",
    "write_trace_rows",
    "emit_summary",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

FAMILIES = ("group-lasso", "gaussian-kernel")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one batch of synthetic instances.

    Defaults (via the two classmethods) mirror the reference benchmark:
    m=50 samples, G=20 groups, s=5 planted groups, lam=0.2, noise
    standard deviation 1e-2, tau_factor 0.8; the group-lasso family uses
    p=100 features in groups of 5 and 5000 iterations, the
    Gaussian-kernel family uses points in the plane, bandwidths drawn
    log-uniformly from [0.1, 10], and 50000 iterations.

    `lam` is relative: each generated instance uses
    ``lam * max_g sqrt(y' K_g y)`` as its weight, so the same config
    spans instances whose response scales differ by orders of magnitude.
    See :func:`generate_instance`.
    """

    family: str
    m: int
    G: int
    s: int
    lam: float
    p: int
    noise_std: float
    n_instances: int
    iters: int
    tau_factor: float
    master_seed: int
    group_dims: tuple | None = None
    sigma_range: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractViolation(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )
        for name in ("m", "G", "p", "n_instances", "iters"):
            if int(getattr(self, name)) < 1:
                raise ContractViolation(f"{name} must be >= 1")
            object.__setattr__(self, name, int(getattr(self, name)))
        s = int(self.s)
        if not (0 <= s <= self.G):
            raise ContractViolation(f"s must lie in [0, G], got {s}")
        object.__setattr__(self, "s", s)
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ContractViolation(f"lam must be positive, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        noise = float(self.noise_std)
        if not np.isfinite(noise) or noise < 0.0:
            raise ContractViolation(f"noise_std must be >= 0, got {noise!r}")
        object.__setattr__(self, "noise_std", noise)
        if not (0.0 < float(self.tau_factor) < 2.0):
            raise ContractViolation(
                f"tau_factor must lie in (0, 2), got {self.tau_factor!r}"
            )
        object.__setattr__(self, "tau_factor", float(self.tau_factor))
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)

        if self.family == "group-lasso":
            if self.group_dims is None:
                raise ContractViolation("group-lasso needs group_dims")
            dims = tuple(int(d) for d in self.group_dims)
            if len(dims) != self.G:
                raise ContractViolation(
                    f"group_dims lists {len(dims)} groups but G={self.G}"
                )
            if sum(dims) != self.p:
                raise ContractViolation(
                    f"group_dims sums to {sum(dims)} but p={self.p}"
                )
            object.__setattr__(self, "group_dims", dims)
            if self.sigma_range is not None:
                raise ContractViolation("sigma_range is a gaussian-kernel field")
        else:
            if self.sigma_range is None:
                raise ContractViolation("gaussian-kernel needs sigma_range")
            lo, hi = (float(v) for v in self.sigma_range)
            if not (0.0 < lo <= hi) or not np.isfinite(hi):
                raise ContractViolation(
                    f"sigma_range must satisfy 0 < lo <= hi, got {self.sigma_range!r}"
                )
            object.__setattr__(self, "sigma_range", (lo, hi))
            if self.group_dims is not None:
                raise ContractViolation("group_dims is a group-lasso field")

    @classmethod
    def group_lasso_paper(cls, n_instances=200, master_seed=0, **overrides):
        cfg = cls(
            family="group-lasso", m=50, G=20, s=5, lam=0.2, p=100,
            noise_std=1e-2, n_instances=n_instances, iters=5000,
            tau_factor=0.8, master_seed=master_seed,
            group_dims=(5,) * 20,
        )
        return dataclasses.replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def gaussian_kernel_paper(cls, n_instances=200, master_seed=0, **overrides):
        cfg = cls(
            family="gaussian-kernel", m=50, G=20, s=5, lam=0.2, p=2,
            noise_std=1e-2, n_instances=n_instances, iters=50000,
            tau_factor=0.8, master_seed=master_seed,
            sigma_range=(0.1, 10.0),
        )
        return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _mix64(z):
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def instance_seed(master_seed, index):
    """Generator seed of one instance.

    The index-th output of a SplitMix64 stream started at `master_seed`:
    ``mix64(master_seed + (index+1) * golden)`` with the standard mixing
    constants. Documented so external tooling can reproduce any single
    instance without walking the batch.
    """
    z = (int(master_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    return _mix64(z)


def generate_instance(config, index):
    """Deterministically generate instance `index` of a batch.

    Draw order from the instance generator is fixed and documented:
    sample points, then bandwidths (Gaussian family only), then the
    planted support (uniform without replacement), then the planted
    coefficients (standard normal on the selected groups, in increasing
    group order), then the noise vector. The response is
    ``y = sum_g K_g alpha*_g + noise``.

    The configured `lam` is a *relative* regularization level: the
    problem's weight is ``config.lam * max_g sqrt(y' K_g y)``, the
    fraction of the largest certificate norm of the data. An absolute
    weight would be meaningless across instances here, because the
    response scale varies with the random planted coefficients; the
    published histograms for these setups are only reproducible under
    the relative reading.

    Returns
    -------
    (ProblemInstance, DualCoefficients)
        The instance and the planted coefficient matrix.
    """
    if not isinstance(config, ExperimentConfig):
        raise ContractViolation("config must be an ExperimentConfig")
    index = int(index)
    if not (0 <= index < config.n_instances):
        raise ContractViolation(
            f"index must lie in [0, {config.n_instances}), got {index}"
        )
    rng = np.random.default_rng(instance_seed(config.master_seed, index))
    points = rng.standard_normal((config.m, config.p))
    if config.family == "group-lasso":
        spec = LinearGroupProjection(config.group_dims)
    else:
        lo, hi = config.sigma_range
        sigmas = np.exp(rng.uniform(np.log(lo), np.log(hi), size=config.G))
        spec = GaussianFamily(tuple(float(s) for s in sigmas))
    gram = assemble_gram_blocks(Dataset(points, np.zeros(config.m)), spec)

    chosen = np.sort(rng.choice(config.G, size=config.s, replace=False))
    alpha_star = np.zeros((config.m, config.G))
    if config.s:
        alpha_star[:, chosen] = rng.standard_normal((config.m, config.s))
    noise = config.noise_std * rng.standard_normal(config.m)
    y = gram.apply(alpha_star) + noise

    certs = np.sqrt(np.maximum(gram.quad(y), 0.0))
    problem = ProblemInstance(
        dataset=Dataset(points, y), gram=gram,
        lam=config.lam * float(certs.max()),
        lam_convention="raw",
    )
    return problem, DualCoefficients(alpha_star)


@dataclass(frozen=True)
class PerRun:
    """Per-instance record of a batch.

    `burn_in` is the trace's last support change, so `sandwich_passed`
    is reference support <= `support` <= reference esupp, and a failing
    run's `sandwich_first_violation` is its `burn_in`.
    """

    index: int
    seed: int
    support: frozenset
    support_size: int
    objective: float
    qc_margin: float
    sandwich_passed: bool
    sandwich_first_violation: int | None
    burn_in: int
    final_step_norm: float


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Everything a batch produced.

    `histogram` maps final support size to instance count; its values
    always sum to the batch's `n_instances`. `traces` is None when trace
    keeping was disabled.
    """

    config: ExperimentConfig
    histogram: dict
    per_run: tuple
    traces: tuple | None


#: Bytes that the instances stepped together may hold at once: their
#: Gram storage and the trace buffers of their production solves. It
#: sets how many instances a batch solves as one stack.
CHUNK_BYTES = 2 << 20


def _row_bytes(config):
    """Bytes one instance holds while its chunk is solved."""
    if config.family == "group-lasso":
        # the (G, m, d_max) factor stack and its transpose
        gram = 2 * 8 * config.G * config.m * max(config.group_dims)
    else:
        gram = 8 * config.G * config.m * config.m
    # per iteration: a support row of G bools, an objective, a step
    # norm and an iteration number
    return gram + config.iters * (config.G + 24)


def _chunks(config, jobs):
    """Consecutive index ranges, each solved as one stack by one worker.

    As few chunks as the `CHUNK_BYTES` cap allows, but at least one per
    worker, with sizes that differ by at most one.
    """
    n = config.n_instances
    size = max(1, CHUNK_BYTES // _row_bytes(config))
    k = max(min(jobs, n), -(-n // size))
    return [range(i * n // k, (i + 1) * n // k) for i in range(k)]


def _run_chunk(config, indices, keep_traces):
    problems = [generate_instance(config, i)[0] for i in indices]
    solver_cfg = SolverConfig(
        tau_factor=config.tau_factor, max_iters=config.iters,
        stop_tol=0.0, record_trace=True,
    )
    try:
        coeffs, traces = solve(problems, solver_cfg)
        references = reference_solve(problems, solver_cfg, traces)
    except DivergenceError as err:
        if len(indices) == 1:
            raise DivergenceError(
                err.iteration,
                f"instance {indices[0]}: {err}",
            ) from err
        # rows do not depend on each other, so solving them one at a
        # time names the first instance that diverges, as any chunking
        # would
        for i in indices:
            _run_chunk(config, [i], keep_traces)
        raise
    outcomes = []
    for index, problem, coeff, trace, reference in zip(
            indices, problems, coeffs, traces, references):
        report = qualification_check(reference, problem)
        burn_in = last_support_change(trace)
        verdict = sandwich_check(trace, report, burn_in)
        supp = frozenset(support_of(coeff))
        record = PerRun(
            index=index,
            seed=instance_seed(config.master_seed, index),
            support=supp,
            support_size=len(supp),
            objective=float(trace.objectives[-1]),
            qc_margin=report.qc_margin,
            sandwich_passed=verdict.passed,
            sandwich_first_violation=verdict.first_violation,
            burn_in=burn_in,
            final_step_norm=trace.final_step_norm,
        )
        # the problem dies with this chunk, so the end state that would
        # let a solve continue the trace could never be used
        kept = dataclasses.replace(trace, _end=None) if keep_traces else None
        outcomes.append((record, kept))
    return outcomes


def run_batch(config, jobs=1, keep_traces=True):
    """Generate, solve, and certify every instance of a batch.

    Instances go in chunks of consecutive indices. Each chunk is
    generated when it is reached, and its production solves and then
    its reference solves run as one stack each (see :func:`solve`). A
    chunk holds at most `CHUNK_BYTES` of Gram storage and trace buffers
    (at least one instance), so memory does not grow with the batch.
    Each instance's results are bit-identical to solving it alone.

    Parameters
    ----------
    config : ExperimentConfig
    jobs : int
        Worker processes, each taking whole chunks; results are reduced
        in index order, so any worker count yields the identical
        BatchResult.
    keep_traces : bool
        Retain each run's SolveTrace (needed for trace emission); a kept
        trace holds its records only, not the state a solve could
        continue from.

    Returns
    -------
    BatchResult

    Raises
    ------
    DivergenceError
        If any instance diverges; the message names the first such
        instance.
    """
    if not isinstance(config, ExperimentConfig):
        raise ContractViolation("config must be an ExperimentConfig")
    jobs = int(jobs)
    if jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {jobs!r}")
    chunks = _chunks(config, jobs)
    if jobs == 1:
        done = [_run_chunk(config, chunk, keep_traces) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(
                _run_chunk, [config] * len(chunks), chunks,
                [keep_traces] * len(chunks),
            ))
    outcomes = [outcome for chunk in done for outcome in chunk]
    records = tuple(rec for rec, _ in outcomes)
    traces = tuple(tr for _, tr in outcomes) if keep_traces else None
    histogram = {}
    for rec in records:
        histogram[rec.support_size] = histogram.get(rec.support_size, 0) + 1
    return BatchResult(
        config=config, histogram=histogram, per_run=records, traces=traces,
    )


def emit_histogram(result, path):
    """Write the support-size histogram as CSV, sizes ascending.

    Format: a `support_size,count` header followed by one row per
    observed size. Deterministic byte-for-byte for a given result.
    """
    lines = ["support_size,count"]
    for size in sorted(result.histogram):
        lines.append(f"{int(size)},{int(result.histogram[size])}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_histogram(path):
    """Parse a histogram CSV back into a {size: count} dict."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "support_size,count":
            raise ContractViolation(f"unexpected histogram header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            size_s, count_s = line.split(",")
            out[int(size_s)] = int(count_s)
    return out


def emit_traces(result, path, final_size=None):
    """Write per-iteration trace records as JSON lines.

    One record per recorded iteration of each selected run:
    ``{"run": instance index, "iter": n, "support": [...], "objective": v}``
    with the support as a sorted list of 1-based group labels. When
    `final_size` is given, only runs whose final support has that size
    are emitted (the usual way to look at how a particular support size
    was reached).
    """
    if result.traces is None:
        raise ContractViolation("batch was run without keep_traces")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec, trace in zip(result.per_run, result.traces):
            if final_size is not None and rec.support_size != int(final_size):
                continue
            write_trace_rows(fh, rec.index, trace)


def write_trace_rows(fh, run, trace):
    """Write one JSON line per recorded iteration of `trace` to `fh`.

    Rows read ``{"run": run, "iter": n, "support": [...], "objective": v}``
    with the support as a sorted list of 1-based group labels, formatted
    as ``json.dumps(row, separators=(",", ":"))`` would.
    """
    # each support row's bytes key its label, formatted once per support
    rows = np.ascontiguousarray(trace.supports)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()
    labels = {
        key: json.dumps(
            (np.flatnonzero(np.frombuffer(key, dtype=bool)) + 1).tolist(),
            separators=(",", ":"),
        )
        for key in set(keys)
    }
    # one dumps call formats every objective as a row's dumps would
    objectives = json.dumps(trace.objectives.tolist())[1:-1].split(", ")
    fh.write("".join(
        f'{{"run":{int(run)},"iter":{n},"support":{labels[key]},'
        f'"objective":{obj}}}\n'
        for n, key, obj in zip(trace.iterations.tolist(), keys, objectives)
    ))


def emit_summary(result, path):
    """Write the batch config echo and per-run records as one JSON file.

    Group labels are 1-based in the file, matching the trace format.
    """
    per_run = []
    for rec in result.per_run:
        per_run.append({
            "index": rec.index,
            "seed": rec.seed,
            "support": sorted(g + 1 for g in rec.support),
            "support_size": rec.support_size,
            "objective": rec.objective,
            "qc_margin": rec.qc_margin,
            "sandwich_passed": rec.sandwich_passed,
            "sandwich_first_violation": rec.sandwich_first_violation,
            "burn_in": rec.burn_in,
            "final_step_norm": rec.final_step_norm,
        })
    doc = {
        "config": _config_dict(result.config),
        "histogram": {str(k): int(v) for k, v in sorted(result.histogram.items())},
        "per_run": per_run,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_dict(config):
    doc = dataclasses.asdict(config)
    doc["group_dims"] = (
        list(config.group_dims) if config.group_dims is not None else None
    )
    doc["sigma_range"] = (
        list(config.sigma_range) if config.sigma_range is not None else None
    )
    return doc

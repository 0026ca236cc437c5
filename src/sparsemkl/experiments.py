"""Synthetic benchmark batteries and their file formats.

Instances are generated deterministically: every instance's generator is
seeded by a documented mix of the batch master seed and the instance
index, so batches are reproducible bit for bit regardless of execution
order or worker count. Two families are built in: linear kernels on
disjoint coordinate groups, and banks of Gaussian kernels with random
bandwidths. Batch runs record, per instance, the final support, the
objective, the qualification margin of the trajectory's limit, and the
support-sandwich verdict; histograms of final support sizes and
per-iteration trace files are emitted as plot-ready CSV/JSON lines.
"""

import dataclasses
import json
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; here it loads at start-up
import numpy.random  # noqa: F401

from .core import Dataset, DualCoefficients, ProblemInstance
from .errors import ContractViolation, DivergenceError
from .kernels import GaussianFamily, LinearGroupProjection, assemble_gram_blocks
from .solver import SolverConfig, solve_with_reference, stack_state_floats
from .support import (
    last_support_change,
    qualification_check,
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
    "emit_traces",
    "write_trace_rows",
    "emit_summary",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

FAMILIES = ("group-lasso", "gaussian-kernel")

#: Rows `write_trace_rows` formats and writes at once.
_TRACE_BLOCK = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one batch of synthetic instances.

    Defaults (via the two classmethods) mirror the reference benchmark:
    m=50 samples, G=20 groups, s=5 planted groups, lam=0.2, noise
    standard deviation 1e-2, tau_factor 0.8 (a default of the field
    itself, as is master_seed 0); the group-lasso family uses
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
    tau_factor: float = 0.8
    master_seed: int = 0
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
        if s == 0 and noise == 0.0:
            raise ContractViolation(
                "s = 0 with noise_std = 0 makes every response zero, which "
                "leaves the relative lam nothing to scale"
            )
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
            if any(d < 1 for d in dims):
                raise ContractViolation(f"group_dims must be >= 1, got {dims}")
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
            bounds = tuple(float(v) for v in np.ravel(self.sigma_range))
            if len(bounds) != 2 or not 0.0 < bounds[0] <= bounds[1] < np.inf:
                raise ContractViolation(
                    f"sigma_range must be lo, hi with 0 < lo <= hi, got {self.sigma_range!r}"
                )
            object.__setattr__(self, "sigma_range", bounds)
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

    def as_dict(self):
        """The fields as a dict, the tuple fields as lists or None."""
        doc = dataclasses.asdict(self)
        for name in ("group_dims", "sigma_range"):
            value = getattr(self, name)
            doc[name] = list(value) if value is not None else None
        return doc


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
    points.setflags(write=False)  # the dataset's and the Gram's, uncopied
    if config.family == "group-lasso":
        spec = LinearGroupProjection(config.group_dims)
    else:
        lo, hi = config.sigma_range
        sigmas = np.exp(rng.uniform(np.log(lo), np.log(hi), size=config.G))
        spec = GaussianFamily(tuple(float(s) for s in sigmas))
    data = Dataset(points, np.zeros(config.m))
    gram = assemble_gram_blocks(data, spec)

    chosen = np.sort(rng.choice(config.G, size=config.s, replace=False))
    alpha_star = np.zeros((config.m, config.G))
    if config.s:
        alpha_star[:, chosen] = rng.standard_normal((config.m, config.s))
    noise = config.noise_std * rng.standard_normal(config.m)
    y = gram.apply(alpha_star) + noise

    problem = ProblemInstance(
        dataset=Dataset(data.points, y), gram=gram,
        lam=config.lam * float(gram.norms(y).max()),
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


#: How many instances a batch steps together, as one stack: as many as
#: fit in this many bytes by `_chunk_bytes`' model of their Gram storage,
#: stack state and, if traced, trace buffers. A model, not a bound: it
#: leaves out the results and polished references and the polish's
#: factors (ROADMAP item 8).
CHUNK_BYTES = 2 << 20


def _chunk_bytes(config, rows, keep_traces=True):
    """Bytes a chunk of `rows` instances holds while it is solved.

    Each row's Gram storage, its stack state
    (`solver.stack_state_floats`) beside two spare (G, m) float arrays
    and, if traced, an objective and a step norm per iteration. The
    spare arrays are headroom for the rest of the instance and the
    results, which it leaves out; the polish runs after the stack is
    freed (ROADMAP item 8).
    """
    G, m = config.G, config.m
    if config.family == "group-lasso":
        d_max = max(config.group_dims)
        # the features and the (G, d_max, m) transposed factor stack;
        # with unequal widths the gram keeps its own padded features
        # too; and when the rows are two or more, the padded features
        # and transposed factors that the chunk's bound step stacks (a
        # lone row reads its gram's own, core.bind_stack)
        copies = 1 + (len(set(config.group_dims)) > 1) + 2 * (rows > 1)
        gram = 8 * m * config.p + copies * 8 * G * m * d_max
        state = stack_state_floats(G, m, d_max)
    else:
        gram = 8 * G * m * m
        state = stack_state_floats(G, m)
    return rows * (gram + 8 * (state + 2 * G * m)
                   + 16 * config.iters * keep_traces)


def _row_bytes(config, keep_traces=True):
    """Bytes each row of a chunk of two or more holds (`_chunk_bytes`),
    the figure `_chunks` sizes chunks by."""
    return _chunk_bytes(config, 2, keep_traces) // 2


def _chunks(config, jobs, keep_traces=True):
    """Consecutive index ranges, each solved as one stack by one worker.

    As few chunks as the `CHUNK_BYTES` cap allows, but at least one per
    worker, with sizes that differ by at most one.
    """
    n = config.n_instances
    size = max(1, CHUNK_BYTES // _row_bytes(config, keep_traces))
    k = max(min(jobs, n), -(-n // size))
    return [range(i * n // k, (i + 1) * n // k) for i in range(k)]


def _run_chunk(config, indices, keep_traces):
    solver_cfg = SolverConfig(
        tau_factor=config.tau_factor, max_iters=config.iters,
        stop_tol=0.0, record_trace=keep_traces,
    )
    try:
        problems = [generate_instance(config, i)[0] for i in indices]
        results = solve_with_reference(problems, solver_cfg)
    except MemoryError as err:
        # a plain message, so that it crosses the process pool
        raise MemoryError(
            f"instances {indices[0]}-{indices[-1]}, a chunk predicted to "
            f"take {_chunk_bytes(config, len(indices), keep_traces)} bytes: "
            f"{str(err) or 'allocation failed'}"
        ) from err
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
    for index, problem, result in zip(indices, problems, results):
        report = qualification_check(result.reference, problem)
        burn_in = last_support_change(result.trace)
        verdict = sandwich_check(result.trace, report, burn_in)
        supp = frozenset(support_of(result.coeffs))
        record = PerRun(
            index=index,
            seed=instance_seed(config.master_seed, index),
            support=supp,
            support_size=len(supp),
            objective=result.trace.objective,
            qc_margin=report.qc_margin,
            sandwich_passed=verdict.passed,
            sandwich_first_violation=verdict.first_violation,
            burn_in=burn_in,
            final_step_norm=result.trace.final_step_norm,
        )
        outcomes.append((record, result.trace if keep_traces else None))
    return outcomes


def run_batch(config, jobs=1, keep_traces=True):
    """Generate, solve, and certify every instance of a batch.

    Instances go in chunks of consecutive indices. Each chunk is
    generated when it is reached and solved as one stack, its references
    taken after the stack's run (see
    :func:`~sparsemkl.solver.solve_with_reference`). A chunk is as
    many instances (at least one) as fit in `CHUNK_BYTES` by a model of
    their Gram storage, stack state and, when traces are kept, trace
    buffers, so memory does not grow with the batch; the model leaves
    some arrays out (see `CHUNK_BYTES`). An untraced batch records no
    per-iteration arrays: its burn-in and sandwich verdict read each
    run's support change events. Each instance's results are
    bit-identical to solving it alone.

    Parameters
    ----------
    config : ExperimentConfig
    jobs : int
        Worker processes, each taking whole chunks; results are reduced
        in index order, so any worker count yields the identical
        BatchResult.
    keep_traces : bool
        Retain each run's SolveTrace, with its per-iteration records
        (needed for trace emission).

    Returns
    -------
    BatchResult

    Raises
    ------
    DivergenceError
        If any instance diverges; the message names the first such
        instance.
    MemoryError
        If a chunk runs out of memory; the message names its first and
        last instance and the bytes `_chunk_bytes` predicted for it.
    """
    if not isinstance(config, ExperimentConfig):
        raise ContractViolation("config must be an ExperimentConfig")
    jobs = int(jobs)
    if jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {jobs!r}")
    chunks = _chunks(config, jobs, keep_traces)
    # a pool starts all its workers at the first submit
    workers = min(jobs, len(chunks))
    if workers == 1:
        done = [_run_chunk(config, chunk, keep_traces) for chunk in chunks]
    else:
        # loaded here, not at import: one worker never builds a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    as ``json.dumps(row, separators=(",", ":"))`` would. The support
    change events are expanded one segment of constant support at a
    time, and each segment is written in blocks of at most
    `_TRACE_BLOCK` rows.
    """
    # one dumps call formats each distinct objective as a row's dumps
    # would; they are told apart by their bits, so -0.0 is not 0.0
    bits, which = np.unique(trace.objectives.view(np.int64),
                            return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    first = trace.iters_run - trace.n_recorded + 1
    ends = [*trace.change_iters[1:].tolist(), trace.iters_run + 1]
    head = f'{{"run":{int(run)},"iter":'
    for start, end, mask in zip(trace.change_iters.tolist(), ends,
                                trace.change_supports):
        label = json.dumps((np.flatnonzero(mask) + 1).tolist(),
                           separators=(",", ":"))
        tail = f',"support":{label},"objective":'
        for a in range(max(start, first), end, _TRACE_BLOCK):
            b = min(a + _TRACE_BLOCK, end)
            fh.write("".join(
                f"{head}{n}{tail}{texts[i]}}}\n" for n, i in
                zip(range(a, b), which[a - first:b - first].tolist())
            ))


def emit_summary(result, path):
    """Write the batch config echo and per-run records as one JSON file.

    Group labels are 1-based in the file, matching the trace format.
    """
    per_run = [{**dataclasses.asdict(rec),
                "support": sorted(g + 1 for g in rec.support)}
               for rec in result.per_run]
    doc = {
        "config": result.config.as_dict(),
        "histogram": {str(k): int(v) for k, v in sorted(result.histogram.items())},
        "per_run": per_run,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

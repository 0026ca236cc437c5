"""Sparse multiple kernel learning at desk scale.

A small numpy library around one algorithm: forward-backward
splitting with per-group kernel thresholding, run entirely in
representer coordinates. Alongside the solver it ships the support
machinery that makes identification statements checkable (certificates,
extended supports, qualification margins, strata lattices), two
independent oracle solvers for certifying results on small instances,
and a reproducible synthetic benchmark harness.

The oracle and strata exports load on first access: a batch or a solve
runs neither, and importing them costs start-up time.
"""

import importlib

from .core import (
    Dataset,
    DualCoefficients,
    GramBlocks,
    ProblemInstance,
    objective,
    residual,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DivergenceError,
    DualInfeasible,
    OracleFailure,
)
from .experiments import (
    BatchResult,
    ExperimentConfig,
    PerRun,
    emit_histogram,
    emit_summary,
    emit_traces,
    generate_instance,
    instance_seed,
    run_batch,
)
from .kernels import (
    GaussianFamily,
    LinearGroupProjection,
    assemble_gram_blocks,
)
from .solver import SolveTrace, SolverConfig, solve, solve_with_reference
from .support import (
    SandwichVerdict,
    SupportReport,
    certificate_norms,
    last_support_change,
    qualification_check,
    sandwich_check,
    support_of,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DualCoefficients",
    "GramBlocks",
    "ProblemInstance",
    "objective",
    "residual",
    "ConfigError",
    "ContractViolation",
    "DivergenceError",
    "DualInfeasible",
    "OracleFailure",
    "BatchResult",
    "ExperimentConfig",
    "PerRun",
    "emit_histogram",
    "emit_summary",
    "emit_traces",
    "generate_instance",
    "instance_seed",
    "run_batch",
    "GaussianFamily",
    "LinearGroupProjection",
    "assemble_gram_blocks",
    "OracleResult",
    "bcd_solve",
    "enumerate_solve",
    "SolveTrace",
    "SolverConfig",
    "solve",
    "DualMark",
    "DualStratum",
    "LatticeVerdict",
    "PrimalMark",
    "PrimalStratum",
    "dual_stratum_of",
    "primal_stratum_of",
    "stratum_leq",
    "transfer_JR",
    "transfer_JRstar",
    "verify_lattice",
    "SandwichVerdict",
    "SupportReport",
    "certificate_norms",
    "last_support_change",
    "qualification_check",
    "sandwich_check",
    "solve_with_reference",
    "support_of",
]

# export name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("OracleResult", "bcd_solve", "enumerate_solve"), "oracle"),
    **dict.fromkeys((
        "DualMark", "DualStratum", "LatticeVerdict", "PrimalMark",
        "PrimalStratum", "dual_stratum_of", "primal_stratum_of",
        "stratum_leq", "transfer_JR", "transfer_JRstar", "verify_lattice",
    ), "strata"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

"""Sparse multiple kernel learning at desk scale.

A small numpy library around one algorithm: forward-backward
splitting with per-group kernel thresholding, run entirely in
representer coordinates. Alongside the solver it ships the support
machinery that makes identification statements checkable (certificates,
extended supports, qualification margins, strata lattices), two
independent oracle solvers for certifying results on small instances,
and a reproducible synthetic benchmark harness.
"""

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
    load_histogram,
    run_batch,
)
from .kernels import (
    GaussianFamily,
    LinearGroupProjection,
    assemble_gram_blocks,
)
from .oracle import OracleResult, bcd_solve, enumerate_solve
from .solver import SolveTrace, SolverConfig, solve
from .strata import (
    DualMark,
    DualStratum,
    LatticeVerdict,
    PrimalMark,
    PrimalStratum,
    dual_stratum_of,
    primal_stratum_of,
    stratum_leq,
    transfer_JR,
    transfer_JRstar,
    verify_lattice,
)
from .support import (
    SandwichVerdict,
    SupportReport,
    certificate_norms,
    last_support_change,
    qualification_check,
    reference_solve,
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
    "load_histogram",
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
    "reference_solve",
    "sandwich_check",
    "support_of",
]

"""Supports, certificates, qualification, and identification checks.

Two set-valued observables drive everything here. The *support* of a
coefficient matrix is the set of groups with a nonzero column. The
*extended support* is read off the residual instead: the groups whose
dual certificate norm :math:`\\sqrt{r^T K_g r}/\\lambda` reaches 1. At a
minimizer the support always sits inside the extended support, and the
two coincide exactly when the qualification (irrepresentability)
condition holds. Iterates of the solver are eventually *sandwiched*
between the two sets, which :func:`sandwich_check` verifies on a trace.
"""

from dataclasses import dataclass

import numpy as np

from .core import DualCoefficients, residual
from .errors import ContractViolation
from .solver import REFERENCE_STOP_TOL, SolverConfig, SolveTrace, solve

__all__ = [
    "SupportReport",
    "SandwichVerdict",
    "support_of",
    "certificate_norms",
    "qualification_check",
    "sandwich_check",
    "last_support_change",
    "reference_solve",
]

#: Default relative tolerance band around the certificate level 1.
DEFAULT_EPS_REL = 1e-4

#: A reference solve runs for this many times the production budget.
REFERENCE_BUDGET_FACTOR = 10


@dataclass(frozen=True, eq=False)
class SupportReport:
    """Support structure of an (approximate) solution.

    Attributes
    ----------
    support : frozenset of int
        0-based groups with nonzero coefficient columns.
    extended_support : frozenset of int
        Groups whose certificate norm is within `eps_rel` of 1.
    certificate_norms : (G,) ndarray
        ``sqrt(r' K_g r) / lambda`` per group.
    qc_holds : bool
        Qualification: every off-support certificate norm stays below
        1 by more than `eps_rel`. Equivalent, at the same tolerance, to
        the extended support collapsing onto the support.
    qc_margin : float
        ``1 - max(certificate norm over off-support groups)``; 1.0 when
        every group is in the support.
    eps_rel : float
        Tolerance the set memberships were decided with.

    Notes
    -----
    ``support <= extended_support`` holds whenever the report is taken at
    a point satisfying the solver's stationarity check; at arbitrary
    coefficient matrices neither inclusion is guaranteed.
    """

    support: frozenset
    extended_support: frozenset
    certificate_norms: np.ndarray
    qc_holds: bool
    qc_margin: float
    eps_rel: float

    def __post_init__(self):
        norms = np.asarray(self.certificate_norms, dtype=np.float64)
        if norms.ndim != 1 or not np.isfinite(norms).all():
            raise ContractViolation("certificate_norms must be finite 1-D")
        norms.setflags(write=False)
        object.__setattr__(self, "support", frozenset(int(g) for g in self.support))
        object.__setattr__(
            self, "extended_support",
            frozenset(int(g) for g in self.extended_support),
        )
        object.__setattr__(self, "certificate_norms", norms)
        object.__setattr__(self, "qc_holds", bool(self.qc_holds))
        object.__setattr__(self, "qc_margin", float(self.qc_margin))
        object.__setattr__(self, "eps_rel", float(self.eps_rel))


@dataclass(frozen=True)
class SandwichVerdict:
    """Outcome of a sandwich check over a trace.

    `first_violation` is the 1-based iteration number of the earliest
    recorded entry violating the inclusion, or `None` on a pass.
    """

    passed: bool
    first_violation: int | None = None

    def __bool__(self):
        return self.passed


def support_of(coeffs):
    """Groups with a nonzero coefficient column (0-based indices).

    Relies on the solver's exact-zero convention: removed columns are
    identically zero, so no tolerance is involved.
    """
    if not isinstance(coeffs, DualCoefficients):
        raise ContractViolation("coeffs must be a DualCoefficients")
    nz = np.any(coeffs.alpha != 0.0, axis=0)
    return set(int(g) for g in np.flatnonzero(nz))


def certificate_norms(coeffs, problem):
    """Scaled dual certificate norms ``sqrt(r' K_g r) / lambda``.

    Parameters
    ----------
    coeffs : DualCoefficients
    problem : ProblemInstance

    Returns
    -------
    (G,) ndarray
    """
    r = residual(coeffs, problem.gram, problem.dataset.responses)
    quad = problem.gram.quad(r)
    return np.sqrt(np.maximum(quad, 0.0)) / problem.effective_lambda


def qualification_check(coeffs, problem, eps_rel=DEFAULT_EPS_REL):
    """Full support report at an approximate solution.

    Parameters
    ----------
    coeffs : DualCoefficients
        Should approximate a minimizer for the report to be meaningful.
    problem : ProblemInstance
    eps_rel : float
        Band around the certificate level 1 deciding extended-support
        membership, and the strictness margin required for `qc_holds`.

    Returns
    -------
    SupportReport
    """
    eps_rel = float(eps_rel)
    if not (0.0 <= eps_rel < 1.0):
        raise ContractViolation(f"eps_rel must lie in [0, 1), got {eps_rel!r}")
    supp = support_of(coeffs)
    norms = certificate_norms(coeffs, problem)
    esupp = set(int(g) for g in np.flatnonzero(norms >= 1.0 - eps_rel))
    off = [g for g in range(problem.n_groups) if g not in supp]
    if off:
        margin = 1.0 - float(norms[off].max())
    else:
        margin = 1.0
    # strictness is tested against the same eps_rel as esupp membership,
    # so qc_holds == (extended_support == support) at any near-KKT point
    return SupportReport(
        support=supp,
        extended_support=esupp,
        certificate_norms=norms,
        qc_holds=margin > eps_rel,
        qc_margin=margin,
        eps_rel=eps_rel,
    )


def sandwich_check(trace, reference_report, burn_in=0):
    """Verify the support sandwich on every recorded iteration.

    Checks that for each recorded iteration n >= `burn_in`,

        reference support <= trace support at n <= reference esupp.

    Parameters
    ----------
    trace : SolveTrace
    reference_report : SupportReport
        Taken at a well-converged reference solution of the same problem.
    burn_in : int
        1-based iteration number before which records are ignored; the
        identification statement only promises the inclusions from some
        finite iteration onward. From ``last_support_change(trace)`` on,
        as a batch checks, every row is the final support: the verdict is
        the inclusion at it, and a failure is first seen at `burn_in`.

    Returns
    -------
    SandwichVerdict
    """
    if not isinstance(trace, SolveTrace):
        raise ContractViolation("trace must be a SolveTrace")
    burn_in = int(burn_in)
    if trace.n_recorded == 0:
        raise ContractViolation("trace has no recorded iterations")
    if burn_in > int(trace.iterations[-1]):
        raise ContractViolation(
            f"burn_in {burn_in} is beyond the last recorded iteration "
            f"{int(trace.iterations[-1])}"
        )
    G = trace.n_groups
    supp = reference_report.support
    esupp = reference_report.extended_support
    if any(g >= G for g in supp | esupp):
        raise ContractViolation(
            f"reference report names groups beyond the trace's G={G}"
        )
    lo = np.isin(np.arange(G), sorted(supp))
    hi = np.isin(np.arange(G), sorted(esupp))
    sel = trace.iterations >= burn_in
    rows = trace.supports[sel]
    ok = (rows >= lo).all(axis=1) & (rows <= hi).all(axis=1)
    if ok.all():
        return SandwichVerdict(True, None)
    first = int(trace.iterations[sel][np.flatnonzero(~ok)[0]])
    return SandwichVerdict(False, first)


def last_support_change(trace):
    """1-based iteration of the last recorded support change.

    Returns the first recorded iteration when the support never changes
    across the trace. Useful as the `burn_in` of
    :func:`sandwich_check`: from this iteration on, the traced support
    is constant.
    """
    if not isinstance(trace, SolveTrace):
        raise ContractViolation("trace must be a SolveTrace")
    if trace.n_recorded == 0:
        raise ContractViolation("trace has no recorded iterations")
    rows = trace.supports
    changed = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1))
    if changed.size == 0:
        return int(trace.iterations[0])
    return int(trace.iterations[changed[-1] + 1])


def reference_solve(problem, config, trace=None):
    """Well-converged same-family reference for identification checks.

    The reference is the solver's own trajectory from zero at
    `config.tau_factor`, run for `REFERENCE_BUDGET_FACTOR` (10) times the
    configured iteration budget or until the step norm falls to 1e-12
    (`REFERENCE_STOP_TOL`). This is deliberately a same-algorithm
    reference; independent ground truth lives in the oracle module.

    Parameters
    ----------
    problem : ProblemInstance or list/tuple of ProblemInstance
        A list or tuple is referenced as one stack: the trajectories
        that must run go through one stacked solve.
    config : SolverConfig
    trace : SolveTrace, optional
        Trace of the production run. If that run started from zero on
        this problem at this `tau_factor`, its trajectory is not
        replayed: when it already passed a step norm of at most 1e-12
        within the reference budget, that iterate is the reference, and
        otherwise the iteration continues from the run's final state.
        With no such trace the trajectory is replayed from zero. Either
        way the result is bit-identical to the replay. A stack takes a
        list or tuple of traces (or None), one per problem.

    Returns
    -------
    DualCoefficients
        For a stack, a tuple with one per problem.

    Notes
    -----
    When the iteration continues, the inner solve's trace reports
    `iters_run` as the trajectory index of the returned iterate, which
    counts the production run's iterations too.
    """
    if not isinstance(config, SolverConfig):
        raise ContractViolation("config must be a SolverConfig")
    stacked = isinstance(problem, (list, tuple))
    problems, traces = (list(problem), trace) if stacked else ([problem], [trace])
    if traces is None:
        traces = [None] * len(problems)
    elif isinstance(traces, (list, tuple)) and len(traces) == len(problems):
        traces = list(traces)
    else:
        raise ContractViolation("a stack needs a list or tuple of traces, "
                                "one per problem")
    if any(t is not None and not isinstance(t, SolveTrace) for t in traces):
        raise ContractViolation("trace must be a SolveTrace")
    ref_cfg = SolverConfig(
        tau_factor=config.tau_factor,
        max_iters=config.max_iters * REFERENCE_BUDGET_FACTOR,
        stop_tol=REFERENCE_STOP_TOL,
        record_trace=False,
    )
    refs = [None] * len(problems)
    todo, starts = [], []
    for i, (prob, tr) in enumerate(zip(problems, traces)):
        end = None if tr is None else tr._end_state(prob, config.tau_factor)
        start = None
        if end is not None and end.from_zero:
            # a settled iterate comes no later than the run's final state
            if end.settled is not None and end.settled[0] <= ref_cfg.max_iters:
                refs[i] = DualCoefficients(np.ascontiguousarray(end.settled[1].T))
                continue
            if end.n <= ref_cfg.max_iters:
                start = tr
        todo.append(i)
        starts.append(start)
    if todo:
        coeffs, _ = solve([problems[i] for i in todo], ref_cfg, starts)
        for i, c in zip(todo, coeffs):
            refs[i] = c
    return tuple(refs) if stacked else refs[0]

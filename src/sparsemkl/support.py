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
from .strata import (DEFAULT_EPS_REL, DualStratum, PrimalStratum,
                     sphere_groups, stratum_leq, transfer_JRstar)

__all__ = [
    "SupportReport",
    "SandwichVerdict",
    "support_of",
    "primal_stratum_of",
    "certificate_norms",
    "qualification_check",
    "sandwich_check",
    "last_support_change",
]


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


def primal_stratum_of(coeffs):
    """Stratum containing a coefficient matrix (exact-zero convention)."""
    return PrimalStratum.from_support(support_of(coeffs), coeffs.n_groups)


def certificate_norms(coeffs, problem):
    """Scaled dual certificate norms ``sqrt(r' K_g r) / lam``, the
    residual's kernel norms from :meth:`GramBlocks.norms` over the
    problem's λ.

    Parameters
    ----------
    coeffs : DualCoefficients
    problem : ProblemInstance

    Returns
    -------
    (G,) ndarray
    """
    r = residual(coeffs, problem.gram, problem.dataset.responses)
    return problem.gram.norms(r) / problem.lam


def qualification_check(coeffs, problem, eps_rel=DEFAULT_EPS_REL):
    """Full support report at an approximate solution.

    Parameters
    ----------
    coeffs : DualCoefficients
        Should approximate a minimizer for the report to be meaningful.
    problem : ProblemInstance
    eps_rel : float
        Band around the certificate level 1 deciding extended-support
        membership, and the strictness margin required for `qc_holds`;
        in [0, 1).

    Returns
    -------
    SupportReport
    """
    supp = support_of(coeffs)
    norms = certificate_norms(coeffs, problem)
    esupp = sphere_groups(norms, eps_rel)
    eps_rel = float(eps_rel)
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
    """Verify the support sandwich on every iteration from `burn_in` on.

    Checks that for each iteration n >= `burn_in` of the run,

        reference support <= trace support at n <= reference esupp,

    compared as strata (the upper bound is J_R* of the esupp's dual
    stratum). It reads the trace's support change events, so an untraced
    run is checked as a traced one is.

    Parameters
    ----------
    trace : SolveTrace
    reference_report : SupportReport
        Taken at a well-converged reference solution of the same problem.
    burn_in : int
        1-based iteration number before which supports are ignored; the
        identification statement only promises the inclusions from some
        finite iteration onward. From ``last_support_change(trace)`` on,
        as a batch checks, the support is the final one: the verdict is
        the inclusion at it, and a failure is first seen at `burn_in`.

    Returns
    -------
    SandwichVerdict
    """
    burn_in = int(burn_in)
    if burn_in > trace.iters_run:
        raise ContractViolation(
            f"burn_in {burn_in} is beyond the last iteration {trace.iters_run}"
        )
    G = trace.n_groups
    lower = PrimalStratum.from_support(reference_report.support, G)
    upper = transfer_JRstar(
        DualStratum.from_support(reference_report.extended_support, G)
    )
    # the support in force at burn_in, and every change after it
    k = max(int(np.searchsorted(trace.change_iters, burn_in, "right")) - 1, 0)
    for it, row in zip(trace.change_iters[k:], trace.change_supports[k:]):
        here = PrimalStratum.from_support(np.flatnonzero(row), G)
        if not (stratum_leq(lower, here) and stratum_leq(here, upper)):
            return SandwichVerdict(False, max(int(it), burn_in))
    return SandwichVerdict(True, None)


def last_support_change(trace):
    """1-based iteration of the last support change.

    Returns the run's first iteration when the support never changes.
    Useful as the `burn_in` of :func:`sandwich_check`: from this
    iteration on, the support is constant.
    """
    return int(trace.change_iters[-1])

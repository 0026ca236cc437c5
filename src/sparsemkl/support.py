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
from .solver import _solve_stack, _stack

__all__ = [
    "SupportReport",
    "SandwichVerdict",
    "support_of",
    "certificate_norms",
    "qualification_check",
    "sandwich_check",
    "last_support_change",
    "polish_reference",
    "solve_with_reference",
]

#: Default relative tolerance band around the certificate level 1.
DEFAULT_EPS_REL = 1e-4

#: A reference is the iterate at the trajectory's first step norm of at
#: most REFERENCE_STOP_TOL; a row whose polish refuses runs on for it up
#: to this many times the production budget.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_STOP_TOL = 1e-12

#: `polish_reference` certifies a reference at a relative duality gap
#: of at most POLISH_GAP_TOL, which also ends its interior-point phase
#: (on the dual residual, relative to lambda^2, and the complementarity,
#: relative to lambda^2 and to the step bound); each of its two Newton
#: phases takes at most POLISH_MAX_STEPS steps.
POLISH_GAP_TOL = 1e-12
POLISH_MAX_STEPS = 50


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
    """Verify the support sandwich on every iteration from `burn_in` on.

    Checks that for each iteration n >= `burn_in` of the run,

        reference support <= trace support at n <= reference esupp,

    reading the trace's support change events, so an untraced run is
    checked as a traced one is.

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
    supp = reference_report.support
    esupp = reference_report.extended_support
    if any(g >= G for g in supp | esupp):
        raise ContractViolation(
            f"reference report names groups beyond the trace's G={G}"
        )
    lo = np.isin(np.arange(G), sorted(supp))
    hi = np.isin(np.arange(G), sorted(esupp))
    # the support in force at burn_in, and every change after it
    k = max(int(np.searchsorted(trace.change_iters, burn_in, "right")) - 1, 0)
    rows = trace.change_supports[k:]
    ok = (rows >= lo).all(axis=1) & (rows <= hi).all(axis=1)
    if ok.all():
        return SandwichVerdict(True, None)
    first = int(trace.change_iters[k + np.flatnonzero(~ok)[0]])
    return SandwichVerdict(False, max(first, burn_in))


def last_support_change(trace):
    """1-based iteration of the last support change.

    Returns the run's first iteration when the support never changes.
    Useful as the `burn_in` of :func:`sandwich_check`: from this
    iteration on, the support is constant.
    """
    return int(trace.change_iters[-1])


def polish_reference(problem, coeffs):
    """The minimizer, certified, from an iterate near it; or None.

    At any minimizer each active block is ``alpha_g = -c_g r`` with
    ``c_g >= 0`` (r the residual), so the problem is the smooth convex
    one over at most G kernel weights (Bach, Lanckriet & Jordan, 2004;
    Rakotomamonjy et al., "SimpleMKL", 2008),

    .. math:: \\min_{c \\ge 0} \\; y^T \\Big(I + \\sum_g c_g K_g\\Big)^{-1} y
              + \\lambda^2 \\sum_g c_g ,

    twice the objective there, with residual
    ``r = -(I + sum_g c_g K_g)^-1 y`` and gradient ``lambda^2 - r' K_g r``.
    A primal-dual interior-point Newton method (Mehrotra's
    predictor-corrector) solves it from the weights
    ``sqrt(alpha_g' K_g alpha_g) / lambda`` of `coeffs`; the groups whose
    weight outweighs its slack make the identified set S, and Newton
    steps on the weights of S alone, the others zero, finish the solve.
    The result ``alpha_g = -c_g r`` is returned only when

    (i) every weight on S is > 0,
    (ii) every certificate norm off S is < 1,
    (iii) the ``m x |S|`` matrix ``[K_g r]_{g in S}`` has full column
          rank, and
    (iv) the duality gap is at most `POLISH_GAP_TOL` times the
         objective, with the dual point ``-r`` scaled into the
         certificate ball.

    Then the minimizer is unique, so it is the limit of every
    forward-backward trajectory. The residual r* is the same at every
    minimizer, and by (ii) every minimizer is zero off S; on S its
    blocks ``K_g alpha_g = -c_g K_g r*`` must sum to ``-(y + r*)``,
    which by (iii) fixes the weights. Otherwise, or when a factorization
    fails or a phase runs out of steps, it returns None. Every threshold
    is relative, so (y, lambda) scaled by 2^k scales the result by 2^k
    bit for bit, and the kernels scaled by 4^k with lambda by 2^k scale
    it by 4^-k.

    Parameters
    ----------
    problem : ProblemInstance
    coeffs : DualCoefficients
        Where to start, such as a trajectory's iterate.

    Returns
    -------
    DualCoefficients or None
    """
    gram, y = problem.gram, problem.dataset.responses
    lam = problem.effective_lambda
    with np.errstate(all="ignore"):
        try:
            found = _kernel_weights(gram, y, lam, coeffs)
        except np.linalg.LinAlgError:
            return None
        if found is None:
            return None
        weights, w = found
        S = np.flatnonzero(weights)
        alpha = np.zeros((gram.m, gram.n_groups))
        alpha[:, S] = np.multiply.outer(w, weights[S])
        if not np.isfinite(alpha).all():
            return None
        polished = DualCoefficients(alpha)
        r = residual(polished, gram, y)
        Kr = gram.apply_each(r)
        certs = np.sqrt(np.maximum(np.einsum("gi,i->g", Kr, r), 0.0)) / lam
        primal = lam * _block_norms(gram, alpha).sum() + 0.5 * (r @ r)
        scale = max(1.0, float(certs.max()))
        dual = -(y @ r) / scale - 0.5 * (r @ r) / (scale * scale)
        certified = (
            (weights[S] > 0.0).all()
            and (np.delete(certs, S) < 1.0).all()
            and np.linalg.matrix_rank(Kr[S].T) == S.size
            and primal - dual <= POLISH_GAP_TOL * primal
        )
    return polished if certified else None


def _kernel_weights(gram, y, lam, coeffs):
    """`polish_reference`'s weights c and ``(I + sum c_g K_g)^-1 y``.

    Works on the weight problem divided by lambda^2, with weights
    measured against 1/lipschitz, so slacks and every test are the same
    bits under (y, lambda) scaled by 2^k, and under the kernels scaled
    by 4^k with lambda by 2^k, which scales the weights by 4^-k.
    Returns None when a phase runs out of steps.
    """
    lam2 = lam * lam
    every = np.arange(gram.n_groups)
    # an interior start: the iterate's weights, all raised a little,
    # and slacks no smaller than a hundredth
    c = _block_norms(gram, coeffs.alpha) / lam
    top = c.max()
    c += 1e-2 * (top if top > 0.0 else 1.0 / gram.lipschitz)
    grad, hess = _weight_state(gram, y, lam2, c, every)
    s = np.maximum(grad, 1e-2)
    for _ in range(POLISH_MAX_STEPS):
        mu = (c @ s) / c.size
        # weights are in units of 1/lipschitz, gradients and slacks in none
        if (mu * gram.lipschitz <= POLISH_GAP_TOL
                and np.abs(grad - s).max() <= POLISH_GAP_TOL):
            break
        # Newton on grad(c) = s, c * s = target; predictor then corrector
        system = hess + np.diag(s / c)
        dc = np.linalg.solve(system, -grad)
        ds = -s - s / c * dc
        ahead = ((c + _to_boundary(c, dc) * dc)
                 @ (s + _to_boundary(s, ds) * ds)) / c.size
        target = (ahead / mu) ** 3 * mu - dc * ds
        dc = np.linalg.solve(system, target / c - grad)
        ds = target / c - s - s / c * dc
        t = 0.99 * min(_to_boundary(c, dc), _to_boundary(s, ds))
        c, s = c + t * dc, s + t * ds
        grad, hess = _weight_state(gram, y, lam2, c, every)
    else:
        return None
    # each weight, in units of 1/lipschitz, against its slack: one of
    # them goes to 0 on each group
    kept = c * gram.lipschitz > s
    S, c = np.flatnonzero(kept), np.where(kept, c, 0.0)
    if S.size:
        for _ in range(POLISH_MAX_STEPS):
            grad, hess = _weight_state(gram, y, lam2, c, S)
            step = np.linalg.solve(hess, -grad[S])
            c[S] += step
            if np.abs(step).max() <= POLISH_GAP_TOL * c[S].max():
                break
        else:
            return None
    return c, gram.resolvent(c)(y)


def _weight_state(gram, y, lam2, c, S):
    """The weight problem's gradient over lambda^2 at weights c, and its
    Hessian over the groups S.

    With ``w = (I + sum_g c_g K_g)^-1 y`` they are ``1 - w' K_g w /
    lambda^2`` and ``2 (K_g w)' (I + sum_g c_g K_g)^-1 (K_h w) /
    lambda^2``.
    """
    solve = gram.resolvent(c)
    w = solve(y)
    U = gram.apply_each(w)
    # einsum's own loops, not BLAS, whose threaded products change their
    # low bits with the thread count
    grad = 1.0 - np.einsum("gi,i->g", U, w) / lam2
    hess = 2.0 * np.einsum("gi,ih->gh", U[S], solve(U[S].T)) / lam2
    return grad, 0.5 * (hess + hess.T)


def _block_norms(gram, alpha):
    """``sqrt(alpha_g' K_g alpha_g)`` per group, without the transient
    that `GramBlocks.quad` takes on dense storage."""
    AT = np.ascontiguousarray(alpha.T)
    return np.sqrt(np.maximum(np.einsum("gi,gi->g", gram.apply_each(AT), AT),
                              0.0))


def _to_boundary(x, dx):
    """The largest t <= 1 with x + t dx >= 0, for x > 0."""
    shrink = dx < 0.0
    if not shrink.any():
        return 1.0
    return min(1.0, float((-x[shrink] / dx[shrink]).min()))


def solve_with_reference(problem, config):
    """Solve from zero, and take the trajectory's limit as a reference.

    The solve is :func:`~sparsemkl.solver.solve`'s from zero. The
    reference is the limit of its trajectory, for identification checks;
    independent ground truth lives in the oracle module. Where the
    trajectory has passed a step norm of at most `REFERENCE_STOP_TOL`
    (1e-12) by the end of the solve, the iterate there is the reference.
    Otherwise :func:`polish_reference` is tried once, on the solve's
    result, and the certified limit it returns is the reference. Where
    it refuses, the reference is the trajectory's forward-backward tail:
    run on for `REFERENCE_BUDGET_FACTOR` (10) times the configured
    iteration budget or until the step norm falls to 1e-12, and returned
    uncertified.

    Both come from one call of the stacked loop, which runs the
    trajectory once: its row takes the solve's result and the reference
    as two results of one run, each where its own rule first stops it,
    and runs on, untraced, after the solve's result if the reference is
    still to take. An unpolished reference is bit-identical to a replay
    from zero. A warm-started run is a separate `solve`.

    Parameters
    ----------
    problem, config
        As for :func:`~sparsemkl.solver.solve`; a list or tuple of
        problems is solved as one stack.

    Returns
    -------
    SolveResult
        `coeffs` and `trace` as :func:`~sparsemkl.solver.solve` returns
        them, `reference`, and `stepped`: the row-iterations the loop
        computed for the problem, its reference tail included and the
        periods a cycle exit skipped not. A stack gets a tuple of them,
        one per problem in the order given.
    """
    stacked, problems, starts = _stack(problem, config, None)
    reference = (REFERENCE_STOP_TOL,
                 config.max_iters * REFERENCE_BUDGET_FACTOR, polish_reference)
    results = _solve_stack(problems, config, starts, reference)
    return results if stacked else results[0]

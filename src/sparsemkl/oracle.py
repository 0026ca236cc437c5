"""Independent ground-truth solvers for small instances.

Two solvers from different algorithmic families than the production
iteration, used to certify it in tests rather than to be fast:

* :func:`enumerate_solve` walks every candidate support, solves the
  stationarity system restricted to that support by a damped fixed
  point, and keeps certified candidates only.
* :func:`bcd_solve` runs cyclic block-coordinate minimization in
  explicit feature coordinates, solving each block subproblem through
  an eigendecomposition and scalar root-finding.

Disagreement between the two, or between either and the production
solver, points at a real defect; they share no iteration code.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DualCoefficients, ProblemInstance, objective
from .errors import ContractViolation, OracleFailure

__all__ = ["OracleResult", "enumerate_solve", "bcd_solve"]

#: enumerate_solve walks 2^G candidate supports.
MAX_ENUM_GROUPS = 10

_FP_MAX_ITERS = 2000
_FP_WARMUP = 30
_FP_TOL = 1e-11
_COLLAPSE = 1e-13
# a converged scaling this small is a block on its way out of the
# support, not a solution with that support: the subset candidate
# without the block reaches the same objective up to O(c^2)
_DEGENERATE = 1e-8
_MAX_STALLS = 40
_ROOT_TOL = 1e-15  # absolute and relative step tolerance of the block root
_ROOT_MAX_ITERS = 100


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Certified solution of one oracle run.

    Attributes
    ----------
    alpha_or_w : DualCoefficients or ndarray
        The solution in the solver's natural coordinates: coefficient
        matrix for :func:`enumerate_solve`, stacked feature-space vector
        for :func:`bcd_solve`.
    objective : float
    support : frozenset of int
        0-based active groups.
    kkt_residual : float
        Largest relative stationarity violation: distance of active
        certificate norms from 1 and excess of inactive ones over 1.
    """

    alpha_or_w: object
    objective: float
    support: frozenset
    kkt_residual: float


def _fixed_point(K_s, y, lam):
    """Solve the on-support stationarity system for scalings c > 0.

    The restricted system forces every active coefficient column to be a
    multiple of the residual: alpha_g = -c_g * rho with
    rho = -(I + sum_g c_g K_g)^{-1} y, and the scalings must bring each
    active certificate norm sqrt(rho' K_g rho) to exactly lam. A
    0.5-damped multiplicative update walks into the basin; once the
    relative certificate error is small a guarded Newton step on the
    same system finishes the job, which matters for marginally active
    blocks where the damped update alone crawls. A scaling that
    collapses toward zero (mid-run or at convergence), or a Newton step
    permanently pinned at the positivity boundary, means the block wants
    to leave the support, which rejects the candidate: the enumeration
    visits the subset without that block anyway.

    Returns (c, rho) on success, None on rejection.
    """
    m = y.shape[0]
    s = K_s.shape[0]
    eye = np.eye(m)
    c = np.ones(s)
    stalls = 0
    for k in range(_FP_MAX_ITERS):
        A = eye + np.tensordot(c, K_s, axes=1)
        rho = -np.linalg.solve(A, y)
        theta = np.sqrt(np.maximum(np.einsum("i,gij,j->g", rho, K_s, rho), 0.0))
        if not np.isfinite(theta).all():
            return None
        err = float(np.abs(theta - lam).max())
        if err <= _FP_TOL * lam:
            if c.min() < _DEGENERATE * max(1.0, float(c.max())):
                return None
            return c, rho

        newton_step = None
        if k >= _FP_WARMUP and err <= 0.1 * lam:
            Krho = np.einsum("gij,j->gi", K_s, rho)
            Z = np.linalg.solve(A, Krho.T)
            jac = -(Krho @ Z) / theta[:, None]
            try:
                delta = np.linalg.solve(jac, lam - theta)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                t = 1.0
                while t > 1e-12 and (c + t * delta <= 0.0).any():
                    t *= 0.5
                if t >= 1e-8:
                    newton_step = c + t * delta
                    stalls = 0
                else:
                    stalls += 1
                    if stalls > _MAX_STALLS:
                        return None
        if newton_step is not None:
            c = newton_step
        else:
            # damping 0.5: robust far from the fixed point
            c = c * (0.5 + 0.5 * theta / lam)
            if c.max() <= 0.0 or c.min() < _COLLAPSE * max(1.0, float(c.max())):
                return None
    return None


def enumerate_solve(problem, tol=1e-9):
    """Global minimizer by certified enumeration of candidate supports.

    For each of the ``2^G`` supports, solves the stationarity system
    restricted to it and accepts the candidate only if every on-support
    block stays nonzero and every off-support certificate norm is at
    most ``lam * (1 + tol)``. Among accepted candidates the smallest
    objective wins, with the lexicographically smallest support breaking
    ties, so the result is deterministic.

    Parameters
    ----------
    problem : ProblemInstance
        At most ``MAX_ENUM_GROUPS`` groups.
    tol : float
        Relative slack on the off-support certificate bound.

    Returns
    -------
    OracleResult

    Raises
    ------
    OracleFailure
        If no candidate is accepted; callers should surface this rather
        than treat it as agreement.
    """
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    G = problem.n_groups
    if G > MAX_ENUM_GROUPS:
        raise ContractViolation(
            f"enumerate_solve walks 2^G supports and allows at most "
            f"G={MAX_ENUM_GROUPS}, got {G}"
        )
    tol = float(tol)
    if tol <= 0.0:
        raise ContractViolation(f"tol must be positive, got {tol!r}")
    K = problem.gram.dense()
    y = problem.dataset.responses
    lam = problem.effective_lambda
    m = problem.m

    accepted = []
    for size in range(G + 1):
        for S in combinations(range(G), size):
            if size == 0:
                c, rho = np.zeros(0), -y
            else:
                sol = _fixed_point(K[list(S)], y, lam)
                if sol is None:
                    continue
                c, rho = sol
            theta = np.sqrt(np.maximum(problem.gram.quad(rho), 0.0))
            off = [g for g in range(G) if g not in S]
            if off and theta[off].max() > lam * (1.0 + tol):
                continue
            alpha = np.zeros((m, G))
            for c_g, g in zip(c, S):
                alpha[:, g] = -c_g * rho
            coeffs = DualCoefficients(alpha)
            viol = 0.0
            if S:
                viol = float(np.abs(theta[list(S)] - lam).max() / lam)
            if off:
                viol = max(viol, float(max(0.0, theta[off].max() - lam) / lam))
            accepted.append((
                objective(coeffs, problem), tuple(S), coeffs, viol,
            ))
    if not accepted:
        raise OracleFailure(
            "no candidate support produced a certified stationary point"
        )
    accepted.sort(key=lambda t: (t[0], t[1]))
    obj, S, coeffs, viol = accepted[0]
    return OracleResult(
        alpha_or_w=coeffs,
        objective=float(obj),
        support=frozenset(S),
        kkt_residual=viol,
    )


def _block_minimize(evals, evecs, v, lam):
    """Minimizer of ``lam*||u|| + 0.5*||X u + rho||^2`` given spectra.

    `evals`, `evecs` decompose the block's X'X; `v` is X'rho. Inside the
    lam-ball the zero vector is optimal; outside, t = ||u|| solves the
    secular equation ``S(t) = sum_i c_i^2 / (e_i t + lam)^2 = 1``, c the
    rotated v. S is decreasing and convex, so Newton from the left of
    the root climbs to it; the root is bracketed by doubling, and a step
    that leaves the bracket (rounding, near the root) bisects it.
    """
    cvec = evecs.T @ v

    def secular(t):  # S(t) - 1 and S'(t)
        d = evals * t + lam
        w = (cvec / d) ** 2
        return float(w.sum()) - 1.0, -2.0 * float((w * evals / d).sum())

    # ||v|| barely above lam can fail the second test after the rotation
    if float(np.linalg.norm(v)) <= lam or secular(0.0)[0] <= 0.0:
        return np.zeros_like(v)
    lo, hi = 0.0, 1.0
    while secular(hi)[0] > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            raise OracleFailure("block subproblem bracket expansion failed")
    t = lo
    for _ in range(_ROOT_MAX_ITERS):
        f, df = secular(t)
        lo, hi = (t, hi) if f > 0.0 else (lo, t)
        # S' < 0 unless S is numerically flat; a NaN step bisects
        newton = t - f / df if df < 0.0 else np.nan
        if abs(newton - t) <= _ROOT_TOL * (1.0 + newton):
            t = newton
            break
        t = newton if lo < newton < hi else 0.5 * (lo + hi)
        if hi - lo <= _ROOT_TOL * (1.0 + t):
            break
    else:
        raise OracleFailure("block subproblem root search did not converge")
    return -(evecs @ (cvec / (evals + lam / t)))


def bcd_solve(problem, tol=1e-10, max_sweeps=10000):
    """Cyclic block-coordinate minimizer in explicit feature coordinates.

    Requires Gram blocks in factored storage, ``K_g = X_g X_g'``: the
    oracle works on the column groups X_g of their `features` directly.
    Sweeps all groups, each time exactly minimizing the objective in one
    group's coefficients, until the sweep-to-sweep objective change is
    at most ``tol * max(1, |objective|)``.

    Returns
    -------
    OracleResult
        With `alpha_or_w` the stacked feature-space solution.

    Raises
    ------
    OracleFailure
        If `max_sweeps` is exhausted before the objective settles.
    """
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    X = problem.gram.features
    if X is None:
        raise ContractViolation("bcd_solve needs Gram blocks built from features")
    dims = problem.gram.group_dims
    y = problem.dataset.responses
    lam = problem.effective_lambda

    slices = np.split(X, np.cumsum(dims)[:-1], axis=1)
    spectra = []
    for Xg in slices:
        evals, evecs = np.linalg.eigh(Xg.T @ Xg)
        spectra.append((np.maximum(evals, 0.0), evecs))

    w = [np.zeros(d) for d in dims]
    rho = -y.copy()
    prev = 0.5 * float(rho @ rho)
    for _ in range(int(max_sweeps)):
        for g, Xg in enumerate(slices):
            rho_rest = rho - Xg @ w[g]
            v = Xg.T @ rho_rest
            w[g] = _block_minimize(*spectra[g], v, lam)
            rho = rho_rest + Xg @ w[g]
        norms = np.array([float(np.linalg.norm(u)) for u in w])
        obj = float(lam * norms.sum() + 0.5 * float(rho @ rho))
        if abs(prev - obj) <= tol * max(1.0, abs(obj)):
            theta = np.array([
                float(np.linalg.norm(Xg.T @ rho)) for Xg in slices
            ])
            viol = 0.0
            for g in range(len(dims)):
                if norms[g] > 0.0:
                    viol = max(viol, abs(theta[g] - lam) / lam)
                else:
                    viol = max(viol, max(0.0, theta[g] - lam) / lam)
            return OracleResult(
                alpha_or_w=np.concatenate(w),
                objective=obj,
                support=frozenset(
                    int(g) for g in np.flatnonzero(norms > 0.0)
                ),
                kkt_residual=float(viol),
            )
        prev = obj
    raise OracleFailure(f"bcd_solve did not settle within {max_sweeps} sweeps")

"""Forward-backward iteration with per-group kernel thresholding.

Each step takes a gradient step on the shared data-fit residual and then
applies the group-thresholding proximal map block by block:

.. math:: \\alpha_g^{n+1} =
          \\hat G_{\\lambda\\tau, g}\\big(\\alpha_g^n - \\tau r^n\\big),
          \\qquad r^n = \\sum_g K_g \\alpha_g^n - y .

For step sizes :math:`\\tau` below :math:`2/\\lambda_{\\max}(\\sum_g K_g)`
the iterates converge to a minimizer of the objective in
:mod:`sparsemkl.core`; the solver tracks the step norm in the function
space (not the Euclidean norm of the coefficients) so stopping decisions
match the quantity the convergence statement controls.
"""

import weakref
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import DualCoefficients, ProblemInstance
from .errors import ContractViolation, DivergenceError

__all__ = ["SolverConfig", "SolveTrace", "solve"]

#: Step norm at which a reference solve stops. Every solve remembers the
#: first iterate whose step reaches it, so a reference can reuse it.
REFERENCE_STOP_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step-size policy.

    Parameters
    ----------
    tau_factor : float
        Step size as a fraction of 1/L, with L the certified bound on the
        summed operator's largest eigenvalue; any value in (0, 2) keeps
        the iteration convergent.
    max_iters : int
        Iteration budget (>= 1).
    stop_tol : float
        Stop once the function-space step norm drops to this value;
        0 disables early stopping and runs the full budget.
    record_trace : bool
        Record the support, objective and step norm of every iteration.
    """

    tau_factor: float = 0.8
    max_iters: int = 1000
    stop_tol: float = 0.0
    record_trace: bool = True

    def __post_init__(self):
        if not (0.0 < float(self.tau_factor) < 2.0):
            raise ContractViolation(
                f"tau_factor must lie in (0, 2), got {self.tau_factor!r}"
            )
        if int(self.max_iters) < 1:
            raise ContractViolation(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (float(self.stop_tol) >= 0.0):
            raise ContractViolation(f"stop_tol must be >= 0, got {self.stop_tol!r}")
        object.__setattr__(self, "tau_factor", float(self.tau_factor))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "stop_tol", float(self.stop_tol))
        object.__setattr__(self, "record_trace", bool(self.record_trace))


@dataclass(frozen=True, eq=False)
class _EndState:
    """Where a trajectory stands after a solve, so that it can go on.

    `problem` is a weak reference, so a kept trace does not keep the
    Gram blocks alive. `settled` is ``(n, AT)`` for the first iterate
    whose step norm was at most REFERENCE_STOP_TOL, or None.
    """

    problem: weakref.ref
    tau: float
    from_zero: bool
    n: int
    AT: np.ndarray
    KA: np.ndarray
    step: float
    settled: tuple | None


@dataclass(frozen=True, eq=False)
class SolveTrace:
    """Observables recorded while solving.

    Attributes
    ----------
    iterations : (R,) int64 ndarray
        1-based iteration numbers of the recorded entries; consecutive,
        as a traced run records every iteration it runs.
    supports : (R, G) bool ndarray
        Support at each recorded iteration: row i, column g is True when
        group g (0-based) is active. Any number of groups can be traced;
        an untraced run has shape ``(0, G)``.
    objectives : (R,) float64 ndarray
        Objective value at each recorded iteration.
    step_norms : (R,) float64 ndarray
        Function-space norm of the step taken at each recorded iteration.
    iters_run : int
        Trajectory index of the returned iterate: the number of
        iterations from the trajectory's start, counting those the
        exact-cycle exit did not need to compute and, for a run that
        continues an earlier trace, the earlier run's iterations.
    final_step_norm : float
        Step norm of the last executed iteration; populated even when
        trace recording is off, so budget sufficiency can always be
        judged after the fact.

    The trace also carries its run's exact final state, private and
    in-process only (it is dropped on pickling), so that
    :func:`solve` and :func:`~sparsemkl.support.reference_solve` can
    continue the trajectory instead of replaying it.
    """

    iterations: np.ndarray
    supports: np.ndarray
    objectives: np.ndarray
    step_norms: np.ndarray
    iters_run: int
    final_step_norm: float
    _end: _EndState | None = field(default=None, repr=False)

    def __post_init__(self):
        it = np.asarray(self.iterations, dtype=np.int64)
        su = np.asarray(self.supports, dtype=bool)
        ob = np.asarray(self.objectives, dtype=np.float64)
        st = np.asarray(self.step_norms, dtype=np.float64)
        if not (it.shape == ob.shape == st.shape) or it.ndim != 1:
            raise ContractViolation("trace arrays must share one 1-D shape")
        if su.ndim != 2 or su.shape[0] != it.shape[0]:
            raise ContractViolation(
                "supports must hold one (G,) row per recorded iteration"
            )
        if st.size and st.min() < 0.0:
            raise ContractViolation("step norms must be nonnegative")
        for arr in (it, su, ob, st):
            arr.setflags(write=False)
        object.__setattr__(self, "iterations", it)
        object.__setattr__(self, "supports", su)
        object.__setattr__(self, "objectives", ob)
        object.__setattr__(self, "step_norms", st)
        object.__setattr__(self, "iters_run", int(self.iters_run))
        object.__setattr__(self, "final_step_norm", float(self.final_step_norm))

    def __getstate__(self):
        # a weak reference does not pickle, and the problem it names
        # would not be the unpickled one anyway
        return {**self.__dict__, "_end": None}

    @property
    def n_recorded(self):
        return self.iterations.shape[0]

    @property
    def n_groups(self):
        return self.supports.shape[1]

    def support_set(self, i):
        """Record `i`'s support as a set of 0-based group indices."""
        return frozenset(int(g) for g in np.flatnonzero(self.supports[i]))

    def support_sizes(self):
        """Support cardinality per recorded iteration, as an int array."""
        return self.supports.sum(axis=1)

    def _end_state(self, problem, tau_factor):
        """The final state, if this run solved `problem` at `tau_factor`."""
        end = self._end
        if end is None or end.problem() is not problem:
            return None
        if end.tau != tau_factor / problem.gram.lipschitz:
            return None
        return end


def _same_bits(a, b):
    # bitwise rather than ==, which equates -0.0 with 0.0
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def solve(problem, config, alpha0=None):
    """Run the thresholded forward-backward iteration.

    Iterates until the budget is exhausted or the function-space step
    norm falls to `config.stop_tol`. Identical inputs produce
    bit-identical outputs: there is no randomness and the arithmetic
    order is fixed.

    The iteration is a deterministic map of its state, so once the state
    repeats bit for bit every later iterate is known. The loop looks for
    such a repeat with Brent's cycle detection: each state is compared
    with a checkpoint that moves to the current state whenever its
    distance reaches the next power of two, and the full bitwise compare
    runs only when the step norm equals the checkpoint's. On a repeat
    it skips whole periods, computes only the iterations left over, and
    repeats the trace records of the last period over the skipped
    iterations. Coefficients, trace and `final_step_norm` are exactly
    those of running every iteration.

    Parameters
    ----------
    problem : ProblemInstance
    config : SolverConfig
    alpha0 : DualCoefficients or SolveTrace, optional
        Starting point; defaults to zero. The trace of an earlier run on
        the same problem at the same `tau_factor` continues that run's
        trajectory from its exact final state; iteration numbers and
        `config.max_iters` then count from the trajectory's start.

    Returns
    -------
    coeffs : DualCoefficients
        Final iterate, with thresholded-out columns exactly zero.
    trace : SolveTrace

    Raises
    ------
    DivergenceError
        If a non-finite quantity appears, naming the iteration; with a
        valid config this indicates the Gram blocks' `lipschitz` field
        under-reports the true operator norm, or data at overflow scale.
    """
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    if not isinstance(config, SolverConfig):
        raise ContractViolation("config must be a SolverConfig")
    gram = problem.gram
    G, m = gram.n_groups, gram.m
    y = problem.dataset.responses
    lam = problem.effective_lambda
    tau = config.tau_factor / problem.gram.lipschitz
    thr = tau * lam

    n, step, settled, from_zero = 0, 0.0, None, alpha0 is None
    if alpha0 is None:
        AT = np.zeros((G, m))
        KA = np.zeros((G, m))
    elif isinstance(alpha0, SolveTrace):
        start = alpha0._end_state(problem, config.tau_factor)
        if start is None:
            raise ContractViolation(
                "alpha0 trace does not come from a solve of this problem "
                "at this tau_factor in this process"
            )
        AT, KA = start.AT, start.KA
        n, step, settled, from_zero = (
            start.n, start.step, start.settled, start.from_zero
        )
    else:
        if not isinstance(alpha0, DualCoefficients):
            raise ContractViolation(
                "alpha0 must be a DualCoefficients or a SolveTrace"
            )
        if alpha0.m != m or alpha0.n_groups != G:
            raise ContractViolation(
                f"alpha0 shaped {alpha0.alpha.shape} does not match problem "
                f"with G={G}, m={m}"
            )
        AT = np.ascontiguousarray(alpha0.alpha.T)
        KA = gram.apply_each(AT)

    record = config.record_trace
    stop_tol = config.stop_tol
    max_iters = config.max_iters
    # one record per iteration; its objective is the penalty plus half
    # the squared residual of the new iterate, the next iteration's r
    rec_keep, rec_obj, rec_steps = bytearray(), array("d"), array("d")
    ck_n, ck_AT, ck_KA, ck_step, power = n, AT, KA, None, 1
    span = tile = None

    while n < max_iters:
        n += 1
        r = KA.sum(axis=0) - y
        if rec_obj:
            rec_obj[-1] += 0.5 * (r @ r)
        Kr = gram.apply_each(r)
        B = AT - tau * r
        KB = KA - tau * Kr
        sq = np.einsum("gi,gi->g", B, KB)
        if not np.isfinite(sq).all():
            raise DivergenceError(n)
        nu = np.sqrt(np.maximum(sq, 0.0))
        keep = nu > thr
        denom = np.where(keep, nu, 1.0)
        # (nu - thr) / nu, not 1 - thr / nu: the explicit difference
        # keeps full relative accuracy when nu sits just above thr
        gamma = np.where(keep, (nu - thr) / denom, 0.0)
        AT_new = gamma[:, None] * B
        KA_new = gamma[:, None] * KB
        step_sq = float(np.einsum("gi,gi->", AT_new - AT, KA_new - KA))
        step = float(np.sqrt(max(step_sq, 0.0)))
        AT = AT_new
        KA = KA_new
        if settled is None and step <= REFERENCE_STOP_TOL:
            settled = (n, AT)

        if record:
            rec_keep += keep.tobytes()
            # surviving blocks have kernel norm nu - thr by construction
            rec_obj.append(lam * (nu[keep] - thr).sum())
            rec_steps.append(step)
        if stop_tol > 0.0 and step <= stop_tol:
            break

        if span is None:
            if (step == ck_step and _same_bits(AT, ck_AT)
                    and _same_bits(KA, ck_KA)):
                # state n + skip equals state n; the final record and
                # step come from the last iteration, always computed
                span = n - ck_n
                skip = max(0, (max_iters - 1 - n) // span) * span
                if skip and record:
                    tile = (len(rec_steps), skip // span)
                n += skip
            elif n - ck_n == power:
                ck_n, ck_AT, ck_KA, ck_step = n, AT, KA, step
                power *= 2

    if rec_obj:
        r = KA.sum(axis=0) - y
        rec_obj[-1] += 0.5 * (r @ r)
    keep_rows = np.frombuffer(rec_keep, dtype=bool).reshape(-1, G)
    objectives = np.frombuffer(rec_obj)
    step_norms = np.frombuffer(rec_steps)
    if tile is not None:
        # the last span records before the jump repeat over the skip
        k, reps = tile
        keep_rows, objectives, step_norms = (
            np.concatenate([a[:k]] + [a[k - span:k]] * reps + [a[k:]])
            for a in (keep_rows, objectives, step_norms)
        )
    iterations = np.arange(n - len(step_norms) + 1, n + 1)

    trace = SolveTrace(
        iterations=iterations,
        supports=keep_rows,
        objectives=objectives,
        step_norms=step_norms,
        iters_run=n,
        final_step_norm=step,
        _end=_EndState(
            problem=weakref.ref(problem), tau=tau, from_zero=from_zero,
            n=n, AT=AT, KA=KA, step=step, settled=settled,
        ),
    )
    return DualCoefficients(np.ascontiguousarray(AT.T)), trace

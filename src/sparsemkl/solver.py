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

import math
import weakref
from array import array
from dataclasses import dataclass, field

import numpy as np

from .core import DualCoefficients, ProblemInstance
from .errors import ContractViolation, DivergenceError

__all__ = ["SolverConfig", "SolveTrace", "solve"]

#: Elements einsum reduces in one buffered pass. In a stack of rows
#: longer than this it splits each row differently from the row alone,
#: so their step norms are reduced one row at a time to keep the bits.
_EINSUM_BUFSIZE = 8192

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

    A list or tuple of problems is solved as one stack: one loop steps
    every row together, each row with its own step size, threshold,
    cycle exit, stop rule and trace. A row that finishes is copied out
    of the stack and dropped from it. Each row's result is bit-identical
    to solving its problem alone, whatever else is in the stack; a
    single problem is solved as a stack of one.

    Parameters
    ----------
    problem : ProblemInstance or list/tuple of ProblemInstance
        The problems of a stack must share G and m.
    config : SolverConfig
    alpha0 : DualCoefficients or SolveTrace, optional
        Starting point; defaults to zero. The trace of an earlier run on
        the same problem at the same `tau_factor` continues that run's
        trajectory from its exact final state; iteration numbers and
        `config.max_iters` then count from the trajectory's start. A
        stack takes a list or tuple of such starts, None for zero, one
        per problem.

    Returns
    -------
    coeffs : DualCoefficients
        Final iterate, with thresholded-out columns exactly zero.
    trace : SolveTrace
        For a stack, `coeffs` and `trace` are tuples with one entry per
        problem, in the order given.

    Raises
    ------
    DivergenceError
        If a non-finite quantity appears, naming the iteration; with a
        valid config this indicates the Gram blocks' `lipschitz` field
        under-reports the true operator norm, or data at overflow scale.
        A stack raises for the first row that diverges.
    """
    if not isinstance(config, SolverConfig):
        raise ContractViolation("config must be a SolverConfig")
    if not isinstance(problem, (list, tuple)):
        coeffs, traces = _solve_stack([problem], config, [alpha0])
        return coeffs[0], traces[0]
    if alpha0 is None:
        alpha0 = [None] * len(problem)
    elif not isinstance(alpha0, (list, tuple)) or len(alpha0) != len(problem):
        raise ContractViolation(
            "a stack's alpha0 must be a list or tuple of one start per problem"
        )
    return _solve_stack(problem, config, alpha0)


class _Row:
    """One row of a stack: everything but the stacked arrays."""

    __slots__ = ("index", "problem", "apply_each", "lam", "tau", "thr",
                 "from_zero", "n", "step", "settled", "ck_n", "ck_AT",
                 "ck_KA", "ck_step", "power", "span", "tile", "keep", "obj",
                 "steps")

    def __init__(self, index, problem, tau, n, step, settled, from_zero):
        self.index = index  # place in the stack as given
        self.problem = problem
        self.apply_each = problem.gram.apply_each
        self.lam = problem.effective_lambda
        self.tau = tau
        self.thr = tau * self.lam
        self.from_zero = from_zero
        self.n, self.step, self.settled = n, step, settled
        # Brent's checkpoint; no compare until it first moves
        self.ck_n, self.ck_AT, self.ck_KA, self.ck_step = n, None, None, None
        self.power = 1
        self.span = self.tile = None
        # one record per iteration; its objective is the penalty plus half
        # the squared residual of the new iterate, the next iteration's r
        self.keep, self.obj, self.steps = bytearray(), array("d"), array("d")


def _start(index, problem, config, alpha0):
    """Row `index` of a stack and its starting (AT, KA)."""
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    gram = problem.gram
    G, m = gram.n_groups, gram.m
    n, step, settled, from_zero = 0, 0.0, None, alpha0 is None
    if alpha0 is None:
        AT = KA = np.zeros((G, m))
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
    tau = config.tau_factor / gram.lipschitz
    row = _Row(index, problem, tau, n, step, settled, from_zero)
    return row, AT, KA


def _solve_stack(problems, config, starts):
    if not problems:
        raise ContractViolation("a stack needs at least one problem")
    rows, ATs, KAs = zip(*(_start(i, p, config, a)
                           for i, (p, a) in enumerate(zip(problems, starts))))
    if len({A.shape for A in ATs}) > 1:
        raise ContractViolation("stacked problems must share G and m")
    record = config.record_trace
    stop_tol = config.stop_tol
    max_iters = config.max_iters
    AT, KA = np.stack(ATs), np.stack(KAs)
    Y = np.stack([p.dataset.responses for p in problems])
    one_pass = AT[0].size <= _EINSUM_BUFSIZE

    results = [None] * len(rows)
    done = [j for j, row in enumerate(rows) if row.n >= max_iters]
    Kr = None
    while True:
        if done:
            for j in done:
                results[rows[j].index] = _finish(rows[j], AT[j], KA[j], Y[j])
            sel = [j for j in range(len(rows)) if j not in done]
            if not sel:
                break
            rows = [rows[j] for j in sel]
            AT, KA, Y = AT[sel], KA[sel], Y[sel]
            Kr = None
        if Kr is None:  # the stack is new or has shrunk
            Kr = np.empty_like(AT)
            tau = np.array([row.tau for row in rows])[:, None, None]
            thr = np.array([row.thr for row in rows])[:, None]

        r = KA.sum(axis=1) - Y
        for j, row in enumerate(rows):
            row.n += 1
            if row.obj:
                row.obj[-1] += 0.5 * (r[j] @ r[j])
            row.apply_each(r[j], out=Kr[j])
        B = AT - tau * r[:, None, :]
        KB = KA - tau * Kr
        sq = np.einsum("ngi,ngi->ng", B, KB)
        if not np.isfinite(sq).all():
            j = int(np.flatnonzero(~np.isfinite(sq).all(axis=1))[0])
            raise DivergenceError(rows[j].n, None if len(results) == 1 else (
                f"non-finite iterate at iteration {rows[j].n} of stack row "
                f"{rows[j].index}"
            ))
        nu = np.sqrt(np.maximum(sq, 0.0))
        keep = nu > thr
        # (nu - thr) / nu, not 1 - thr / nu: the explicit difference
        # keeps full relative accuracy when nu sits just above thr
        gamma = np.zeros(nu.shape)
        np.divide(nu - thr, nu, out=gamma, where=keep)
        gamma = gamma[:, :, None]
        AT_new = gamma * B
        KA_new = gamma * KB
        # B and KB are spent: they take the step's differences
        dA = np.subtract(AT_new, AT, out=B)
        dK = np.subtract(KA_new, KA, out=KB)
        if one_pass or len(rows) == 1:
            step_sq = np.einsum("ngi,ngi->n", dA, dK).tolist()
        else:
            step_sq = [float(np.einsum("gi,gi->", a, k))
                       for a, k in zip(dA, dK)]
        AT = AT_new
        KA = KA_new

        done = []
        for j, (row, s) in enumerate(zip(rows, step_sq)):
            row.step = step = math.sqrt(max(s, 0.0))
            if row.settled is None and step <= REFERENCE_STOP_TOL:
                row.settled = (row.n, AT[j].copy())
            if record:
                row.keep += keep[j].tobytes()
                # surviving blocks have kernel norm nu - thr by construction
                row.obj.append(row.lam * (nu[j][keep[j]] - row.thr).sum())
                row.steps.append(step)
            if stop_tol > 0.0 and step <= stop_tol:
                done.append(j)
                continue
            if row.span is None:
                if (step == row.ck_step and _same_bits(AT[j], row.ck_AT)
                        and _same_bits(KA[j], row.ck_KA)):
                    # state n + skip equals state n; the final record and
                    # step come from the last iteration, always computed
                    row.span = span = row.n - row.ck_n
                    skip = max(0, (max_iters - 1 - row.n) // span) * span
                    if skip and record:
                        row.tile = (len(row.steps), skip // span)
                    row.n += skip
                elif row.n - row.ck_n == row.power:
                    # copies: a view would keep the whole stack alive
                    row.ck_n, row.ck_step = row.n, step
                    row.ck_AT, row.ck_KA = AT[j].copy(), KA[j].copy()
                    row.power *= 2
            if row.n >= max_iters:
                done.append(j)
    return tuple(c for c, _ in results), tuple(t for _, t in results)


def _finish(row, AT, KA, y):
    """One row's result, copied out so that it does not pin the stack."""
    n = row.n
    if row.obj:
        r = KA.sum(axis=0) - y
        row.obj[-1] += 0.5 * (r @ r)
    keep_rows = np.frombuffer(row.keep, dtype=bool).reshape(-1, AT.shape[0])
    objectives = np.frombuffer(row.obj)
    step_norms = np.frombuffer(row.steps)
    if row.tile is not None:
        # the last span records before the jump repeat over the skip
        (k, reps), span = row.tile, row.span
        keep_rows, objectives, step_norms = (
            np.concatenate([a[:k]] + [a[k - span:k]] * reps + [a[k:]])
            for a in (keep_rows, objectives, step_norms)
        )
    iterations = np.arange(n - len(step_norms) + 1, n + 1)
    AT, KA = AT.copy(), KA.copy()
    trace = SolveTrace(
        iterations=iterations,
        supports=keep_rows,
        objectives=objectives,
        step_norms=step_norms,
        iters_run=n,
        final_step_norm=row.step,
        _end=_EndState(
            problem=weakref.ref(row.problem), tau=row.tau,
            from_zero=row.from_zero, n=n, AT=AT, KA=KA, step=row.step,
            settled=row.settled,
        ),
    )
    return DualCoefficients(np.ascontiguousarray(AT.T)), trace

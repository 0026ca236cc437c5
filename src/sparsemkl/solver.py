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
from array import array
from dataclasses import dataclass

import numpy as np

from .core import DualCoefficients, ProblemInstance, bind_stack
from .errors import ContractViolation, DivergenceError

__all__ = ["SolverConfig", "SolveTrace", "SolveResult", "solve"]

#: Elements einsum reduces in one buffered pass. In a stack of rows
#: longer than this it splits each row differently from the row alone,
#: so their step norms are reduced one row at a time to keep the bits.
_EINSUM_BUFSIZE = 8192

#: Iterations between a row's cycle checkpoints: every state is compared
#: with the last one taken, so the exit finds periods up to this long;
#: a longer cycle runs out its budget, still exact.
_CYCLE_WINDOW = 64


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
class SolveTrace:
    """Observables recorded while solving.

    Every run keeps its supports as change events, traced or not, which
    identification keeps few; a traced run also records the objective
    and step norm of every iteration.

    Attributes
    ----------
    change_iters : (K,) int64 ndarray
        1-based iterations at which the support changed, increasing, at
        least one. The first is the run's first iteration, where its
        support starts.
    change_supports : (K, G) bool ndarray
        Support from each change on: row k, column g is True when group
        g (0-based) is active from iteration ``change_iters[k]`` until
        the next change. Any number of groups can be traced.
    objectives : (R,) float64 ndarray
        Objective value at each recorded iteration; an untraced run
        records none.
    step_norms : (R,) float64 ndarray
        Function-space norm of the step taken at each recorded iteration.
    objective : float
        Objective value at the returned iterate, traced or not.
    iters_run : int
        Trajectory index of the returned iterate: the number of
        iterations from the trajectory's start, counting those the
        exact-cycle exit did not need to compute.
    final_step_norm : float
        Step norm of the last executed iteration; populated even when
        trace recording is off, so budget sufficiency can always be
        judged after the fact.
    """

    change_iters: np.ndarray
    change_supports: np.ndarray
    objectives: np.ndarray
    step_norms: np.ndarray
    objective: float
    iters_run: int
    final_step_norm: float

    def __post_init__(self):
        it = np.asarray(self.change_iters, dtype=np.int64)
        su = np.asarray(self.change_supports, dtype=bool)
        ob = np.asarray(self.objectives, dtype=np.float64)
        st = np.asarray(self.step_norms, dtype=np.float64)
        n = int(self.iters_run)
        if ob.shape != st.shape or ob.ndim != 1:
            raise ContractViolation("trace arrays must share one 1-D shape")
        if it.ndim != 1 or su.ndim != 2 or su.shape[0] != it.shape[0]:
            raise ContractViolation(
                "change_supports must hold one (G,) row per support change"
            )
        # at least one event, as every run starts with one; the records
        # are the last R of the n iterations
        if not (it.size and 1 <= it[0] <= n - ob.size + 1 and it[-1] <= n
                and (np.diff(it) > 0).all()):
            raise ContractViolation(
                f"support changes must be at least one, increase within "
                f"iterations 1..{n} and cover the recorded ones"
            )
        if st.size and st.min() < 0.0:
            raise ContractViolation("step norms must be nonnegative")
        for arr in (it, su, ob, st):
            arr.setflags(write=False)
        object.__setattr__(self, "change_iters", it)
        object.__setattr__(self, "change_supports", su)
        object.__setattr__(self, "objectives", ob)
        object.__setattr__(self, "step_norms", st)
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "iters_run", n)
        object.__setattr__(self, "final_step_norm", float(self.final_step_norm))

    @property
    def iterations(self):
        """(R,) int64 ndarray of the records' 1-based iteration numbers.

        A traced run records every iteration it runs, so the records are
        the last R iterations up to `iters_run`.
        """
        return np.arange(self.iters_run - self.n_recorded + 1,
                         self.iters_run + 1, dtype=np.int64)

    @property
    def supports(self):
        """(R, G) bool ndarray: the support at each recorded iteration.

        Expanded from the change events on each access; an untraced run
        has shape ``(0, G)``.
        """
        at = np.searchsorted(self.change_iters, self.iterations, "right") - 1
        rows = self.change_supports[at]
        rows.setflags(write=False)
        return rows

    @property
    def n_recorded(self):
        return self.step_norms.shape[0]

    @property
    def n_groups(self):
        return self.change_supports.shape[1]

    def support_sizes(self):
        """Support cardinality per recorded iteration, as an int array."""
        return self.supports.sum(axis=1)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """One problem's results from the stacked loop (`solve_with_reference`)."""

    coeffs: DualCoefficients
    trace: SolveTrace
    reference: DualCoefficients | None
    stepped: int


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
    such a repeat with one checkpoint, a copy of the state taken every
    `_CYCLE_WINDOW` (64) iterations: each state is compared with the
    last copy, bit for bit but only when the step norms are equal. A
    cycle of period p <= 64 is found within 64 + p iterations of its
    start; a longer one runs the full budget. On a repeat it skips whole
    periods, computes only the iterations left over, and repeats the
    trace records of the last period over the skipped iterations.
    Coefficients, trace and `final_step_norm` are exactly those of
    running every iteration.

    A list or tuple of problems is solved as one stack: one loop steps
    every row together, each from its own start, with its own step size,
    threshold, cycle exit, stop rule and trace. A row that finishes is
    copied out of the stack and dropped from it. Each row's result is
    bit-identical to solving its problem alone, whatever else is in the
    stack; a single problem is solved as a stack of one, and
    `support.solve_with_reference` runs the same loop from zero.

    Parameters
    ----------
    problem : ProblemInstance or list/tuple of ProblemInstance
        The problems of a stack must share G and m.
    config : SolverConfig
    alpha0 : DualCoefficients, optional
        Starting point; defaults to zero. A stack takes a list or tuple
        of starts, None for zero, one per problem.

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
    stacked, problems, starts = _stack(problem, config, alpha0)
    pairs = [(r.coeffs, r.trace) for r in _solve_stack(problems, config, starts)]
    return tuple(zip(*pairs)) if stacked else pairs[0]


def _stack(problem, config, alpha0):
    """`solve`'s arguments, checked, as (stacked, problems, starts)."""
    if not isinstance(config, SolverConfig):
        raise ContractViolation("config must be a SolverConfig")
    if not isinstance(problem, (list, tuple)):
        return False, [problem], [alpha0]
    if alpha0 is None:
        alpha0 = [None] * len(problem)
    elif not isinstance(alpha0, (list, tuple)) or len(alpha0) != len(problem):
        raise ContractViolation(
            "a stack's alpha0 must be a list or tuple of one start per problem"
        )
    return True, problem, alpha0


class _Row:
    """One row of a stack: everything but the stacked arrays."""

    __slots__ = ("index", "gram", "lam", "tau", "thr", "rules", "stop",
                 "budget", "record", "n", "skipped", "step", "ck_n", "ck_AT",
                 "ck_KA", "ck_step", "span", "tile", "events", "last", "obj",
                 "steps")

    def __init__(self, index, problem, tau, rules, record):
        self.index = index  # place in the stack as given
        self.gram = problem.gram
        self.lam = problem.effective_lambda
        self.tau = tau
        self.thr = tau * self.lam
        # the results still to take, as {field: (stop, budget)} from their
        # (stop_tol, max_iters) rules: "coeffs" (and its trace) is the run
        # under the stack's config, "reference" its reference, if asked
        # for. A step norm is never negative, so the stop -1 of a
        # stop_tol of 0 never fires
        self.rules = {name: (tol if tol > 0.0 else -1.0, iters)
                      for name, (tol, iters) in rules.items()}
        self.aim()
        self.n, self.skipped, self.step = 0, 0, None
        # the cycle checkpoint's state, overwritten in place each time;
        # no compare until it is first taken
        shape = (self.gram.n_groups, self.gram.m)
        self.ck_AT, self.ck_KA = np.empty(shape), np.empty(shape)
        self.ck_n, self.ck_step = 0, None
        self.span = self.tile = None
        # the trace of "coeffs": (iteration, support bytes) at each support
        # change and, if recorded, one record per iteration; its objective
        # is the penalty plus half the squared residual of the new iterate,
        # the next iteration's r
        self.record = record
        self.events, self.last = [], None
        self.obj, self.steps = array("d"), array("d")

    def aim(self):
        """Point the row's one stop test at its pending rules."""
        self.stop = max(stop for stop, _ in self.rules.values())
        self.budget = min(budget for _, budget in self.rules.values())

    def jump(self):
        """Skip whole periods of the found cycle, up to the next budget.

        The state at `self.n` is the one `span` iterations before, so the
        records and support changes of those iterations repeat over the
        skipped periods. No pending stop fires in them: each was tested
        on every step of the cycle. The iteration at the budget is always
        computed, so the result taken there has its own record and step.
        A traced row jumps once, as its reference's budget is the later.
        """
        span = self.span
        reps = max(0, (self.budget - 1 - self.n) // span)
        if reps and self.record:
            self.tile = (len(self.steps), reps)
        if reps and self.events is not None:
            events, first = self.events, self.n - span + 1
            i = len(events)
            while events[i - 1][0] > first:
                i -= 1
            period = events[i:]
            if events[i - 1][1] != self.last:
                # the support at `first` follows the one at `self.n`
                period.insert(0, (first, events[i - 1][1]))
            events += [(n + q * span, mask) for q in range(1, reps + 1)
                       for n, mask in period]
        self.n += reps * span
        self.skipped += reps * span


def _start(index, problem, alpha0, rules, config):
    """Row `index` of a stack and its starting (AT, KA)."""
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    gram = problem.gram
    G, m = gram.n_groups, gram.m
    if alpha0 is None:
        AT = KA = np.zeros((G, m))
    elif not isinstance(alpha0, DualCoefficients):
        raise ContractViolation("alpha0 must be a DualCoefficients")
    elif alpha0.m != m or alpha0.n_groups != G:
        raise ContractViolation(
            f"alpha0 shaped {alpha0.alpha.shape} does not match problem "
            f"with G={G}, m={m}"
        )
    else:
        AT = np.ascontiguousarray(alpha0.alpha.T)
        KA = gram.apply_each(AT)
    tau = config.tau_factor / gram.lipschitz
    row = _Row(index, problem, tau, rules, config.record_trace)
    return row, AT, KA, problem.dataset.responses


def _solve_stack(problems, config, starts, reference=None):
    """Solve a stack; returns a SolveResult per problem, in order.

    Each row runs one trajectory from its start and takes each of its
    results where that result's rule first stops it: the traced result
    at the first step norm of at most `config.stop_tol` or at
    `config.max_iters`, and the untraced reference likewise under
    `reference`, a ``(stop_tol, max_iters, polish)`` rule. A row leaves
    the stack once it holds both. Without `reference` every reference
    is None.

    `polish`, a callable ``(problem, coeffs)`` that returns a reference
    or None, is tried on the traced result of each row whose reference
    is still to take once that result is taken. A reference it returns
    is taken, and the row leaves the stack; on None the row runs on as
    without it.
    """
    if not problems:
        raise ContractViolation("a stack needs at least one problem")
    rules = {"coeffs": (config.stop_tol, config.max_iters)}
    if reference is not None:
        stop_tol, max_iters, polish = reference
        rules["reference"] = (stop_tol, max_iters)
    rows, ATs, KAs, Ys = zip(*(_start(i, p, a, rules, config) for i, (p, a)
                               in enumerate(zip(problems, starts))))
    if len({A.shape for A in ATs}) > 1:
        raise ContractViolation("stacked problems must share G and m")
    AT, KA, Y = np.stack(ATs), np.stack(KAs), np.stack(Ys)
    del ATs, KAs  # the starts live on in the stack
    one_pass = AT[0].size <= _EINSUM_BUFSIZE
    _, G, m = AT.shape

    results = [{"reference": None} for _ in problems]
    taken = True  # a row took a result in the last iteration
    product = None
    while True:
        if taken:
            sel = [j for j, row in enumerate(rows) if row.rules]
            if not sel:
                break
            if len(sel) < len(rows):
                rows = [rows[j] for j in sel]
                AT, KA, Y = AT[sel], KA[sel], Y[sel]
                product = None
            recording = any(row.record for row in rows)
            tracking = any(row.events is not None for row in rows)
        if product is None:  # the stack is new or has shrunk
            # the step's buffers, each overwritten in place every
            # iteration; AT and KA swap with their next values. No view
            # of one outlives its iteration: rows that keep a value copy it
            N = len(rows)
            AT_next, KA_next, B, Kr = (np.empty_like(AT) for _ in range(4))
            r, tau_r = np.empty((N, m)), np.empty((N, 1, m))
            nu, excess, gamma = (np.empty((N, G)) for _ in range(3))
            keep, finite = np.empty((N, G), bool), np.empty((N, G), bool)
            tau = np.array([row.tau for row in rows])[:, None, None]
            thr = np.array([row.thr for row in rows])[:, None]
            r_row, gamma_col = r[:, None, :], gamma[:, :, None]
            product = bind_stack([row.gram for row in rows], r, Kr)

        np.subtract(np.add.reduce(KA, axis=1, out=r), Y, out=r)
        product()
        np.subtract(AT, np.multiply(tau, r_row, out=tau_r), out=B)
        # Kr is spent once scaled: it takes KB
        np.subtract(KA, np.multiply(tau, Kr, out=Kr), out=Kr)
        # nu holds the squared kernel norms until it is rooted
        np.einsum("ngi,ngi->ng", B, Kr, out=nu)
        if not np.logical_and.reduce(np.isfinite(nu, out=finite), axis=None):
            j = int(np.flatnonzero(~np.logical_and.reduce(finite, axis=1))[0])
            n = rows[j].n + 1
            raise DivergenceError(n, None if len(results) == 1 else (
                f"non-finite iterate at iteration {n} of stack row "
                f"{rows[j].index}"
            ))
        np.sqrt(np.maximum(nu, 0.0, out=nu), out=nu)
        np.greater(nu, thr, out=keep)
        # (nu - thr) / nu, not 1 - thr / nu: the explicit difference
        # keeps full relative accuracy when nu sits just above thr
        np.subtract(nu, thr, out=excess)
        gamma.fill(0.0)
        np.divide(excess, nu, out=gamma, where=keep)
        np.multiply(gamma_col, B, out=AT_next)
        np.multiply(gamma_col, Kr, out=KA_next)
        # B and KB (in Kr) are spent: they take the step's differences
        np.subtract(AT_next, AT, out=B)
        np.subtract(KA_next, KA, out=Kr)
        if one_pass or N == 1:
            steps = np.einsum("ngi,ngi->n", B, Kr).tolist()
        else:
            steps = [float(np.einsum("gi,gi->", a, k)) for a, k in zip(B, Kr)]
        AT, AT_next = AT_next, AT
        KA, KA_next = KA_next, KA
        if recording:
            # each row's r @ r, with the same bits
            fits = np.matmul(r_row, r[:, :, None]).ravel().tolist()
        if tracking:
            masks = keep.tobytes()

        taken = False
        for j, (row, s) in enumerate(zip(rows, steps)):
            row.n += 1
            if row.obj:
                # the previous record's objective ends with this r
                row.obj[-1] += 0.5 * fits[j]
            step = row.step = math.sqrt(max(s, 0.0))
            if row.events is not None:
                mask = masks[j * G:(j + 1) * G]
                if mask != row.last:
                    row.events.append((row.n, mask))
                    row.last = mask
            if row.record:
                # surviving blocks have kernel norm nu - thr by construction
                row.obj.append(row.lam * np.add.reduce(excess[j][keep[j]]))
                row.steps.append(step)
            if step <= row.stop or row.n >= row.budget:
                taken, res = True, results[row.index]
                for name, (stop, budget) in list(row.rules.items()):
                    if step > stop and row.n < budget:
                        continue
                    del row.rules[name]
                    # DualCoefficients copies: a view would pin the stack
                    res[name] = DualCoefficients(AT[j].T)
                    if name == "coeffs":
                        penalty = row.lam * np.add.reduce(excess[j][keep[j]])
                        res["trace"] = _finish(row, KA[j], Y[j], penalty)
                if "reference" in row.rules:
                    # the traced result is taken and the reference is
                    # not. The step's buffers are spent: the polish gets
                    # their memory, and the next step new ones
                    AT_next = KA_next = B = Kr = product = None
                    polished = polish(problems[row.index], res["coeffs"])
                    if polished is not None:
                        res["reference"] = polished
                        del row.rules["reference"]
                if not row.rules:
                    res["stepped"] = row.n - row.skipped
                    continue
                row.aim()
                if row.span is not None:
                    row.jump()
            if row.span is None:
                if (step == row.ck_step and _same_bits(AT[j], row.ck_AT)
                        and _same_bits(KA[j], row.ck_KA)):
                    # state n equals state ck_n
                    row.span = row.n - row.ck_n
                    row.jump()
                elif row.n - row.ck_n == _CYCLE_WINDOW:
                    np.copyto(row.ck_AT, AT[j])
                    np.copyto(row.ck_KA, KA[j])
                    row.ck_n, row.ck_step = row.n, step
    return tuple(SolveResult(**res) for res in results)


def _finish(row, KA, y, penalty):
    """One row's trace, copied out so as not to pin the stack.

    `penalty` is the last iteration's, as its record would hold it.
    """
    r = KA.sum(axis=0) - y
    objective = penalty + 0.5 * (r @ r)
    if row.obj:
        row.obj[-1] = objective
    objectives = np.frombuffer(row.obj)
    step_norms = np.frombuffer(row.steps)
    if row.tile is not None:
        # the last span records before the jump repeat over the skip
        (k, reps), span = row.tile, row.span
        objectives, step_norms = (
            np.concatenate([a[:k], np.tile(a[k - span:k], reps), a[k:]])
            for a in (objectives, step_norms)
        )
    iters, masks = zip(*row.events)
    trace = SolveTrace(
        change_iters=iters,
        change_supports=np.frombuffer(b"".join(masks), dtype=bool).reshape(
            len(masks), row.gram.n_groups),
        objectives=objectives,
        step_norms=step_norms,
        objective=objective,
        iters_run=row.n,
        final_step_norm=row.step,
    )
    # a row that runs on into its reference runs untraced
    row.record, row.events, row.obj = False, None, None
    return trace

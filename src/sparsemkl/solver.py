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

Beside the coefficients the loop carries their images
(:meth:`~sparsemkl.core.GramBlocks.image`): :math:`K_g \\alpha_g` on
dense storage and :math:`X_g^T \\alpha_g` on factored storage, which
is :math:`d_{\\max}` wide instead of m. The residual, the kernel norms
and the step norm are read off them, so a factored row never forms
:math:`K_g \\alpha_g`, and its images are the whole state of its
trajectory: once they repeat, its coefficients follow by a two-op
recurrence, with no Gram product.

The limit of the trajectory is the reference that the identification
checks compare against. :func:`solve_with_reference` takes it after
the stacked loop has run, from one of three sources: the production
result itself where its last step has settled, else the certified
limit from :func:`polish_reference`, else a replay from zero.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import (DualCoefficients, ProblemInstance, bind_stack, objective,
                   residual)
from .errors import ContractViolation, DivergenceError

__all__ = ["SolverConfig", "SolveTrace", "SolveResult", "solve",
           "solve_with_reference", "polish_reference"]

#: A production result whose last step norm is at most REFERENCE_STOP_TOL
#: is its own reference; a row whose polish refuses is replayed from
#: zero up to this many times the production budget, or to that step.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_STOP_TOL = 1e-12

#: `polish_reference` certifies a reference at a relative duality gap
#: of at most POLISH_GAP_TOL, which also ends its interior-point phase
#: (on the dual residual, relative to lambda^2, and the complementarity,
#: relative to lambda^2 and to the step bound); each of its two Newton
#: phases takes at most POLISH_MAX_STEPS steps.
POLISH_GAP_TOL = 1e-12
POLISH_MAX_STEPS = 50

#: Iterations between a row's cycle checkpoints: every state is compared
#: with the last one taken, so the exit finds periods up to this long;
#: a longer cycle runs out its budget, still exact. A row's advance over
#: the skipped periods checks its coefficients about as often.
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
    """One problem's results from `solve_with_reference`.

    `stepped` counts the Gram products the loop computed for the
    problem, its replay's included: one per computed iteration, none for
    the periods a cycle exit skipped or for the advance of the row's
    coefficients over them.
    """

    coeffs: DualCoefficients
    trace: SolveTrace
    reference: DualCoefficients
    stepped: int


def _same_bits(a, b):
    # bitwise rather than ==, which equates -0.0 with 0.0
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def solve(problem, config, alpha0=None):
    """Run the thresholded forward-backward iteration on one problem.

    Iterates until the budget is exhausted or the function-space step
    norm falls to `config.stop_tol`. Identical inputs produce
    bit-identical outputs: there is no randomness and the arithmetic
    order is fixed.

    The iteration is a deterministic map of its state, so once the state
    repeats bit for bit every later iterate is known. The state is the
    coefficients and their images on dense storage, and the images alone
    on factored storage, where the residual, the kernel norms and the
    step norm are read off them. The loop looks for a repeat with one
    checkpoint, a copy of the state taken every `_CYCLE_WINDOW` (64)
    iterations: each state is compared with the last copy, bit for bit
    but only when the step norms are equal. A cycle of period p <= 64 is
    found within 64 + p iterations of its start; a longer one runs the
    full budget. A fixed point is found at once: a zero step from a
    state bit-equal to the last. On a repeat the row records one period
    of the factors that step its coefficients, ``AT <- gamma (AT - tau
    r)``, then skips whole periods, computes only the iterations left
    over, and repeats the trace records of the last period over the
    skipped iterations. Its coefficients advance over the skipped
    periods by those two ops, until they repeat too; on dense storage
    they repeat with the state. Coefficients, trace and
    `final_step_norm` are exactly those of running every iteration.

    Parameters
    ----------
    problem : ProblemInstance
        One problem; :func:`solve_with_reference` solves a stack.
    config : SolverConfig
    alpha0 : DualCoefficients, optional
        Starting point; defaults to zero.

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
    ContractViolation
        If `problem` is a list or tuple.
    """
    if isinstance(problem, (list, tuple)):
        raise ContractViolation(
            "solve takes one problem; solve_with_reference solves a stack"
        )
    coeffs, trace, _ = _solve_stack([problem], config, [alpha0])[0]
    return coeffs, trace


def solve_with_reference(problem, config):
    """Solve from zero, and take the trajectory's limit as a reference.

    The solve is :func:`solve`'s from zero. A list or tuple of problems
    is solved as one stack: one loop steps every row together, each with
    its own step size, threshold, cycle exit and trace, under the
    config's one stop rule and budget, and a row that finishes leaves
    the stack. Each row's result is bit-identical to solving its problem
    alone, whatever else is in the stack.

    The reference is the limit of the trajectory, for identification
    checks; independent ground truth lives in the oracle module. It is
    chosen for each row after the stacked loop has run, from three
    sources:

    * where the solve's last step norm is at most `REFERENCE_STOP_TOL`
      (1e-12), the solve's result itself, the same object;
    * otherwise the certified limit that :func:`polish_reference`
      returns from the solve's result. A certified minimizer is unique,
      so it is the limit of every trajectory;
    * where the polish refuses, a replay from zero under
      `REFERENCE_BUDGET_FACTOR` (10) times the configured budget and
      a stop at a step norm of 1e-12, untraced and uncertified. The
      rows to replay run as one stack.

    Parameters
    ----------
    problem : ProblemInstance or list/tuple of ProblemInstance
        The problems of a stack must share G, m and storage: all dense,
        or all factored with one factor shape.
    config : SolverConfig

    Returns
    -------
    SolveResult
        `coeffs` and `trace` as :func:`solve` returns them, `reference`,
        and `stepped`: the Gram products the loop computed for the
        problem, one per computed iteration, its replay's included and
        the periods a cycle exit skipped not, nor the two-op advance of
        the row's coefficients over them. A stack gets a tuple of
        them, one per problem in the order given.

    Raises
    ------
    DivergenceError
        As for :func:`solve`, for the first row that diverges, named by
        its place in the stack.
    ContractViolation
        If the stack is empty, or its problems differ in G, m or
        storage.
    """
    stacked = isinstance(problem, (list, tuple))
    problems = problem if stacked else [problem]
    runs = _solve_stack(problems, config, [None] * len(problems))
    references = [coeffs if trace.final_step_norm <= REFERENCE_STOP_TOL
                  else polish_reference(p, coeffs)
                  for p, (coeffs, trace, _) in zip(problems, runs)]
    stepped = [n for _, _, n in runs]
    refused = [i for i, ref in enumerate(references) if ref is None]
    if refused:
        replay = SolverConfig(
            tau_factor=config.tau_factor,
            max_iters=REFERENCE_BUDGET_FACTOR * config.max_iters,
            stop_tol=REFERENCE_STOP_TOL, record_trace=False,
        )
        replays = _solve_stack([problems[i] for i in refused], replay,
                               [None] * len(refused))
        for i, (coeffs, _, n) in zip(refused, replays):
            references[i] = coeffs
            stepped[i] += n
    results = tuple(SolveResult(coeffs, trace, ref, n) for (coeffs, trace, _),
                    ref, n in zip(runs, references, stepped))
    return results if stacked else results[0]


def stack_state_floats(G, m, d_max=None):
    """Floats of stack state that one row of `_solve_stack` holds at most.

    A dense row (`d_max` None) keeps eight (G, m) arrays: AT, its images,
    their next values, B, the images' buffer V and the cycle checkpoint
    of the pair; a factored row three, AT, its next value and B, beside
    four (G, d_max) images. Once its state cycles, a row keeps one
    period's ``(gamma, tau r)``, at most `_CYCLE_WINDOW` (G + m) floats,
    whose AT advance over the skipped periods works in B and the next AT.
    """
    own = 8 * G * m if d_max is None else 3 * G * m + 4 * G * d_max
    return own + _CYCLE_WINDOW * (G + m)


class _Row:
    """One row of a stack: everything but the stacked arrays."""

    __slots__ = ("index", "gram", "lam", "tau", "thr", "n", "skipped", "step",
                 "ck_n", "ck", "ck_step", "span", "period", "tile", "events",
                 "last", "obj", "steps")

    def __init__(self, index, problem, tau, AT, IM):
        self.index = index  # place in the stack as given
        self.gram = problem.gram
        self.lam = problem.effective_lambda
        self.tau = tau
        self.thr = tau * self.lam
        self.n, self.skipped, self.step = 0, 0, None
        # the cycle checkpoint of the row's state, overwritten in place
        # each time; no compare until it is first taken
        self.ck = [np.empty_like(a) for a in
                   _state(self.gram.factors is not None, AT, IM)]
        self.ck_n, self.ck_step = 0, None
        # the row's (gamma, tau r) over one period of its cycle, recorded
        # once the period is found
        self.span = self.period = self.tile = None
        # the trace: (iteration, support bytes) at each support change
        # and, if recorded, one record per iteration; its objective is the
        # penalty plus half the squared residual of the new iterate, the
        # next iteration's r
        self.events, self.last = [], None
        self.obj, self.steps = array("d"), array("d")

    def jump(self, budget):
        """Skip whole periods of the found cycle, up to the budget.

        The state at `self.n` is the one `span` iterations before, so the
        records and support changes of those iterations repeat over the
        skipped periods. The stop does not fire in them: it was tested on
        every step of the cycle. The iteration at the budget is always
        computed, so the result has its own record and step. Returns the
        number of periods skipped.
        """
        span = self.span
        reps = max(0, (budget - 1 - self.n) // span)
        if not reps:
            return 0
        # an untraced row has no records, so its tile repeats none
        self.tile = (len(self.steps), reps)
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
        return reps


def _advance(AT, period, reps, moving, ck):
    """Advance a row's AT in place over `reps` periods.

    The state repeats, and a factored row's AT need not: each step of a
    period takes its recorded ``(gamma, tau r)`` by the loop's own two
    ops, so AT gets the bits the loop would give it. A group thresholded
    to 0 at every step of the period holds a signed zero that the
    recorded period has fixed, so only the other groups move, in the
    first rows of `moving`. Every `_CYCLE_WINDOW` iterations or so, at
    the end of a period, they are compared with a copy in `ck` taken as
    many periods before, the first with AT itself: once they equal it,
    they repeat at that spacing, and the whole repeats left are skipped.
    """
    live = np.flatnonzero(np.logical_or.reduce([g for g, _ in period]))
    moving, ck = moving[:live.size], ck[:live.size]
    np.take(AT, live, axis=0, out=moving)
    np.copyto(ck, moving)
    period = [(gamma[live], tau_r) for gamma, tau_r in period]
    every = max(1, _CYCLE_WINDOW // len(period))
    done = 0
    while done < reps:
        for gamma, tau_r in period:
            np.subtract(moving, tau_r, out=moving)
            np.multiply(gamma, moving, out=moving)
        done += 1
        if done % every == 0:
            if _same_bits(moving, ck):
                done = reps - (reps - done) % every
            np.copyto(ck, moving)
    AT[live] = moving


def _start(index, problem, alpha0, config):
    """Row `index` of a stack and its start: (row, AT, IM, y), with AT
    the coefficients' transpose and IM their `GramBlocks.image`."""
    if not isinstance(problem, ProblemInstance):
        raise ContractViolation("problem must be a ProblemInstance")
    gram = problem.gram
    G, m = gram.n_groups, gram.m
    if alpha0 is None:
        AT = np.zeros((G, m))
        IM = np.zeros_like(gram.image(AT))
    elif not isinstance(alpha0, DualCoefficients):
        raise ContractViolation("alpha0 must be a DualCoefficients")
    elif alpha0.m != m or alpha0.n_groups != G:
        raise ContractViolation(
            f"alpha0 shaped {alpha0.alpha.shape} does not match problem "
            f"with G={G}, m={m}"
        )
    else:
        AT = np.ascontiguousarray(alpha0.alpha.T)
        IM = gram.image(AT)
    tau = config.tau_factor / gram.lipschitz
    return _Row(index, problem, tau, AT, IM), AT, IM, problem.dataset.responses


def _state(factored, AT, IM):
    # a row's state, what its step reads: IM, and AT on dense storage
    return (IM,) if factored else (AT, IM)


def _solve_stack(problems, config, starts):
    """Solve a stack; returns (coeffs, trace, stepped) per problem, in order.

    Every row runs one trajectory from its start under the config's one
    rule: it leaves the stack at its first step norm of at most
    `config.stop_tol`, or at `config.max_iters`. `stepped` counts the
    iterations it computed, each one Gram product, not the periods a
    cycle exit skipped. The loop knows nothing of references;
    :func:`solve_with_reference` takes them from its results.

    The rows share G, m and storage. A step forms the residual r from
    the images IM, its images V, B = AT - tau r and B's images
    IM - tau V; a kernel norm pairs B's images with B on dense storage
    and with themselves on factored storage, and the step norm pairs
    the change of IM likewise, per group and then over the groups. So a
    row's state (`_state`) is IM on factored storage, where AT is read
    by nothing but the result, and (AT, IM) on dense storage.
    """
    if not isinstance(config, SolverConfig):
        raise ContractViolation("config must be a SolverConfig")
    if not problems:
        raise ContractViolation("a stack needs at least one problem")
    rows, ATs, IMs, Ys = zip(*(_start(i, problem, alpha0, config)
                               for i, (problem, alpha0)
                               in enumerate(zip(problems, starts))))
    # a dense and a factored row of equal widths pass here and are
    # refused by `bind_stack`
    if len({(at.shape, im.shape) for at, im in zip(ATs, IMs)}) > 1:
        raise ContractViolation("stacked problems must share G, m and storage")
    AT, IM, Y = np.stack(ATs), np.stack(IMs), np.stack(Ys)
    del ATs, IMs  # the stack holds the only copy of each start
    factored = rows[0].gram.factors is not None
    _, G, m = AT.shape
    # a step norm is never negative, so the stop -1 of a stop_tol of 0
    # never fires
    stop = config.stop_tol if config.stop_tol > 0.0 else -1.0
    budget, record = config.max_iters, config.record_trace
    results = [None] * len(problems)

    product = None
    while True:
        if product is None:  # the stack is new or has shrunk
            # the step's buffers, each overwritten in place every
            # iteration; AT and IM swap with their next values. No view
            # of one outlives its iteration: rows that keep a value copy it
            N = len(rows)
            AT_next, B = np.empty_like(AT), np.empty_like(AT)
            IM_next, V = np.empty_like(IM), np.empty_like(IM)
            r, tau_r = np.empty((N, m)), np.empty((N, 1, m))
            nu, excess, gamma = (np.empty((N, G)) for _ in range(3))
            keep, finite = np.empty((N, G), bool), np.empty((N, G), bool)
            tau = np.array([row.tau for row in rows])[:, None, None]
            thr = np.array([row.thr for row in rows])[:, None]
            r_row, gamma_col = r[:, None, :], gamma[:, :, None]
            # the first operand of the kernel norms and the step norm
            pair = V if factored else B
            product = bind_stack([row.gram for row in rows], Y, r, V)

        product(IM)
        np.subtract(AT, np.multiply(tau, r_row, out=tau_r), out=B)
        # V is spent once scaled: it takes B's images
        np.subtract(IM, np.multiply(tau, V, out=V), out=V)
        # nu holds the squared kernel norms until it is rooted
        np.einsum("ngi,ngi->ng", pair, V, out=nu)
        if not np.logical_and.reduce(np.isfinite(nu, out=finite), axis=None):
            j = int(np.flatnonzero(~np.logical_and.reduce(finite, axis=1))[0])
            n = rows[j].n + 1
            raise DivergenceError(n, None if len(problems) == 1 else (
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
        np.multiply(gamma_col, V, out=IM_next)
        # V is spent: it takes the step's images
        np.subtract(IM_next, IM, out=V)
        if not factored:
            # B is spent: it takes the step
            np.subtract(AT_next, AT, out=B)
        # per group, then over the groups: a row has the bits it has
        # alone, and a zero group appended last adds an exact 0
        steps = np.add.reduce(np.einsum("ngi,ngi->ng", pair, V, out=nu),
                              axis=1).tolist()
        AT, AT_next = AT_next, AT
        IM, IM_next = IM_next, IM
        state = _state(factored, AT, IM)
        last = _state(factored, AT_next, IM_next)
        if record:
            # each row's r @ r, with the same bits
            fits = np.matmul(r_row, r[:, :, None]).ravel().tolist()
        masks = keep.tobytes()

        left = False
        for j, (row, s) in enumerate(zip(rows, steps)):
            row.n += 1
            if row.obj:
                # the previous record's objective ends with this r
                row.obj[-1] += 0.5 * fits[j]
            step = row.step = math.sqrt(max(s, 0.0))
            mask = masks[j * G:(j + 1) * G]
            if mask != row.last:
                row.events.append((row.n, mask))
                row.last = mask
            if record:
                # surviving blocks have kernel norm nu - thr by construction
                row.obj.append(row.lam * np.add.reduce(excess[j][keep[j]]))
                row.steps.append(step)
            if step <= stop or row.n >= budget:
                # DualCoefficients copies: a view would pin the stack
                penalty = row.lam * np.add.reduce(excess[j][keep[j]])
                results[row.index] = (DualCoefficients(AT[j].T),
                                      _finish(row, IM[j], Y[j], penalty),
                                      row.n - row.skipped)
                left = True
                continue
            if row.span is None:
                if step == 0.0 and all(_same_bits(a[j], b[j])
                                       for a, b in zip(state, last)):
                    # a fixed point, found at once. The compare guards
                    # against squares that underflow to 0
                    row.span, row.period = 1, []
                elif step == row.ck_step and all(
                        _same_bits(a[j], b) for a, b in zip(state, row.ck)):
                    # state n equals state ck_n
                    row.span, row.period = row.n - row.ck_n, []
                elif row.n - row.ck_n == _CYCLE_WINDOW:
                    for ck, a in zip(row.ck, state):
                        np.copyto(ck, a[j])
                    row.ck_n, row.ck_step = row.n, step
            if row.period is not None:
                # the state repeats, and this step came from a state of
                # its cycle, as the next span - 1 steps will: a period of
                # the factors that step AT, then the jump. AT_next and B
                # are spent until the next iteration
                row.period.append((gamma_col[j].copy(), tau_r[j].copy()))
                if len(row.period) == row.span:
                    _advance(AT[j], row.period, row.jump(budget), B[j],
                             AT_next[j])
                    row.period = None

        if left:
            sel = [j for j, row in enumerate(rows)
                   if results[row.index] is None]
            if not sel:
                return results
            rows = [rows[j] for j in sel]
            AT, IM, Y = AT[sel], IM[sel], Y[sel]
            product = None


def _finish(row, IM, y, penalty):
    """One row's trace, copied out so as not to pin the stack.

    `IM` holds the images of the row's coefficients; `penalty` is the
    last iteration's, as its record would hold it.
    """
    r = row.gram.from_images(IM) - y
    final = penalty + 0.5 * (r @ r)
    if row.obj:
        row.obj[-1] = final
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
    return SolveTrace(
        change_iters=iters,
        change_supports=np.frombuffer(b"".join(masks), dtype=bool).reshape(
            len(masks), row.gram.n_groups),
        objectives=objectives,
        step_norms=step_norms,
        objective=final,
        iters_run=row.n,
        final_step_norm=row.step,
    )


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
        certs = gram.norms(r) / lam
        primal = objective(polished, problem)
        scale = max(1.0, float(certs.max()))
        dual = -(y @ r) / scale - 0.5 * (r @ r) / (scale * scale)
        certified = (
            (weights[S] > 0.0).all()
            and (np.delete(certs, S) < 1.0).all()
            and np.linalg.matrix_rank(gram.apply_each(r)[S].T) == S.size
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
    c = gram.norms(coeffs.alpha) / lam
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


def _to_boundary(x, dx):
    """The largest t <= 1 with x + t dx >= 0, for x > 0."""
    shrink = dx < 0.0
    if not shrink.any():
        return 1.0
    return min(1.0, float((-x[shrink] / dx[shrink]).min()))

"""
A single kernel, followed by hand
=================================

The smallest possible problem: one data point, one group, the constant
kernel K = 1, response y = 1, weight lambda = 1. Everything about the
iteration can be computed with pencil and paper, which makes it the
right place to see what "support identification" does and does not
promise.
"""

import numpy as np

from sparsemkl.core import Dataset, DualCoefficients, GramBlocks, ProblemInstance
from sparsemkl.oracle import enumerate_solve
from sparsemkl.solver import SolverConfig, solve
from sparsemkl.support import (
    last_support_change,
    qualification_check,
    sandwich_check,
    support_of,
)

# The operator bound is pinned at exactly 1, the top eigenvalue itself
# rather than the default with its margin, so a step factor of 0.5 is
# the step size 0.5.
gram = GramBlocks(features=np.ones((1, 1)), group_dims=(1,), lipschitz=1.0)
problem = ProblemInstance(
    dataset=Dataset(np.ones((1, 1)), np.ones(1)),
    gram=gram,
    lam=1.0,
)

# ------------------------------------------------------------------
# The iteration, one step at a time.
#
# Starting from alpha = 1, each step first moves against the residual,
# a = alpha - tau * (alpha - 1), then shrinks the result radially by
# the threshold tau * lambda = 0.5. Expanding the recursion gives
# alpha_n = 0.5 ** n: the iterate halves forever and never reaches
# zero.

tau = 0.5
alpha = DualCoefficients(np.ones((1, 1)))
print("n    iterate        closed form 0.5^n")
for n in range(1, 9):
    # each solve takes one step from the previous iterate
    alpha, _ = solve(problem, SolverConfig(tau_factor=tau, max_iters=1), alpha)
    print(f"{n}    {alpha.alpha[0, 0]:.9f}    {0.5 ** n:.9f}")

# ------------------------------------------------------------------
# What the minimizer actually is.
#
# Exhaustive enumeration over support subsets certifies that the true
# solution is the zero function: the certificate norm of the single
# group sits exactly at the level 1, neither strictly below (which
# would force the group out) nor above (which would be infeasible).

oracle = enumerate_solve(problem)
report = qualification_check(oracle.alpha_or_w, problem)
print()
print(f"oracle support           {sorted(oracle.support)}")
print(f"oracle objective         {oracle.objective}")
print(f"extended support         {sorted(report.extended_support)}")
print(f"qualification margin     {report.qc_margin}")
print(f"qualification holds      {report.qc_holds}")

# So supp(solution) is empty while the extended support is {0}: the
# two differ, the qualification condition fails, and no finite number
# of iterations will make supp(iterate) equal supp(solution). The
# iterate's support is stuck at {0} for every n, as the table above
# shows.

# ------------------------------------------------------------------
# The sandwich still holds.
#
# Identification theory degrades gracefully: even without
# qualification, the iterate support is pinched between the solution
# support and the extended support from some finite iteration on.
# Here that is trivially true from the first step.

config = SolverConfig(tau_factor=0.5, max_iters=50, record_trace=True)
coeffs, trace = solve(problem, config, DualCoefficients(np.ones((1, 1))))
burn_in = last_support_change(trace)
verdict = sandwich_check(trace, report, burn_in)

print()
print(f"final iterate support    {sorted(support_of(coeffs))}")
print(f"burn-in iteration        {burn_in}")
print(f"sandwich check           {'pass' if verdict.passed else 'fail'}")

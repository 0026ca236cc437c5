"""
Group-lasso recovery on synthetic data
======================================

Plant a sparse coefficient vector, observe it through noise, and watch
the solver find the planted blocks. Along the way: the qualification
report, the independent oracle, and what the regularization weight
does to the recovered support.
"""

import numpy as np

from sparsemkl.core import Dataset, ProblemInstance, objective
from sparsemkl.kernels import LinearGroupProjection, assemble_gram_blocks
from sparsemkl.oracle import enumerate_solve
from sparsemkl.solver import SolverConfig, solve, solve_with_reference
from sparsemkl.support import qualification_check, support_of

rng = np.random.default_rng(7)

# 12 samples in R^10, five feature blocks of two coordinates each.
# Blocks 1 and 3 carry signal, the rest are noise-only.
m, dims = 12, (2, 2, 2, 2, 2)
p = sum(dims)
X = rng.standard_normal((m, p))
planted = np.zeros(p)
planted[2:4] = rng.standard_normal(2)
planted[6:8] = rng.standard_normal(2)
y = X @ planted + 1e-2 * rng.standard_normal(m)

dataset = Dataset(X, y)
gram = assemble_gram_blocks(dataset, LinearGroupProjection(dims))

# Weights are meaningful relative to the certificate norms
# sqrt(y' K_g y), the kernel norms of y; a quarter of the largest is a
# sensible default.
certs = gram.norms(y)
lam = 0.25 * certs.max()
problem = ProblemInstance(dataset=dataset, gram=gram, lam=lam)
print(f"certificate norms  {np.array2string(certs, precision=2)}")
print(f"weight             {lam:.3f}")

# ------------------------------------------------------------------
# Solve and report.

config = SolverConfig(tau_factor=0.8, max_iters=20000, stop_tol=1e-12,
                      record_trace=True)
result = solve_with_reference(problem, config)
coeffs, trace = result.coeffs, result.trace
print()
print(f"planted blocks     [1, 3]")
print(f"recovered support  {sorted(support_of(coeffs))}")
print(f"iterations         {trace.iters_run}")
print(f"final step norm    {trace.final_step_norm:.2e}")

# The qualification report is taken at the reference: the limit of the
# same trajectory: the run's own result where it has settled, else
# what the reference polish certifies, else a replay from zero for up
# to ten times the budget. qc_holds means every off-support certificate is strictly
# below the level 1, so the recovered support is exact after finitely
# many iterations, not just in the limit.
report = qualification_check(result.reference, problem)
print()
print(f"extended support   {sorted(report.extended_support)}")
print(f"qc margin          {report.qc_margin:.4f}")
print(f"qc holds           {report.qc_holds}")

# ------------------------------------------------------------------
# Cross-check against the exhaustive oracle.
#
# With five groups there are only 32 support subsets; the oracle
# solves the stationarity system on each and keeps the best. Agreement
# here is the strongest correctness evidence this library offers.

oracle = enumerate_solve(problem)
ours = objective(coeffs, problem)
print()
print(f"oracle support     {sorted(oracle.support)}")
print(f"oracle objective   {oracle.objective:.12f}")
print(f"solver objective   {ours:.12f}")
print(f"relative gap       {abs(ours - oracle.objective) / oracle.objective:.2e}")

# ------------------------------------------------------------------
# Sweep the weight.
#
# Larger weights kill more groups. The support shrinks monotonically
# here, though in general single groups can flicker in and out along
# the path.

print()
print("weight fraction    support")
for frac in (0.05, 0.15, 0.4, 0.8, 1.05):
    swept = ProblemInstance(dataset=dataset, gram=gram,
                            lam=frac * certs.max())
    c, _ = solve(swept, SolverConfig(tau_factor=0.8, max_iters=20000,
                                     stop_tol=1e-12))
    print(f"{frac:<18} {sorted(support_of(c))}")

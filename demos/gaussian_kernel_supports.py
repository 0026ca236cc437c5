"""
Watching Gaussian kernels die slowly
====================================

With a family of Gaussian kernels at different bandwidths the Gram
blocks are strongly correlated, off-support certificates sit close to
the critical level, and groups leave the support at wildly different
speeds. This script traces that process.
"""

import numpy as np

from sparsemkl.core import Dataset, ProblemInstance
from sparsemkl.kernels import GaussianFamily, assemble_gram_blocks
from sparsemkl.solver import SolverConfig, solve_with_reference
from sparsemkl.support import (
    certificate_norms,
    last_support_change,
    qualification_check,
    sandwich_check,
)

rng = np.random.default_rng(21)

# Two clusters of ten points in the plane; a smooth target built from
# the widest kernel plus one mid-range kernel.
m = 20
points = np.concatenate([
    rng.standard_normal((10, 2)) * 0.5 + [2.0, 0.0],
    rng.standard_normal((10, 2)) * 0.5 - [2.0, 0.0],
])
sigmas = (0.4, 0.8, 1.2, 1.8, 2.4, 3.0)

probe = assemble_gram_blocks(Dataset(points, np.zeros(m)),
                             GaussianFamily(sigmas))
alpha_star = np.zeros((m, len(sigmas)))
alpha_star[:, 1] = rng.standard_normal(m) * 0.5
alpha_star[:, 5] = rng.standard_normal(m) * 0.5
y = probe.apply(alpha_star)
y += 1e-2 * rng.standard_normal(m)

dataset = Dataset(points, y)
gram = assemble_gram_blocks(dataset, GaussianFamily(sigmas))
# lambda at half the largest kernel norm of y, sqrt(y' K_g y)
problem = ProblemInstance(dataset=dataset, gram=gram,
                          lam=0.5 * gram.norms(y).max())

# ------------------------------------------------------------------
# Trace the support size.
#
# All six groups light up immediately, then are shed one by one. The
# last survivors take thousands of iterations: their certificates are
# only a few percent below the critical level, and the distance to
# zero shrinks by tau * lambda * (1 - certificate) per step. The same
# call takes the reference used below: the trajectory's limit, which
# is the run's own result where it has settled, else what the reference
# polish certifies, or where it refuses, a replay run on, untraced.

config = SolverConfig(tau_factor=0.8, max_iters=30000, stop_tol=0.0,
                      record_trace=True)
result = solve_with_reference(problem, config)
trace = result.trace

sizes = trace.support_sizes()
print("iteration    support size")
shown = set()
for i in range(trace.n_recorded):
    size = int(sizes[i])
    if size not in shown:
        shown.add(size)
        print(f"{int(trace.iterations[i]):<12} {size}")

print()
print(f"settled after iteration {last_support_change(trace)}")

# ------------------------------------------------------------------
# Certificates explain the speed.
#
# Groups well below the level 1 die fast; the one nearest to 1 holds
# on longest. Certificate norms at the reference solution:

report = qualification_check(result.reference, problem)
print()
print("group  sigma  certificate")
for g, sigma in enumerate(sigmas):
    tag = ""
    if g in report.support:
        tag = "  <- support"
    elif g in report.extended_support:
        tag = "  <- extended support only"
    print(f"{g + 1:<6} {sigma:<6} {report.certificate_norms[g]:.6f}{tag}")
print()
print(f"qc holds: {report.qc_holds} (margin {report.qc_margin:.4f})")

# Certificates at the final traced iterate are already close to these;
# the support sandwich against the reference holds once the trace
# settles.
final_certs = certificate_norms(result.coeffs, problem)
verdict = sandwich_check(trace, report, last_support_change(trace))
print(f"max certificate drift vs reference: "
      f"{np.abs(final_certs - report.certificate_norms).max():.2e}")
print(f"sandwich: {'pass' if verdict.passed else 'fail'}")

"""Kernel families and Gram-block assembly.

Two families cover the experiments in this package: linear kernels on
disjoint column groups of the design matrix (the group-lasso setting,
where each block is :math:`X_g X_g^T`), and a bank of Gaussian kernels
with one bandwidth per group (all groups then read the full point set).
Both produce the same artifact, a :class:`~sparsemkl.core.GramBlocks`,
whose validation derives the `lipschitz` bound that feeds the solver's
step size. The linear family keeps its column groups as factors and
never forms an ``(m, m)`` block; the Gaussian family is a dense stack.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, GramBlocks
from .errors import ContractViolation

__all__ = [
    "LinearGroupProjection",
    "GaussianFamily",
    "assemble_gram_blocks",
]


@dataclass(frozen=True)
class LinearGroupProjection:
    """Linear kernels on consecutive, disjoint column groups.

    Parameters
    ----------
    group_dims : tuple of int
        Width of each group's column slice, in order; the widths must sum
        to the dataset's feature dimension.
    """

    group_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.group_dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ContractViolation(f"group_dims must be positive, got {dims}")
        object.__setattr__(self, "group_dims", dims)


@dataclass(frozen=True)
class GaussianFamily:
    """One Gaussian kernel per group, all on the full point set.

    Parameters
    ----------
    sigmas : tuple of float
        Positive bandwidths; block g is
        ``exp(-||x_i - x_j||^2 / (2 * sigmas[g]^2))``.
    """

    sigmas: tuple

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) < 1 or any(not np.isfinite(s) or s <= 0.0 for s in sig):
            raise ContractViolation(f"sigmas must be positive finite, got {sig}")
        object.__setattr__(self, "sigmas", sig)


def assemble_gram_blocks(dataset, spec):
    """Build the Gram blocks of a kernel family on a dataset.

    Parameters
    ----------
    dataset : Dataset
    spec : LinearGroupProjection or GaussianFamily

    Returns
    -------
    GramBlocks
        With the default `lipschitz` bound: factored storage on the
        dataset's points for the linear family, a dense stack for the
        Gaussian family.

    Raises
    ------
    ContractViolation
        If the spec does not fit the dataset (group widths not summing to
        p) or every block is identically zero.
    """
    if not isinstance(dataset, Dataset):
        raise ContractViolation("dataset must be a Dataset")

    if isinstance(spec, LinearGroupProjection):
        return GramBlocks(features=dataset.points, group_dims=spec.group_dims)
    if not isinstance(spec, GaussianFamily):
        raise ContractViolation(f"unsupported kernel spec {type(spec).__name__}")

    # squared distances one coordinate at a time, O(m^2) memory for any
    # p; symmetric to the bit, as each difference is antisymmetric and
    # every entry sums its coordinates in one order
    sq = np.zeros((dataset.m, dataset.m))
    for x in dataset.points.T:
        sq += np.square(np.subtract.outer(x, x))
    blocks = np.empty((len(spec.sigmas), dataset.m, dataset.m))
    for g, sigma in enumerate(spec.sigmas):
        blocks[g] = np.exp(-sq / (2.0 * sigma * sigma))
    # frozen here, the stack becomes the GramBlocks' own without a copy
    blocks.setflags(write=False)
    return GramBlocks(blocks=blocks)

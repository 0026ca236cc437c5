"""Problem data containers and the objective they define.

The model fitted everywhere in this package is a group-sparse kernel
regression: given Gram blocks :math:`K_1, \\dots, K_G` on the same sample
set and a response vector :math:`y`, the solver works on a coefficient
matrix with one column per group and minimizes

.. math:: F(\\alpha) = \\lambda \\sum_g \\sqrt{\\alpha_g^T K_g \\alpha_g}
          + \\tfrac12 \\Big\\| \\sum_g K_g \\alpha_g - y \\Big\\|_2^2 .

The square root term is the norm of the g-th function block in its
reproducing space, so zeroing a column removes that kernel from the fit.

All containers are frozen dataclasses holding read-only arrays; they can
be shared freely across threads and processes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

__all__ = [
    "Dataset",
    "GramBlocks",
    "DualCoefficients",
    "ProblemInstance",
    "group_dual_norm",
    "residual",
    "objective",
]

#: Absolute tolerance on per-block symmetry defects.
SYMMETRY_TOL = 1e-12

#: Relative (to the trace) tolerance on negative eigenvalues of a block.
PSD_TOL = 1e-10

#: Factor between the default `GramBlocks.lipschitz` and the largest
#: eigenvalue of sum_g K_g. It keeps the step bound strictly above the
#: spectrum whatever the rounding of the eigensolver, and it fixes the
#: step sizes that the recorded benchmark histograms were produced with.
LIPSCHITZ_MARGIN = 1.01


def _readonly(a, dtype=np.float64):
    """`a` as a C-contiguous read-only float array.

    An array that already is one and owns its data is returned as is;
    anything else, a read-only view of a writable array included, is
    copied, so no writable alias of the result is left behind.
    """
    if (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample points and responses.

    Parameters
    ----------
    points : (m, p) array_like
        One row per sample. All kernels in a problem see the same rows;
        kernel families differ in which columns (or which feature map)
        they read.
    responses : (m,) array_like
        Regression targets.

    Raises
    ------
    ContractViolation
        If shapes are inconsistent, any entry is non-finite, or either
        dimension is empty.
    """

    points: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        y = _readonly(self.responses)
        if pts.ndim != 2:
            raise ContractViolation(f"points must be 2-D, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ContractViolation(f"points must be non-empty, got shape {pts.shape}")
        if y.ndim != 1 or y.shape[0] != pts.shape[0]:
            raise ContractViolation(
                f"responses must have shape ({pts.shape[0]},), got {y.shape}"
            )
        if not np.isfinite(pts).all() or not np.isfinite(y).all():
            raise ContractViolation("dataset contains non-finite entries")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", y)

    @property
    def m(self):
        """Number of samples."""
        return self.points.shape[0]

    @property
    def p(self):
        """Ambient feature dimension of the points."""
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class GramBlocks:
    """A stack of per-group Gram matrices and the operator they define.

    The package applies the Gram operator through three methods:
    :meth:`apply` for :math:`\\sum_g K_g \\alpha_g`, :meth:`apply_each`
    for :math:`K_g v` per group, and :meth:`quad` for the group
    quadratic forms.

    Parameters
    ----------
    blocks : (G, m, m) array_like
        Symmetric positive semi-definite Gram matrix of each group.
    lipschitz : float, optional
        Upper bound on the largest eigenvalue of ``sum_g K_g``. Step
        sizes are derived from this number, so it must genuinely
        dominate the spectrum. By default it is ``LIPSCHITZ_MARGIN``
        times that eigenvalue, which validation computes exactly.
    group_dims : tuple of int, optional
        For Gram blocks built from explicit feature groups, the width of
        each group's column slice. `None` for implicit kernels.

    Raises
    ------
    ContractViolation
        If a block is asymmetric beyond ``SYMMETRY_TOL`` or has an
        eigenvalue at or below ``-PSD_TOL * max(trace, 1)`` (tested by
        a Cholesky factorization of the shifted block), or if
        `lipschitz` is not positive or fails to dominate the largest
        eigenvalue of ``sum_g K_g``.
    """

    blocks: np.ndarray
    lipschitz: float | None = None
    group_dims: tuple | None = None

    def __post_init__(self):
        blocks = _readonly(self.blocks)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ContractViolation(
                f"blocks must be a (G, m, m) stack, got shape {blocks.shape}"
            )
        n_groups, m, _ = blocks.shape
        if n_groups < 1 or m < 1:
            raise ContractViolation(f"blocks must be non-empty, got shape {blocks.shape}")
        if not np.isfinite(blocks).all():
            raise ContractViolation("Gram blocks contain non-finite entries")

        for g, K in enumerate(blocks):
            asym = np.abs(K - K.T).max()
            if asym > SYMMETRY_TOL:
                raise ContractViolation(
                    f"block {g} is asymmetric: max defect {asym:.3e}"
                )
            # K + tol*I has a Cholesky factor iff every eigenvalue of K
            # exceeds -tol; eigvalsh only runs to name one in the error
            scale = max(np.trace(K), 1.0)
            shifted = K.copy()
            shifted.flat[::m + 1] += PSD_TOL * scale
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                lo = np.linalg.eigvalsh(K)[0]
                raise ContractViolation(
                    f"block {g} is not positive semi-definite "
                    f"(eigenvalue {lo:.3e})"
                ) from None

        top = float(np.linalg.eigvalsh(blocks.sum(axis=0))[-1])
        if self.lipschitz is None:
            lip = top * LIPSCHITZ_MARGIN
        else:
            lip = float(self.lipschitz)
        if not np.isfinite(lip) or lip <= 0.0:
            raise ContractViolation(
                f"lipschitz must be positive, got {lip!r} (the largest "
                f"eigenvalue of the block sum is {top!r})"
            )
        # tiny slack: eigvalsh itself carries rounding error
        if lip < top * (1.0 - 1e-9):
            raise ContractViolation(
                f"lipschitz={lip!r} does not dominate the largest "
                f"eigenvalue {top!r} of the block sum"
            )

        dims = self.group_dims
        if dims is not None:
            dims = tuple(int(d) for d in dims)
            if len(dims) != n_groups or any(d < 1 for d in dims):
                raise ContractViolation(
                    f"group_dims must list {n_groups} positive widths, got {dims}"
                )

        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "lipschitz", lip)
        object.__setattr__(self, "group_dims", dims)

    @property
    def n_groups(self):
        return self.blocks.shape[0]

    @property
    def m(self):
        return self.blocks.shape[1]

    def apply(self, alpha):
        """The summed operator ``sum_g K_g alpha_g``.

        Parameters
        ----------
        alpha : (m, G) ndarray
            One coefficient column per group, as in
            :class:`DualCoefficients`.

        Returns
        -------
        (m,) ndarray
        """
        return np.einsum("gij,jg->i", self.blocks, alpha)

    def apply_each(self, v):
        """Every block applied on its own, ``K_g v_g`` for each g.

        Parameters
        ----------
        v : (m,) or (G, m) ndarray
            One vector shared by all groups, or one row per group.

        Returns
        -------
        (G, m) ndarray
            Row g is ``K_g`` applied to the vector of group g.
        """
        if v.ndim == 1:
            G, m, _ = self.blocks.shape
            return (self.blocks.reshape(G * m, m) @ v).reshape(G, m)
        return np.einsum("gij,gj->gi", self.blocks, v)

    def quad(self, v):
        """Group quadratic forms ``v_g' K_g v_g``, one per group.

        Parameters
        ----------
        v : (m,) or (m, G) ndarray
            One vector shared by all groups, or one coefficient column
            per group, as in :class:`DualCoefficients`.

        Returns
        -------
        (G,) ndarray
            Not clamped: PSD blocks can give values a few ulp below 0.
        """
        if v.ndim == 1:
            return np.einsum("i,gij,j->g", v, self.blocks, v)
        return np.einsum("ig,gij,jg->g", v, self.blocks, v)


@dataclass(frozen=True, eq=False)
class DualCoefficients:
    """Coefficient matrix with one column per group.

    The iteration keeps one vector in :math:`\\mathbb{R}^m` per kernel;
    column g expands to the group's function block through :math:`K_g`.
    Columns removed by thresholding are exact zero vectors, never
    denormal residue, so support queries can compare against zero.

    Parameters
    ----------
    alpha : (m, G) array_like
        Finite coefficient matrix.
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = _readonly(self.alpha)
        if a.ndim != 2:
            raise ContractViolation(f"alpha must be 2-D, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ContractViolation(f"alpha must be non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ContractViolation("alpha contains non-finite entries")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def zeros(cls, m, n_groups):
        """All-zero coefficients, the standard starting point."""
        return cls(np.zeros((int(m), int(n_groups))))

    @property
    def m(self):
        return self.alpha.shape[0]

    @property
    def n_groups(self):
        return self.alpha.shape[1]

    def column(self, g):
        """Coefficient vector of group `g` (0-based)."""
        return self.alpha[:, g]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A dataset, its Gram blocks, and the regularization level.

    Parameters
    ----------
    dataset : Dataset
    gram : GramBlocks
        Must share the dataset's sample count.
    lam : float
        Positive regularization weight.
    lam_convention : {"raw", "per-sample"}
        "raw" uses `lam` as-is in the objective; "per-sample" multiplies
        it by the sample count, matching formulations that average the
        data-fit term instead of summing it.
    """

    dataset: Dataset
    gram: GramBlocks
    lam: float
    lam_convention: str = "raw"

    def __post_init__(self):
        if not isinstance(self.dataset, Dataset):
            raise ContractViolation("dataset must be a Dataset")
        if not isinstance(self.gram, GramBlocks):
            raise ContractViolation("gram must be a GramBlocks")
        if self.gram.m != self.dataset.m:
            raise ContractViolation(
                f"gram is built for m={self.gram.m} samples but the dataset "
                f"has m={self.dataset.m}"
            )
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ContractViolation(f"lam must be positive, got {lam!r}")
        if self.lam_convention not in ("raw", "per-sample"):
            raise ContractViolation(
                f"lam_convention must be 'raw' or 'per-sample', "
                f"got {self.lam_convention!r}"
            )
        object.__setattr__(self, "lam", lam)

    @property
    def effective_lambda(self):
        """Weight actually multiplying the group-norm sum."""
        if self.lam_convention == "per-sample":
            return self.lam * self.dataset.m
        return self.lam

    @property
    def m(self):
        return self.dataset.m

    @property
    def n_groups(self):
        return self.gram.n_groups


def group_dual_norm(v, gram_block):
    """Kernel-weighted norm :math:`\\sqrt{v^T K v}` of a vector.

    For a coefficient column this is the norm of the group's function
    block; for a residual it is the norm of the group's correlation with
    that residual, the quantity the optimality certificate bounds.

    Parameters
    ----------
    v : (m,) array_like
    gram_block : (m, m) array_like
        Symmetric positive semi-definite.

    Returns
    -------
    float
        Non-negative; the quadratic form is clamped at zero before the
        square root since PSD blocks can dip a few ulp negative.
    """
    v = np.asarray(v, dtype=np.float64)
    K = np.asarray(gram_block, dtype=np.float64)
    if v.ndim != 1 or K.shape != (v.shape[0], v.shape[0]):
        raise ContractViolation(
            f"shape mismatch: v {v.shape} against block {K.shape}"
        )
    q = float(v @ (K @ v))
    return float(np.sqrt(max(q, 0.0)))


def residual(coeffs, gram, y):
    """Data-fit residual :math:`\\sum_g K_g \\alpha_g - y`.

    Parameters
    ----------
    coeffs : DualCoefficients
    gram : GramBlocks
    y : (m,) array_like

    Returns
    -------
    (m,) ndarray
    """
    y = np.asarray(y, dtype=np.float64)
    if coeffs.n_groups != gram.n_groups or coeffs.m != gram.m:
        raise ContractViolation(
            f"coeffs shaped {coeffs.alpha.shape} do not match gram with "
            f"G={gram.n_groups}, m={gram.m}"
        )
    if y.shape != (gram.m,):
        raise ContractViolation(f"y must have shape ({gram.m},), got {y.shape}")
    return gram.apply(coeffs.alpha) - y


def objective(coeffs, problem):
    """Value of the regularized objective at `coeffs`.

    Returns
    -------
    float
        ``effective_lambda * sum_g sqrt(a_g' K_g a_g) + 0.5 * ||r||^2``
        where r is the data-fit residual.
    """
    r = residual(coeffs, problem.gram, problem.dataset.responses)
    norms = np.sqrt(np.maximum(problem.gram.quad(coeffs.alpha), 0.0))
    return float(problem.effective_lambda * norms.sum() + 0.5 * (r @ r))

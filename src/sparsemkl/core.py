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
    """Per-group Gram matrices and the operator they define.

    The package applies the Gram operator through three methods:
    :meth:`apply` for :math:`\\sum_g K_g \\alpha_g`, :meth:`apply_each`
    for :math:`K_g v` per group, and :meth:`quad` for the group
    quadratic forms. They work on one of two storages:

    * dense, from `blocks`: the ``(G, m, m)`` stack itself, for implicit
      kernels such as the Gaussian family;
    * factored, from `features` and `group_dims`: linear kernels on
      consecutive column groups, ``K_g = X_g X_g'``. The column groups
      are stored as a zero-padded ``(G, m, d_max)`` factor stack, so
      ``K_g v = X_g (X_g' v)`` costs two batched matrix products of
      O(m d_max) per group, and no ``(m, m)`` block is ever formed.

    :meth:`dense` returns the ``(G, m, m)`` stack for code that needs
    the blocks themselves; on factored storage it builds them anew.

    Parameters
    ----------
    blocks : (G, m, m) array_like, optional
        Symmetric positive semi-definite Gram matrix of each group.
    lipschitz : float, optional
        Upper bound on the largest eigenvalue of ``sum_g K_g``. Step
        sizes are derived from this number, so it must genuinely
        dominate the spectrum. By default it is ``LIPSCHITZ_MARGIN``
        times that eigenvalue, which validation computes exactly: from
        the block sum, or from the ``p x p`` matrix ``X'X``, whose
        nonzero eigenvalues are those of ``sum_g X_g X_g' = X X'``.
    group_dims : tuple of int, optional
        The width of each group's column slice. Required with
        `features`, rejected with `blocks`.
    features : (m, p) array_like, optional
        The design matrix X whose consecutive column groups, of widths
        `group_dims`, give the blocks. Give exactly one of `blocks` and
        `features`.

    Raises
    ------
    ContractViolation
        If a dense block is asymmetric beyond ``SYMMETRY_TOL`` or has
        an eigenvalue at or below ``-PSD_TOL * max(trace, 1)`` (tested
        by a Cholesky factorization of the shifted block), if the
        features are not finite or `group_dims` does not split their
        columns, if `group_dims` comes with `blocks`, or if `lipschitz`
        is not positive or fails to dominate the largest eigenvalue of
        ``sum_g K_g``. Factored blocks are symmetric positive
        semi-definite by construction.
    """

    blocks: np.ndarray | None = None
    lipschitz: float | None = None
    group_dims: tuple | None = None
    features: np.ndarray | None = None
    factors: np.ndarray | None = field(init=False, default=None, repr=False)
    _factors_t: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if (self.blocks is None) == (self.features is None):
            raise ContractViolation("give exactly one of blocks and features")
        if self.blocks is None:
            top = self._init_factors()
        elif self.group_dims is not None:
            raise ContractViolation("group_dims belongs to features, not blocks")
        else:
            top = self._init_blocks()

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
        object.__setattr__(self, "lipschitz", lip)

    def _init_blocks(self):
        """Validate the dense stack; return the block sum's top eigenvalue."""
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
        object.__setattr__(self, "blocks", blocks)
        return float(np.linalg.eigvalsh(blocks.sum(axis=0))[-1])

    def _init_factors(self):
        """Validate X, build the factor stacks; return the top eigenvalue."""
        X = _readonly(self.features)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ContractViolation(
                f"features must be a non-empty (m, p) matrix, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise ContractViolation("features contain non-finite entries")
        if self.group_dims is None:
            raise ContractViolation("features need group_dims")
        dims = tuple(int(d) for d in self.group_dims)
        if not dims or any(d < 1 for d in dims) or sum(dims) != X.shape[1]:
            raise ContractViolation(
                f"group_dims must be positive widths summing to "
                f"p={X.shape[1]}, got {dims}"
            )

        # F_g holds X_g zero-padded to d_max columns; the zeros add
        # nothing to F_g' v or to F_g u. F' is kept contiguous for matmul
        F = np.zeros((len(dims), X.shape[0], max(dims)))
        start = 0
        for g, d in enumerate(dims):
            F[g, :, :d] = X[:, start:start + d]
            start += d
        FT = np.ascontiguousarray(F.transpose(0, 2, 1))
        F.setflags(write=False)
        FT.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "group_dims", dims)
        object.__setattr__(self, "factors", F)
        object.__setattr__(self, "_factors_t", FT)
        # X'X by einsum's own loop, not BLAS, whose threaded products
        # change their low bits with the thread count
        return float(np.linalg.eigvalsh(np.einsum("ij,ik->jk", X, X))[-1])

    @property
    def n_groups(self):
        stack = self.blocks if self.factors is None else self.factors
        return stack.shape[0]

    @property
    def m(self):
        stack = self.blocks if self.factors is None else self.factors
        return stack.shape[1]

    def dense(self):
        """The ``(G, m, m)`` stack of Gram blocks, read-only.

        Dense storage returns its own stack. Factored storage builds
        ``X_g X_g'`` on every call, O(G m^2) memory, for code that needs
        the blocks themselves (subset solves, cross-checks, demos).
        """
        if self.factors is None:
            return self.blocks
        K = self.factors @ self._factors_t
        K = 0.5 * (K + K.transpose(0, 2, 1))  # exactly symmetric
        K.setflags(write=False)
        return K

    def _project(self, v):
        """``X_g' v_g`` for every group, as a (G, d_max, 1) array."""
        return self._factors_t @ v[..., None]

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
        if self.factors is None:
            return np.einsum("gij,jg->i", self.blocks, alpha)
        return (self.factors @ self._project(alpha.T)).sum(axis=0)[:, 0]

    def apply_each(self, v, out=None):
        """Every block applied on its own, ``K_g v_g`` for each g.

        Parameters
        ----------
        v : (m,) or (G, m) ndarray
            One vector shared by all groups, or one row per group.
        out : (G, m) C-contiguous float64 ndarray, optional
            Where to write the result; the bits are those of a call
            without it.

        Returns
        -------
        (G, m) ndarray
            Row g is ``K_g`` applied to the vector of group g.
        """
        if self.factors is not None:
            if out is None:
                return (self.factors @ self._project(v))[..., 0]
            np.matmul(self.factors, self._project(v), out=out[..., None])
            return out
        if v.ndim == 1:
            G, m, _ = self.blocks.shape
            if out is None:
                return (self.blocks.reshape(G * m, m) @ v).reshape(G, m)
            np.matmul(self.blocks.reshape(G * m, m), v, out=out.reshape(G * m))
            return out
        return np.einsum("gij,gj->gi", self.blocks, v, out=out)

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
            Not clamped: dense PSD blocks can give values a few ulp
            below 0. Factored blocks give ``||X_g' v_g||^2 >= 0``.
        """
        if self.factors is not None:
            u = self._project(v if v.ndim == 1 else v.T)
            return np.einsum("gdk,gdk->g", u, u)
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

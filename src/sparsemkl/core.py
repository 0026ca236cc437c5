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
from functools import partial

import numpy as np

from .errors import ContractViolation

__all__ = [
    "Dataset",
    "GramBlocks",
    "bind_stack",
    "DualCoefficients",
    "ProblemInstance",
    "residual",
    "objective",
]

#: Tolerance on per-block symmetry defects, relative to the block's
#: largest entry.
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

    An array that already is one, and owns its data or reshapes the
    whole of a read-only array that does, is returned as is; anything
    else, a read-only view of a writable array included, is copied, so
    no writable alias of the result is left behind.
    """
    if (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and not a.flags.writeable):
        owner = a if a.base is None else a.base
        if (isinstance(owner, np.ndarray) and owner.base is None
                and not owner.flags.writeable and owner.nbytes == a.nbytes):
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


@dataclass(frozen=True, eq=False)
class GramBlocks:
    """Per-group Gram matrices and the operator they define.

    The package applies the Gram operator through :meth:`apply` for
    :math:`\\sum_g K_g \\alpha_g` and :meth:`apply_each` for
    :math:`K_g v` per group, and takes every kernel norm outside the
    solver's loop and the oracles from :meth:`norms`; :meth:`resolvent`
    solves with :math:`I + \\sum_g c_g K_g`, and the solver steps in the
    coordinates of :meth:`image`. They work on one of two storages:

    * dense, from `blocks`: the ``(G, m, m)`` stack itself, for implicit
      kernels such as the Gaussian family;
    * factored, from `features` and `group_dims`: linear kernels on
      consecutive column groups, ``K_g = X_g X_g'``. The ``(G, m,
      d_max)`` factor stack is a read-only view of the features, padded
      with zeros in one copy if the widths differ, and its transpose the
      one contiguous copy, so ``K_g v = X_g (X_g' v)`` costs two batched
      matrix products of O(m d_max) per group, and no ``(m, m)`` block
      is ever formed.

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
        If a dense block is asymmetric beyond ``SYMMETRY_TOL`` times
        its largest entry or has an eigenvalue at or below
        ``-PSD_TOL * trace`` (tested by a Cholesky factorization of the
        shifted block; an all-zero block passes), if the
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
    _padded: np.ndarray | None = field(init=False, default=None, repr=False)

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
            top = np.abs(K).max()
            asym = np.abs(K - K.T).max()
            if asym > SYMMETRY_TOL * top:
                raise ContractViolation(
                    f"block {g} is asymmetric: max defect {asym:.3e}"
                )
            if not top:
                continue  # an all-zero block is PSD
            # K + tol*I has a Cholesky factor iff every eigenvalue of K
            # exceeds -tol; eigvalsh only runs to name one in the error
            shifted = K.copy()
            shifted.flat[::m + 1] += PSD_TOL * np.trace(K)
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

        # P holds the X_g zero-padded to d_max columns side by side, X
        # itself when the widths are equal; the zeros add nothing to F_g'
        # v, F_g u or P w. F_g views P's g-th slice, and F', which the
        # loop's products read, is the one contiguous copy
        m, G, d_max = X.shape[0], len(dims), max(dims)
        P = X
        if len(set(dims)) > 1:
            P = np.zeros((m, G * d_max))
            P[:, np.concatenate([g * d_max + np.arange(d)
                                 for g, d in enumerate(dims)])] = X
            P.setflags(write=False)
        F = P.reshape(m, G, d_max).transpose(1, 0, 2)
        FT = np.ascontiguousarray(F.transpose(0, 2, 1))
        FT.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "group_dims", dims)
        object.__setattr__(self, "factors", F)
        object.__setattr__(self, "_factors_t", FT)
        object.__setattr__(self, "_padded", P)
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
        if self.factors is not None:
            return (self.factors @ self._project(v))[..., 0]
        out = np.empty((self.n_groups, self.m))
        self._bind_each(v, out)()
        return out

    def _bind_each(self, v, out):
        """``K_g v_g`` into ``out[g]`` on dense storage, as a callable that
        takes no argument.

        Its reshapes and views are made here once; each call reads `v` as
        it is then and overwrites `out`, so a loop that rewrites `v` in
        place pays only for the product.
        """
        if v.ndim == 1:
            G, m, _ = self.blocks.shape
            if not out.flags.c_contiguous:
                # its flat reshape would be a copy, and the product lost
                raise ContractViolation("out must be C-contiguous")
            return partial(np.matmul, self.blocks.reshape(G * m, m), v,
                           out=out.reshape(G * m))
        return partial(np.einsum, "gij,gj->gi", self.blocks, v, out=out)

    def image(self, v):
        """Each group's image of its vector, in the solver's coordinates.

        `v` is as for :meth:`apply_each`. The image is ``K_g v_g`` on
        dense storage, a ``(G, m)`` array, and ``X_g' v_g`` on factored
        storage, a ``(G, d_max)`` array whose padding columns are zero.
        :meth:`norms` reads the kernel norms off it, and
        :meth:`from_images` sums the images to ``sum_g K_g v_g``.
        """
        if self.factors is None:
            return self.apply_each(v)
        return self._project(v)[..., 0]

    def from_images(self, images):
        """``sum_g K_g v_g`` from the :meth:`image` of v, as an (m,) array:
        the images summed on dense storage, one product with the
        zero-padded ``(m, G d_max)`` feature matrix on factored storage.
        """
        if self.factors is None:
            return np.add.reduce(images, axis=0)
        return self._padded @ images.reshape(-1)

    def norms(self, v):
        """Each group's kernel norm ``sqrt(v_g' K_g v_g)``, read off the
        :meth:`image` of v as the solver reads its own: the root of
        ``v_g' image_g`` on dense storage and of ``||image_g||^2`` on
        factored storage, clamped at 0 first, as a dense PSD block can
        give a square a few ulp below it.

        Parameters
        ----------
        v : (m,) or (m, G) ndarray
            One vector shared by all groups, or one coefficient column
            per group, as in :class:`DualCoefficients`.

        Returns
        -------
        (G,) ndarray
        """
        if v.ndim == 2:
            v = np.ascontiguousarray(v.T)
        image = self.image(v)
        if self.factors is not None:
            sq = np.einsum("gi,gi->g", image, image)
        else:
            sq = np.einsum("gi,i->g" if v.ndim == 1 else "gi,gi->g", image, v)
        return np.sqrt(np.maximum(sq, 0.0))

    def resolvent(self, weights):
        """``(I + sum_g weights[g] K_g)^-1`` as a callable on (m,) or
        (m, k) arrays, for weights >= 0.

        Dense storage factors the ``(m, m)`` sum; factored storage uses
        Woodbury's identity in the factor space, with ``Z = [sqrt(w_g)
        X_g]``: ``(I + Z Z')^-1 b = b - Z (I + Z'Z)^-1 Z' b``, whose
        ``(G d_max, G d_max)`` system is the only square matrix formed.
        Either one is factored by Cholesky and its triangular factor
        inverted once (see `_lower_inverse`), so a call costs matrix
        products only. OpenBLAS splits Cholesky over threads from 128
        rows on; below that, as on both presets (m = 50 dense, and
        G d_max = 100 factored), the bits do not depend on the thread
        count.

        Raises
        ------
        numpy.linalg.LinAlgError
            If the matrix to factor is not numerically positive definite.
        """
        w = np.asarray(weights, dtype=np.float64)
        if self.factors is None:
            # einsum's own loop, not BLAS, whose threaded products change
            # their low bits with the thread count
            A = np.einsum("g,gij->ij", w, self.blocks)
        else:
            F, FT = self.factors, self._factors_t
            G, _, d = F.shape
            root = np.repeat(np.sqrt(w), d)
            # the (G, G, d, d) blocks X_g' X_h as one (G d, G d) matrix,
            # scaled to Z'Z
            A = (FT[:, None] @ F[None]).transpose(0, 2, 1, 3).reshape(G * d,
                                                                     G * d)
            A *= np.multiply.outer(root, root)
        A.flat[::A.shape[0] + 1] += 1.0
        # rebound to its factor, so the matrix is freed before the inverse
        A = np.linalg.cholesky(A)
        Li = _lower_inverse(A)
        if self.factors is None:
            return lambda b: Li.T @ (Li @ b)

        def solve(b):
            cols = b.reshape(b.shape[0], -1)
            u = root[:, None] * (FT @ cols).reshape(G * d, -1)
            u = (root[:, None] * (Li.T @ (Li @ u))).reshape(G, d, -1)
            return (cols - np.add.reduce(F @ u, axis=0)).reshape(b.shape)
        return solve


def _lower_inverse(L):
    """The inverse of a lower-triangular L, by halves down to 64 rows.

    A block of under 64 rows goes to LAPACK's LU inverse, which OpenBLAS
    runs on one thread below 100 rows; larger ones are joined by matrix
    products, ``[[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]``.
    """
    n = L.shape[0]
    if n < 64:
        return np.linalg.inv(L)
    h = n // 2
    top, bottom = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = top, bottom
    out[h:, :h] = -(bottom @ L[h:, :h]) @ top
    return out


def bind_stack(grams, Y, R, out):
    """A stack's residuals and their images, as a callable on the stack's
    images.

    `grams` holds one GramBlocks per row, all dense or all factored with
    one factor shape; `Y` and `R` are ``(N, m)`` and `out` a
    C-contiguous ``(N, G, w)`` array, w the width of an
    :meth:`GramBlocks.image`. Called on the rows' ``(N, G, w)`` images
    of their coefficients, it writes into ``R[i]`` the residual
    ``grams[i].from_images(images[i]) - Y[i]`` and into ``out[i]`` its
    ``grams[i].image``, each with the bits of the row alone; `Y` is read
    on every call. Dense rows sum their images in one reduction and
    apply their own blocks, in reverse order on every other call, so the
    blocks read last are read first again, while still in cache.
    Factored rows take one matmul over their padded feature matrices and
    one over their transposed factors, which two or more rows stack here
    and a lone row reads from its gram.

    Raises
    ------
    ContractViolation
        If the rows mix storages or factor shapes.
    """
    shapes = {None if g.factors is None else g.factors.shape for g in grams}
    if len(shapes) > 1:
        raise ContractViolation(
            "a bound stack takes rows of one storage and factor shape"
        )
    if None in shapes:
        rows = [g._bind_each(R[i], out[i]) for i, g in enumerate(grams)]

        def step(images):
            np.subtract(np.add.reduce(images, axis=1, out=R), Y, out=R)
            for row in rows:
                row()
            rows.reverse()
        return step

    if len(grams) == 1:
        P, FT = grams[0]._padded[None], grams[0]._factors_t[None]
    else:
        P = np.stack([g._padded for g in grams])
        FT = np.stack([g._factors_t for g in grams])
    flat, r_col, out_col = (len(grams), -1, 1), R[..., None], out[..., None]
    r_mat = R[:, None, :, None]

    def step(images):
        np.matmul(P, images.reshape(flat), out=r_col)
        np.subtract(R, Y, out=R)
        np.matmul(FT, r_mat, out=out_col)
    return step


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
        Positive regularization weight: the λ that multiplies the sum of
        group norms in the objective. A formulation that averages the
        data-fit term over the m samples sets ``lam = λ·m``.
    """

    dataset: Dataset
    gram: GramBlocks
    lam: float

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
        object.__setattr__(self, "lam", lam)

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
        ``lam * sum_g sqrt(a_g' K_g a_g) + 0.5 * ||r||^2``
        where r is the data-fit residual, each kernel norm from
        :meth:`GramBlocks.norms`.
    """
    r = residual(coeffs, problem.gram, problem.dataset.responses)
    norms = problem.gram.norms(coeffs.alpha)
    return float(problem.lam * norms.sum() + 0.5 * (r @ r))

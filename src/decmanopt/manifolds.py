"""Compact matrix submanifolds: Stiefel and generalized (B-)Stiefel.

A :class:`ManifoldSpec` is its ambient shape d-by-r and its constraint
matrix: ``b`` None gives Stiefel, x'x = I, with the Frobenius metric; an SPD
``b`` gives generalized Stiefel, x'Bx = I, with the B-metric
<u, v>_B = tr(u'Bv).  That one metric serves every norm, inner product,
tangent projection and gradient.  Points and tangent vectors are plain
ndarrays; feasibility and tangency are checked through residual helpers
instead of wrapper types.

* Stiefel: the projection is the polar factor u @ v.T of the thin SVD, the
  nearest point in Frobenius norm; the tangent projection is
  u - x sym(x'u).
* generalized Stiefel: the projection is the B-polar map
  y @ (y'By)^(-1/2) = B^(-1/2) polar(B^(1/2) y), the nearest point in the
  B-norm; the tangent projection is u - x sym(x'Bu), orthogonal in the
  B-metric.  x -> B^(1/2) x is an isometry onto Stiefel in that metric, so
  the Stiefel theory, and its proximal-smoothness constant gamma = 0.5,
  carry over unchanged.  The gram y'By is formed as (Cy)'(Cy) from the
  upper Cholesky factor C of B = C'C, made once per manifold; its inverse
  square root is taken by Newton–Schulz steps when it is near I, as it is
  inside the tube, and by ``eigh`` otherwise (see ``numerics``).

The Riemannian gradient of f is the tangent projection of the metric's
gradient: of the Euclidean gradient on Stiefel, of B^(-1) times it on
generalized Stiefel.

Both maps take one d-by-r matrix or an (n, d, r) stack with the agent
index first; a stack is handled by one batched call of the numerics
kernels, whose checks apply to every block.  A failure on a stack raises
an error whose ``block`` attribute is the index of the first offending
agent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, SingularityError
from .numerics import (
    RANK_RTOL,
    inverse_sqrt,
    reject_blocks,
    require_finite,
    sym,
    sym_eig,
    thin_svd,
)

# Constraint residual allowed for a point to count as feasible.
FEAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as b is an array
class ManifoldSpec:
    """Stiefel (``b`` None) or generalized Stiefel (SPD ``b``) d-by-r matrices."""

    # The manifold is 2*gamma-proximally smooth in its metric.  0.5 is the
    # certified Stiefel value, and generalized Stiefel in the B-metric is an
    # isometric copy of Stiefel, so it holds on both.
    gamma = 0.5

    d: int
    r: int
    b: np.ndarray | None = field(default=None, repr=False)
    b_inv: np.ndarray | None = field(default=None, init=False, repr=False)
    # The upper Cholesky factor C of B = C'C.
    chol: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.r <= self.d):
            raise InvalidInputError(f"need 1 <= r <= d, got d={self.d}, r={self.r}")
        if self.b is not None:
            b = np.asarray(self.b, dtype=float)
            if b.shape != (self.d, self.d):
                raise InvalidInputError(f"b must be {self.d}x{self.d}, got {b.shape}")
            w, v = sym_eig(b)
            if w[0] <= RANK_RTOL * w[-1] or w[-1] <= 0:
                raise InvalidInputError("b must be symmetric positive definite")
            object.__setattr__(self, "b", 0.5 * (b + b.T))
            object.__setattr__(self, "b_inv", (v / w) @ v.T)
            object.__setattr__(self, "chol", np.linalg.cholesky(self.b).T)

    def _metric(self, u):
        """The metric operator applied to u: u itself, or B u."""
        return u if self.b is None else self.b @ u

    # -- feasibility -------------------------------------------------------

    def gram(self, x):
        """x'x (Stiefel) or (Cx)'(Cx) = x'Bx (generalized Stiefel)."""
        cx = x if self.b is None else self.chol @ x
        return cx.mT @ cx

    def feasibility_residual(self, x):
        """Frobenius distance of the constraint Gram matrix from the identity."""
        return np.linalg.norm(self.gram(x) - np.eye(self.r), axis=(-2, -1))

    # -- metric ------------------------------------------------------------

    def inner(self, u, v):
        """<u, v> summed over every entry (and every block of a stack):
        sum(u * v) on Stiefel, tr(u'Bv) on generalized Stiefel."""
        return float(np.sum(u * self._metric(v)))

    def norm(self, u):
        """The metric norm of a matrix, or of each block of a stack."""
        return np.sqrt(np.sum(u * self._metric(u), axis=(-2, -1)))

    # -- projections -------------------------------------------------------

    def project(self, y):
        """Map a full-column-rank ambient matrix, or each block of an
        (n, d, r) stack, onto the manifold.

        Raises :class:`SingularityError` when a target is (numerically) rank
        deficient; it then lies outside the tube where the projection is
        single valued.
        """
        if self.b is None:
            u, s, v = thin_svd(y)
            reject_blocks(SingularityError, s[..., -1] <= RANK_RTOL * s[..., 0],
                          "projection target is rank deficient")
            return u @ v.mT
        # No sym and no symmetry check: numpy forms (Cy)'(Cy) as a symmetric
        # rank-k update and mirrors its triangle (without BLAS, G_ij and G_ji
        # add the same products in the same order), so the gram is exactly
        # symmetric, as inverse_sqrt requires.
        return y @ inverse_sqrt(self.gram(y))

    def tangent_project(self, x, u):
        """Metric-orthogonal projection of u onto the tangent space at x, or
        blockwise for stacks x and u."""
        return u - x @ sym(x.mT @ (u if self.b is None else self.b @ u))

    # The iteration loop calls the maps on agent stacks by these names, which
    # keeps their time apart from the single-matrix calls in per-layer traces.
    project_stack = project
    tangent_project_stack = tangent_project

    def riemannian_gradient(self, x, egrad):
        """The Riemannian gradient at x (or at each block of a stack) of a
        function with Euclidean gradient ``egrad``, which must be finite."""
        egrad = require_finite(egrad)
        u = egrad if self.b is None else self.b_inv @ egrad
        # tangent_project(x, u), with x'B(B^(-1) egrad) = x'egrad.
        return u - x @ sym(x.mT @ egrad)

    # -- sampling ----------------------------------------------------------

    def random_point(self, rng):
        return self.project(rng.standard_normal((self.d, self.r)))

    def random_tangent(self, x, rng, norm):
        """A random tangent vector at x, rescaled to the given metric norm."""
        v = self.tangent_project(x, rng.standard_normal((self.d, self.r)))
        nv = self.norm(v)
        return v * (norm / nv) if nv > 0 else v


def stiefel(d, r):
    """The Stiefel manifold St(d, r) = {x : x'x = I_r}."""
    return ManifoldSpec(d, r)


def generalized_stiefel(d, r, b):
    """The generalized Stiefel manifold {x : x'Bx = I_r} for SPD B, with the
    B-metric."""
    return ManifoldSpec(d, r, np.asarray(b, dtype=float))


@dataclass
class ProjectionProbeReport:
    """Empirical ratios from random perturbation trials of the projection."""

    max_ratio_lip: float
    max_ratio_quad: float
    trials: int


def check_projection_lipschitz(spec, trials, noise_scale=None, seed=0):
    """Probe the two projection inequalities with random perturbations.

    Samples a feasible x and ambient perturbations u, u' with metric norms
    drawn uniformly from [s/2, s], s = ``noise_scale`` (default: spec.gamma,
    the largest radius for which the 2-Lipschitz bound is claimed), and
    records, in the metric,

    * max ||P(x+u) - P(x+u')|| / ||u - u'||   (Lipschitz ratio), and
    * max ||P(x+u) - x - P_T(u)|| / ||u||^2   (quadratic ratio).

    Keeping ||u|| >= s/2 keeps the quadratic ratio above the roundoff of x's
    own feasibility at small s.  Every sample is projectable: Cx has
    orthonormal columns (C = I on Stiefel, B = C'C otherwise) and
    ||Cu||_2 <= ||u|| <= s <= gamma = 1/2, so every singular value of C(x+u)
    is at least 1/2.
    """
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    if noise_scale is None:
        noise_scale = spec.gamma
    if not 0.0 < noise_scale <= spec.gamma:
        raise InvalidInputError("noise_scale must lie in (0, gamma]")
    rng = np.random.default_rng(seed)
    max_lip = 0.0
    max_quad = 0.0
    for _ in range(trials):
        x = spec.random_point(rng)
        u = rng.standard_normal((spec.d, spec.r))
        up = rng.standard_normal((spec.d, spec.r))
        u *= rng.uniform(0.5 * noise_scale, noise_scale) / max(spec.norm(u), 1e-300)
        up *= rng.uniform(0.5 * noise_scale, noise_scale) / max(spec.norm(up), 1e-300)
        pu = spec.project(x + u)
        pup = spec.project(x + up)
        du = spec.norm(u - up)
        if du > 1e-12:
            max_lip = max(max_lip, spec.norm(pu - pup) / du)
        nu = spec.norm(u)
        if nu > 1e-12:
            quad = spec.norm(pu - x - spec.tangent_project(x, u)) / nu**2
            max_quad = max(max_quad, quad)
    return ProjectionProbeReport(max_lip, max_quad, trials)

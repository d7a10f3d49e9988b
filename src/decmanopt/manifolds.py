"""Compact matrix submanifolds: Stiefel and generalized (B-)Stiefel.

A :class:`ManifoldSpec` is its ambient shape d-by-r and, on generalized
Stiefel {x : x'Bx = I_r}, the upper Cholesky factor C of the SPD B = C'C.
Points and tangent vectors are plain ndarrays; feasibility and tangency
are checked through residual helpers instead of wrapper types.

Generalized Stiefel is worked in whitened coordinates z = Cx: x'Bx = z'z,
and the B-metric tr(u'Bv) is the Frobenius metric of Cu and Cv, so
x -> Cx is an isometry onto Stiefel.  The Stiefel theory, with its
proximal-smoothness constant gamma = 0.5, carries over, and every map
takes its Stiefel form: the Frobenius metric, the tangent projection
u - x sym(x'u), and the Riemannian gradient as the tangent projection of
the Euclidean one.  A GEVP problem whitens its own data, so its points,
a run's final stack too, are z = Cx; ``metrics`` maps them back by C^(-1)
only for the distance to a ground truth.  Random draws are Gaussian
matrices mapped by C: ambient draws seen in whitened coordinates.

The projection is the polar factor, the nearest point in Frobenius norm:
u @ v.T of the thin SVD without C, and y @ (y'y)^(-1/2) with C, whose
inverse square root is taken by Newton–Schulz steps when y'y is near I,
as inside the tube, and by ``eigh`` otherwise (see ``numerics``).

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
    SYM_RTOL,
    inverse_sqrt,
    reject_blocks,
    require_finite,
    sym,
    thin_svd,
)

# Constraint residual allowed for a point to count as feasible.
FEAS_TOL = 1e-8


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as chol is an array
class ManifoldSpec:
    """Stiefel (``chol`` None) or whitened generalized Stiefel d-by-r
    matrices, with ``chol`` the upper Cholesky factor C of B = C'C, as
    :func:`generalized_stiefel` makes it from a checked B."""

    # The manifold is 2*gamma-proximally smooth.  0.5 is the certified
    # Stiefel value, and whitened generalized Stiefel is Stiefel.
    gamma = 0.5

    d: int
    r: int
    chol: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if not (1 <= self.r <= self.d):
            raise InvalidInputError(f"need 1 <= r <= d, got d={self.d}, r={self.r}")

    # -- feasibility -------------------------------------------------------

    def gram(self, x):
        """x'x, of a matrix or of each block of a stack."""
        return x.mT @ x

    def feasibility_residual(self, x):
        """Frobenius distance of the constraint Gram matrix from the identity."""
        return np.linalg.norm(self.gram(x) - np.eye(self.r), axis=(-2, -1))

    # -- metric ------------------------------------------------------------

    def inner(self, u, v):
        """sum(u * v) over every entry (and every block of a stack)."""
        return float(np.sum(u * v))

    def norm(self, u):
        """The Frobenius norm of a matrix, or of each block of a stack."""
        return np.sqrt(np.sum(u * u, axis=(-2, -1)))

    # -- projections -------------------------------------------------------

    def project(self, y):
        """Map a full-column-rank ambient matrix, or each block of an
        (n, d, r) stack, onto the manifold.

        Raises :class:`SingularityError` when a target is (numerically) rank
        deficient; it then lies outside the tube where the projection is
        single valued.
        """
        # One formula would serve both manifolds; the Stiefel bits are
        # pinned by the LRMC golden runs and the benchmark's sweep
        # reference, so the SVD stays until ROADMAP item 4.
        if self.chol is None:
            u, s, v = thin_svd(y)
            reject_blocks(SingularityError, s[..., -1] <= RANK_RTOL * s[..., 0],
                          "projection target is rank deficient")
            return u @ v.mT
        # No sym and no symmetry check: numpy forms y'y as a symmetric
        # rank-k update and mirrors its triangle (without BLAS, G_ij and G_ji
        # add the same products in the same order), so the gram is exactly
        # symmetric, as inverse_sqrt requires.
        return y @ inverse_sqrt(self.gram(y))

    def tangent_project(self, x, u):
        """Orthogonal projection of u onto the tangent space at x, or
        blockwise for stacks x and u."""
        return u - x @ sym(x.mT @ u)

    # The iteration loop calls the maps on agent stacks by these names, which
    # keeps their time apart from the single-matrix calls in per-layer traces.
    project_stack = project
    tangent_project_stack = tangent_project

    def riemannian_gradient(self, x, egrad):
        """The Riemannian gradient at x (or at each block of a stack) of a
        function with Euclidean gradient ``egrad``, which must be finite."""
        egrad = require_finite(egrad)
        return egrad - x @ sym(x.mT @ egrad)

    # -- sampling ----------------------------------------------------------

    def _draw(self, rng):
        """A Gaussian d-by-r draw, mapped by C on generalized Stiefel."""
        g = rng.standard_normal((self.d, self.r))
        return g if self.chol is None else self.chol @ g

    def random_point(self, rng):
        return self.project(self._draw(rng))

    def random_tangent(self, x, rng, norm):
        """A random tangent vector at x, rescaled to the given norm."""
        v = self.tangent_project(x, self._draw(rng))
        nv = self.norm(v)
        return v * (norm / nv) if nv > 0 else v


def stiefel(d, r):
    """The Stiefel manifold St(d, r) = {x : x'x = I_r}."""
    return ManifoldSpec(d, r)


def generalized_stiefel(d, r, b):
    """The generalized Stiefel manifold {x : x'Bx = I_r}, in the whitened
    coordinates z = Cx of B = C'C.  B must be finite, symmetric within
    ``SYM_RTOL`` (relative, Frobenius) and positive definite within
    ``RANK_RTOL``; its symmetric part is factored."""
    b = np.asarray(b, dtype=float)
    if b.shape != (d, d):
        raise InvalidInputError(f"b must be {d}x{d}, got {b.shape}")
    b = require_finite(b)
    asym = b - b.T
    if np.sum(asym * asym) > SYM_RTOL**2 * np.sum(b * b):
        raise InvalidInputError("matrix is not symmetric within tolerance")
    b = sym(b)
    w = np.linalg.eigvalsh(b)
    if w[0] <= RANK_RTOL * w[-1] or w[-1] <= 0:
        raise InvalidInputError("b must be symmetric positive definite")
    return ManifoldSpec(d, r, chol=np.linalg.cholesky(b).T)


@dataclass
class ProjectionProbeReport:
    """Empirical ratios from random perturbation trials of the projection."""

    max_ratio_lip: float
    max_ratio_quad: float
    trials: int


def check_projection_lipschitz(spec, trials, noise_scale=None, seed=0):
    """Probe the two projection inequalities with random perturbations.

    Samples a feasible x and perturbations u, u' (draws of the spec, so
    Gaussian in ambient coordinates) with norms drawn uniformly from
    [s/2, s], s = ``noise_scale`` (default: spec.gamma, the largest radius
    for which the 2-Lipschitz bound is claimed), and records

    * max ||P(x+u) - P(x+u')|| / ||u - u'||   (Lipschitz ratio), and
    * max ||P(x+u) - x - P_T(u)|| / ||u||^2   (quadratic ratio).

    Keeping ||u|| >= s/2 keeps the quadratic ratio above the roundoff of x's
    own feasibility at small s.  Every sample is projectable: x has
    orthonormal columns and ||u||_2 <= ||u|| <= s <= gamma = 1/2, so every
    singular value of x + u is at least 1/2.
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
        u = spec._draw(rng)
        up = spec._draw(rng)
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

"""Compact matrix submanifolds: Stiefel and generalized (B-)Stiefel.

A :class:`ManifoldSpec` bundles the constraint (x'x = I or x'Bx = I), the
ambient shape, and the proximal-smoothness radius parameter ``gamma`` used
by the consensus theory.  Points and tangent vectors are plain ndarrays;
feasibility and tangency are checked through residual helpers instead of
wrapper types.

Projections:

* Stiefel: the polar factor u @ v.T of the thin SVD, which is the exact
  nearest point in Frobenius norm.
* generalized Stiefel: the B-polar map y @ (y'By)^(-1/2).  This is a
  retraction-style projection, not the Euclidean nearest point; it is the
  standard choice for B-orthonormality constraints and is documented as
  such wherever it matters.

The tangent projection always uses the Euclidean metric.  On the
generalized Stiefel manifold that requires solving the small symmetric
equation M S + S M = 2 sym(x'Bu) with M = x'B^2x, handled by
:func:`decmanopt.numerics.lyapunov_solve`.

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
    lyapunov_solve,
    reject_blocks,
    spd_inverse_sqrt,
    sym,
    sym_eig,
    thin_svd,
)

STIEFEL = "stiefel"
GENERALIZED_STIEFEL = "generalized_stiefel"

# Constraint residual allowed for a point to count as feasible.
FEAS_TOL = 1e-8


@dataclass(frozen=True)
class ManifoldSpec:
    """A Stiefel or generalized Stiefel manifold of d-by-r matrices.

    ``gamma`` parameterizes the proximal-smoothness radius (the manifold is
    treated as 2*gamma-proximally smooth).  For the Stiefel manifold the
    certified value is gamma = 0.5; for the generalized Stiefel manifold it
    is a configuration input with no correctness claim.
    """

    kind: str
    d: int
    r: int
    b: np.ndarray | None = field(default=None, repr=False)
    gamma: float = 0.5

    def __post_init__(self):
        if self.kind not in (STIEFEL, GENERALIZED_STIEFEL):
            raise InvalidInputError(f"unknown manifold kind {self.kind!r}")
        if not (1 <= self.r <= self.d):
            raise InvalidInputError(f"need 1 <= r <= d, got d={self.d}, r={self.r}")
        if self.gamma <= 0:
            raise InvalidInputError("gamma must be positive")
        if self.kind == GENERALIZED_STIEFEL:
            if self.b is None:
                raise InvalidInputError("generalized Stiefel requires the SPD matrix b")
            b = np.asarray(self.b, dtype=float)
            if b.shape != (self.d, self.d):
                raise InvalidInputError(f"b must be {self.d}x{self.d}, got {b.shape}")
            w, _ = sym_eig(b)
            if w[0] <= RANK_RTOL * w[-1] or w[-1] <= 0:
                raise InvalidInputError("b must be symmetric positive definite")
            object.__setattr__(self, "b", 0.5 * (b + b.T))
        elif self.b is not None:
            raise InvalidInputError("b is only meaningful for the generalized Stiefel manifold")

    # -- feasibility -------------------------------------------------------

    def gram(self, x):
        """x'x (Stiefel) or x'Bx (generalized Stiefel)."""
        if self.kind == STIEFEL:
            return np.swapaxes(x, -1, -2) @ x
        return np.swapaxes(x, -1, -2) @ (self.b @ x)

    def feasibility_residual(self, x):
        """Frobenius distance of the constraint Gram matrix from the identity."""
        return np.linalg.norm(self.gram(x) - np.eye(self.r), axis=(-2, -1))

    def is_feasible(self, x, tol=FEAS_TOL):
        return bool(np.all(self.feasibility_residual(x) <= tol))

    # -- projections -------------------------------------------------------

    def project(self, y):
        """Map a full-column-rank ambient matrix, or each block of an
        (n, d, r) stack, onto the manifold.

        Raises :class:`SingularityError` when a target is (numerically) rank
        deficient; it then lies outside the tube where the projection is
        single valued.
        """
        if self.kind == STIEFEL:
            u, s, v = thin_svd(y)
            reject_blocks(SingularityError, s[..., -1] <= RANK_RTOL * s[..., 0],
                          "projection target is rank deficient")
            return u @ np.swapaxes(v, -1, -2)
        return y @ spd_inverse_sqrt(self.gram(y))

    def tangent_project(self, x, u):
        """Euclidean-orthogonal projection of u onto the tangent space at x,
        or blockwise for stacks x and u."""
        xt = np.swapaxes(x, -1, -2)
        if self.kind == STIEFEL:
            return u - x @ sym(xt @ u)
        bx = self.b @ x
        s = lyapunov_solve(np.swapaxes(bx, -1, -2) @ bx, sym(xt @ (self.b @ u)))
        return u - bx @ s

    # The iteration loop calls the maps on agent stacks by these names, which
    # keeps their time apart from the single-matrix calls in per-layer traces.
    project_stack = project
    tangent_project_stack = tangent_project

    # -- sampling ----------------------------------------------------------

    def random_point(self, rng):
        return self.project(rng.standard_normal((self.d, self.r)))

    def random_tangent(self, x, rng, norm=None):
        """A random tangent vector at x, optionally rescaled to a given norm."""
        v = self.tangent_project(x, rng.standard_normal((self.d, self.r)))
        if norm is not None:
            nv = np.linalg.norm(v)
            if nv > 0:
                v = v * (norm / nv)
        return v


def stiefel(d, r, gamma=0.5):
    """The Stiefel manifold St(d, r) = {x : x'x = I_r}."""
    return ManifoldSpec(STIEFEL, d, r, gamma=gamma)


def generalized_stiefel(d, r, b, gamma=None):
    """The generalized Stiefel manifold {x : x'Bx = I_r} for SPD B.

    Without an explicit gamma, defaults to 0.5 / lambda_max(B), scaling the
    Stiefel value by the constraint matrix; no proximal-smoothness radius is
    certified for this manifold.
    """
    if gamma is None:
        w, _ = sym_eig(np.asarray(b, dtype=float))
        gamma = 0.5 / w[-1]
    return ManifoldSpec(GENERALIZED_STIEFEL, d, r, b=np.asarray(b, dtype=float), gamma=gamma)


@dataclass
class ProjectionProbeReport:
    """Empirical ratios from random perturbation trials of the projection."""

    max_ratio_lip: float
    max_ratio_quad: float
    trials: int
    skipped: int


def check_projection_lipschitz(spec, trials, noise_scale=None, seed=0):
    """Probe the two projection inequalities with random perturbations.

    Samples a feasible x and ambient perturbations u, u' with norms at most
    ``noise_scale`` (default: spec.gamma, the largest radius for which the
    2-Lipschitz bound is claimed), and records

    * max ||P(x+u) - P(x+u')|| / ||u - u'||   (Lipschitz ratio), and
    * max ||P(x+u) - x - P_T(u)|| / ||u||^2   (quadratic ratio).

    Samples where the projection is undefined are skipped and counted.
    """
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    if noise_scale is None:
        noise_scale = spec.gamma
    if noise_scale > spec.gamma:
        raise InvalidInputError("noise_scale must not exceed gamma")
    rng = np.random.default_rng(seed)
    max_lip = 0.0
    max_quad = 0.0
    skipped = 0
    for _ in range(trials):
        try:
            x = spec.random_point(rng)
            u = rng.standard_normal((spec.d, spec.r))
            up = rng.standard_normal((spec.d, spec.r))
            u *= rng.uniform(0.0, noise_scale) / max(np.linalg.norm(u), 1e-300)
            up *= rng.uniform(0.0, noise_scale) / max(np.linalg.norm(up), 1e-300)
            pu = spec.project(x + u)
            pup = spec.project(x + up)
        except SingularityError:
            skipped += 1
            continue
        du = np.linalg.norm(u - up)
        if du > 1e-12:
            max_lip = max(max_lip, np.linalg.norm(pu - pup) / du)
        nu = np.linalg.norm(u)
        if nu > 1e-12:
            quad = np.linalg.norm(pu - x - spec.tangent_project(x, u)) / nu**2
            max_quad = max(max_quad, quad)
    return ProjectionProbeReport(max_lip, max_quad, trials, skipped)

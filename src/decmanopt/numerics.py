"""Dense linear-algebra kernels used by every other module.

Thin wrappers around LAPACK (via numpy) that pin down conventions and
tolerances: thin SVD, symmetric eigendecomposition and SPD inverse square
root.  All functions are pure and deterministic: identical input bits give
identical output bits.

Every kernel takes one matrix or a stack of them with the block index
first, shape (n, p, q) for :func:`thin_svd` and (n, r, r) for the others.
A stack goes through batched calls, and each of its blocks gets the same
bits as a call on that block alone.  An error raised for a stack names the
first failing block in its message and in its ``block`` attribute.

:func:`thin_svd` and :func:`sym_eig` reject NaN or Inf anywhere in their
input, and :func:`sym_eig`, which checks external matrices such as a
B-Stiefel ``b``, rejects asymmetry beyond ``SYM_RTOL`` in any block.
:func:`inverse_sqrt` takes an exactly symmetric matrix, such as a gram
a'a, whose one triangle numpy mirrors into the other.  A block s with
||s - I||_F <= ``NEAR_IDENTITY`` gets at most three Newton–Schulz steps
(batched matmuls, quadratically convergent from I); its eigenvalues lie
within ``NEAR_IDENTITY`` of 1, so it is positive definite, and a
non-finite block is never near.  Every other block goes through ``eigh``
and must be finite and positive definite (``RANK_RTOL``).
"""

import functools

import numpy as np

from .errors import InvalidInputError, NonFiniteError, SingularityError

# Relative eigenvalue threshold below which a matrix is treated as rank
# deficient / not positive definite.
RANK_RTOL = 1e-12

# Relative asymmetry tolerated by sym_eig before rejecting the input.
SYM_RTOL = 1e-8

_EPS = np.finfo(float).eps

# Frobenius distance from I within which a block's inverse square root is
# taken by Newton–Schulz steps instead of eigh.  Such a block needs at most
# two steps after the first (q <= 2^-14 and q^4 < eps, in _newton_schulz's
# terms), and with two the steps still beat eigh on every stack measured,
# from one 5x5 block to (16, 20, 20).
NEAR_IDENTITY = 2.0**-7


def sym(a):
    """The symmetric part of a matrix or of every block of a stack."""
    return 0.5 * (a + a.mT)


def reject_blocks(error, bad, message):
    """Raise ``error`` if ``bad`` is set anywhere.

    ``bad`` is a boolean for one matrix, or one boolean per block for a
    stack; then the error names the first failing block and carries its
    index as ``block``.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    if bad.ndim == 0:
        raise error(message)
    block = int(np.flatnonzero(bad)[0])
    err = error(f"block {block}: {message}")
    err.block = block
    raise err


def require_finite(m):
    """``m`` as a float array; rejects NaN or Inf, naming the first bad
    block of a stack."""
    m = np.asarray(m, dtype=float)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        bad = ~np.isfinite(m).all(axis=(-2, -1)) if m.ndim == 3 else True
        reject_blocks(NonFiniteError, bad, "matrix contains NaN or Inf")
    return m


def thin_svd(m):
    """Thin singular value decomposition of a p-by-q matrix, p >= q, or of
    an (n, p, q) stack of them.

    Returns (u, s, v) with u of shape (..., p, q), s the q singular values
    in descending order, and v of shape (..., q, q), such that
    u @ diag(s) @ v.T reconstructs the input.
    """
    m = require_finite(m)
    if m.ndim not in (2, 3) or m.shape[-2] < m.shape[-1]:
        raise InvalidInputError(f"thin_svd expects p >= q, got shape {m.shape}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u, s, vt.mT


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix or of each block of a stack.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvector
    columns v.  The input is symmetrized internally; asymmetry beyond
    ``SYM_RTOL`` relative to a block's norm is rejected.
    """
    m = require_finite(m)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise InvalidInputError(f"sym_eig expects square matrices, got shape {m.shape}")
    # Squared Frobenius norms per block: ||m - m'||^2 > SYM_RTOL^2 ||m||^2.
    d = m - m.mT
    asym_sq = np.einsum("...ij,...ij->...", d, d)
    scale_sq = np.einsum("...ij,...ij->...", m, m)
    reject_blocks(InvalidInputError, asym_sq > SYM_RTOL**2 * scale_sq,
                  "matrix is not symmetric within tolerance")
    return np.linalg.eigh(sym(m))


@functools.lru_cache(maxsize=16)
def _identity(shape):
    """The identity in every block of an array of this shape, read-only; a
    full stack, as subtracting equal shapes takes half the broadcast time."""
    eye = np.broadcast_to(np.eye(shape[-1]), shape).copy()
    eye.flags.writeable = False
    return eye


def inverse_sqrt(s):
    """Inverse square root R of an exactly symmetric SPD matrix s, such as
    a gram ``a.mT @ a``, satisfying R @ s @ R = I, or of each block of a
    stack.  The symmetry is not checked."""
    eye = _identity(s.shape)
    e = s - eye
    flat = e.reshape(*e.shape[:-2], -1)
    q = np.vecdot(flat, flat)  # ||s - I||_F^2 per block
    z = eye - 0.5 * e  # the first Newton–Schulz step, (3I - s)/2
    # NaN fails the comparisons, so a non-finite block is never near.
    q_max = np.maximum.reduce(q, axis=None)
    if q_max <= _EPS:  # no further step, as for a gram inside the tube
        return z
    if q_max <= NEAR_IDENTITY**2:
        return _newton_schulz(s, z, q)
    # For a single matrix the masks are 0-d, and s[mask] is a stack of one.
    near = q <= NEAR_IDENTITY**2
    far = ~near
    out = np.empty_like(s)
    bad = np.zeros(far.shape, dtype=bool)
    sf = s[far]
    bad[far] = ~np.isfinite(sf).all(axis=(-2, -1))
    reject_blocks(NonFiniteError, bad, "matrix contains NaN or Inf")
    w, v = np.linalg.eigh(sf)
    bad[far] = (w[..., -1] <= 0) | (w[..., 0] <= RANK_RTOL * w[..., -1])
    reject_blocks(SingularityError, bad, "matrix is not positive definite within tolerance")
    out[far] = (v / np.sqrt(w)[..., None, :]) @ v.mT
    if near.any():
        out[near] = _newton_schulz(s[near], z[near], q[near])
    return out


def _newton_schulz(s, z, q):
    """Inverse square roots of symmetric blocks s within ||s - I||_F^2 = q
    <= NEAR_IDENTITY^2 of I, to rounding, from z = (3I - s)/2.

    z_1 = (3I - s)/2 is the step from z_0 = I, and each further step is
    z <- z (3I - s z^2)/2.  An eigenvalue's residual d = 1 - lambda z^2
    obeys d' = d^2 (3 + d)/4, so |d| <= q after z_1 and each step squares
    that bound; a block steps while its own bound exceeds machine epsilon,
    at most twice.
    """
    three = 3.0 * _identity(s.shape)
    steps = (q > _EPS).astype(np.intp) + (q > _EPS**0.5)
    every = int(steps.min())
    for k in range(int(steps.max())):
        step = z @ (three - s @ z @ z) * 0.5
        z = step if k < every else np.where(steps[..., None, None] > k, step, z)
    return z

"""Dense linear-algebra kernels used by every other module.

Thin wrappers around LAPACK (via numpy) that pin down conventions and
tolerances: thin SVD, symmetric eigendecomposition and SPD inverse square
root.  All functions are pure and deterministic: identical input bits give
identical output bits.

Every kernel takes one matrix or a stack of them with the block index
first, shape (n, p, q) for :func:`thin_svd` and (n, r, r) for the others.
A stack goes through one batched LAPACK call, and each of its blocks gets
the same bits as a call on that block alone.  The finite check runs once
over the whole input; the symmetry check (``SYM_RTOL``) and the
positive-definiteness check (``RANK_RTOL``) run on every block.  An error
raised for a stack names the first failing block in its message and in
its ``block`` attribute.
"""

import numpy as np

from .errors import InvalidInputError, NonFiniteError, SingularityError

# Relative eigenvalue threshold below which a matrix is treated as rank
# deficient / not positive definite.
RANK_RTOL = 1e-12

# Relative asymmetry tolerated by sym_eig before rejecting the input.
SYM_RTOL = 1e-8


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
    if not np.isfinite(m).all():
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


def spd_inverse_sqrt(m):
    """Inverse square root R of an SPD matrix, satisfying R @ m @ R = I,
    or of each block of a stack."""
    w, v = sym_eig(m)
    reject_blocks(SingularityError, (w[..., -1] <= 0) | (w[..., 0] <= RANK_RTOL * w[..., -1]),
                  "matrix is not positive definite within tolerance")
    return (v / np.sqrt(w)[..., None, :]) @ v.mT


"""Communication graphs and gossip mixing.

Provides ring / complete / Erdos-Renyi topologies as adjacency matrices,
Metropolis constant edge weights (symmetric, doubly stochastic, positive
diagonal), the second-largest singular value sigma2 that governs gossip
contraction, and the t-step mixing map applied to stacked agent states.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .numerics import thin_svd

RING = "ring"
COMPLETE = "complete"
ERDOS_RENYI = "er"


def _components(adj):
    """Each vertex's connected component, labelled by its smallest vertex."""
    rows, cols = np.nonzero(adj)  # row-major: v's neighbours are cols[at[v]:at[v + 1]]
    at, cols = np.searchsorted(rows, np.arange(len(adj) + 1)).tolist(), cols.tolist()
    label = [-1] * len(adj)
    for root in range(len(adj)):
        stack = [root] if label[root] < 0 else []
        while stack:
            v = stack.pop()
            if label[v] < 0:
                label[v] = root
                stack.extend(cols[at[v]:at[v + 1]])
    return label


def build_graph(topology, n, seed=0, p=None):
    """A ring, complete, or Erdos-Renyi graph as its adjacency matrix.

    The graph is a symmetric boolean (n, n) array with a zero diagonal.
    Erdos-Renyi includes each pair independently with probability p using
    the seeded generator; if the sample is disconnected, ring edges
    (i, i+1 mod n) are added in order until it is connected.  Repairing
    instead of rejecting keeps edge counts reproducible for a given seed.
    """
    if n < 2:
        raise InvalidInputError("need at least 2 agents")
    if topology == COMPLETE:
        return ~np.eye(n, dtype=bool)
    adj = np.zeros((n, n), dtype=bool)
    nxt = np.roll(np.arange(n), -1)  # i + 1 mod n
    if topology == RING:
        adj[np.arange(n), nxt] = adj[nxt, np.arange(n)] = True
        return adj
    if topology == ERDOS_RENYI:
        if p is None or not (0.0 < p <= 1.0):
            raise InvalidInputError("Erdos-Renyi requires p in (0, 1]")
        rows, cols = np.triu_indices(n, 1)  # pairs (i, j), i < j, row by row
        keep = np.random.default_rng(seed).uniform(size=rows.size) < p
        adj[rows[keep], cols[keep]] = adj[cols[keep], rows[keep]] = True
        # Ring edges (i, i+1), i < k, join every component labelled k or less.
        k = np.arange(max(_components(adj)))
        adj[k, k + 1] = adj[k + 1, k] = True
        return adj
    raise InvalidInputError(f"unknown topology {topology!r}")


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as w is an array
class MixingMatrix:
    """Symmetric doubly stochastic gossip weights w.

    Invariants checked at construction: symmetry, rows summing to one,
    nonnegative entries and a strictly positive diagonal, which together
    put every eigenvalue in (-1, 1].  ``n`` and ``sigma2``, the
    second-largest singular value of w (0 for a single agent), are derived
    from w.
    """

    w: np.ndarray = field(repr=False)
    n: int = field(init=False)
    sigma2: float = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInputError(f"weight matrix must be square, got shape {w.shape}")
        if np.linalg.norm(w - w.T) > 1e-12 * max(1.0, np.linalg.norm(w)):
            raise InvalidInputError("weight matrix must be symmetric")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidInputError("rows must sum to one")
        if np.min(w) < 0:
            raise InvalidInputError("weights must be nonnegative")
        if np.min(np.diag(w)) <= 0:
            raise InvalidInputError("diagonal must be strictly positive")
        _, s, _ = thin_svd(w)
        object.__setattr__(self, "n", w.shape[0])
        object.__setattr__(self, "sigma2", float(s[1]) if len(s) > 1 else 0.0)

    def contraction_rate(self, t):
        """The linear consensus rate bound 2 sigma2^t for t gossip rounds."""
        return 2.0 * self.sigma2**t


def metropolis_weights(adj):
    """Metropolis constant edge weights for a connected graph.

    ``adj`` is the adjacency matrix: square, n >= 2, symmetric, without
    self loops and connected.  W_ij = 1 / (1 + max(deg_i, deg_j)) on edges,
    rows filled to one on the diagonal.
    """
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 2:
        raise InvalidInputError(f"adjacency must be square with n >= 2, got shape {adj.shape}")
    if np.any(adj != adj.T) or np.any(adj.diagonal()):
        raise InvalidInputError("adjacency must be symmetric, without self loops")
    if max(_components(adj)) > 0:
        raise InvalidInputError("graph is not connected")
    deg = adj.sum(axis=1)
    w = np.where(adj, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix(w)


def mix(m, xs, steps):
    """Apply t gossip rounds to stacked states: y_i = sum_j (W^t)_ij x_j.

    ``xs`` has the agent index first, shape (n, ...).  Each of the t = ``steps``
    rounds is one GEMM, W @ X, on the stack flattened to X of shape (n, -1);
    W^t is never formed densely.  Linear, and average preserving up to roundoff.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.shape[0] != m.n:
        raise InvalidInputError(f"expected {m.n} blocks, got {xs.shape[0]}")
    for _ in range(steps):
        xs = (m.w @ xs.reshape(m.n, -1)).reshape(xs.shape)
    return xs


def consensus_radius_t(m, gamma, zeta, n):
    """Smallest t for which the linear consensus theory applies.

    Returns the minimal integer t with sigma2^t strictly below both 1/2 and
    gamma / (24 sqrt(n) zeta), found by direct scan.  ``zeta`` is a bound on
    the manifold diameter.  For sigma2 = 0 a single round suffices.
    """
    if n != m.n:
        raise InvalidInputError(f"n={n} disagrees with the mixing matrix's {m.n} agents")
    if gamma <= 0 or zeta <= 0:
        raise InvalidInputError("gamma and zeta must be positive")
    if not (0.0 <= m.sigma2 < 1.0):
        raise InvalidInputError("sigma2 must lie in [0, 1)")
    if m.sigma2 == 0.0:
        return 1
    bound = min(0.5, gamma / (24.0 * np.sqrt(n) * zeta))
    t = 1
    while m.sigma2**t >= bound:
        t += 1
    return t

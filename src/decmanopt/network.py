"""Communication graphs and gossip mixing.

Provides ring / complete / Erdos-Renyi topologies, Metropolis constant
edge weights (symmetric, doubly stochastic, positive diagonal), the
second-largest singular value sigma2 that governs gossip contraction, and
the t-step mixing map applied to stacked agent states.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .numerics import thin_svd

RING = "ring"
COMPLETE = "complete"
ERDOS_RENYI = "er"


def _normalize_edge(i, j):
    if i == j:
        raise InvalidInputError("self loops are not allowed")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Undirected connected agent network on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError("need at least 2 agents")
        edges = frozenset(_normalize_edge(i, j) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidInputError(f"edge ({i}, {j}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)
        if not _connected(self.n, edges):
            raise InvalidInputError("graph is not connected")

    def degrees(self):
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == n


def build_graph(topology, n, seed=0, p=None):
    """Construct a ring, complete, or Erdos-Renyi graph, deterministically.

    Erdos-Renyi includes each pair independently with probability p using
    the seeded generator; if the sample is disconnected, ring edges
    (i, i+1 mod n) are added in order until it is connected.  Repairing
    instead of rejecting keeps edge counts reproducible for a given seed.
    """
    if n < 2:
        raise InvalidInputError("need at least 2 agents")
    ring_edges = [_normalize_edge(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    if topology == RING:
        return Graph(n, frozenset(ring_edges))
    if topology == COMPLETE:
        return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))
    if topology == ERDOS_RENYI:
        if p is None or not (0.0 < p <= 1.0):
            raise InvalidInputError("Erdos-Renyi requires p in (0, 1]")
        rows, cols = np.triu_indices(n, 1)  # pairs (i, j), i < j, row by row
        keep = np.random.default_rng(seed).uniform(size=rows.size) < p
        edges = set(zip(rows[keep].tolist(), cols[keep].tolist()))
        for e in ring_edges:
            if _connected(n, edges):
                break
            edges.add(e)
        return Graph(n, frozenset(edges))
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


def metropolis_weights(g):
    """Metropolis constant edge weights for a connected graph.

    W_ij = 1 / (1 + max(deg_i, deg_j)) on edges, rows filled to one on the
    diagonal.
    """
    deg = g.degrees()
    w = np.zeros((g.n, g.n))
    for i, j in sorted(g.edges):
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
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

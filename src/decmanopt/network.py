"""Communication graphs and gossip mixing.

Provides ring / complete / Erdos-Renyi topologies, Metropolis constant
edge weights (symmetric, doubly stochastic, positive diagonal), the
second-largest singular value sigma2 that governs gossip contraction, and
the t-step mixing map applied to stacked agent states.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidInputError
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

    def adjacency(self):
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a


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
        rng = np.random.default_rng(seed)
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < p:
                    edges.add((i, j))
        for e in ring_edges:
            if _connected(n, edges):
                break
            edges.add(e)
        return Graph(n, frozenset(edges))
    raise InvalidInputError(f"unknown topology {topology!r}")


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic gossip weights with cached sigma2.

    Invariants checked at construction: symmetry, rows summing to one,
    nonnegative entries, strictly positive diagonal, eigenvalues in (-1, 1],
    and sigma2 equal to the second-largest singular value.
    """

    n: int
    w: np.ndarray = field(repr=False)
    sigma2: float
    t: int = 1

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.n, self.n):
            raise InvalidInputError(f"weight matrix must be {self.n}x{self.n}")
        if np.linalg.norm(w - w.T) > 1e-12 * max(1.0, np.linalg.norm(w)):
            raise InvalidInputError("weight matrix must be symmetric")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidInputError("rows must sum to one")
        if np.min(w) < 0:
            raise InvalidInputError("weights must be nonnegative")
        if np.min(np.diag(w)) <= 0:
            raise InvalidInputError("diagonal must be strictly positive")
        eig = np.linalg.eigvalsh(0.5 * (w + w.T))
        if eig[0] <= -1.0 - 1e-10 or eig[-1] > 1.0 + 1e-10:
            raise InvalidInputError("eigenvalues must lie in (-1, 1]")
        if self.t < 1:
            raise InvalidInputError("t must be a positive integer")
        # w is symmetric, so its singular values are the |eigenvalues|.
        s = np.sort(np.abs(eig))
        if abs(self.sigma2 - (s[-2] if self.n > 1 else 0.0)) > 1e-10:
            raise InvalidInputError("sigma2 must be the second-largest singular value of w")

    def contraction_rate(self):
        """The linear consensus rate bound 2 sigma2^t."""
        return 2.0 * self.sigma2**self.t


def metropolis_weights(g, t=1):
    """Metropolis constant edge weights for a connected graph.

    W_ij = 1 / (1 + max(deg_i, deg_j)) on edges, rows filled to one on the
    diagonal.  sigma2 is the second-largest singular value of W.
    """
    deg = g.degrees()
    w = np.zeros((g.n, g.n))
    for i, j in sorted(g.edges):
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    _, s, _ = thin_svd(w)
    return MixingMatrix(g.n, w, float(s[1]), t)


def mix(m, xs, steps=None):
    """Apply t gossip rounds to stacked states: y_i = sum_j (W^t)_ij x_j.

    ``xs`` has the agent index first, shape (n, ...).  Implemented as
    ``steps`` successive single-round mixes; W^t is never formed densely.
    Linear in xs and exactly average preserving (up to roundoff).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.shape[0] != m.n:
        raise InvalidInputError(f"expected {m.n} blocks, got {xs.shape[0]}")
    if steps is None:
        steps = m.t
    for _ in range(steps):
        xs = np.tensordot(m.w, xs, axes=(1, 0))
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


def save_graph(path, g):
    """Write the edge-list text format: first line n, then one 'i j' per line."""
    lines = [str(g.n)]
    lines += [f"{i} {j}" for i, j in sorted(g.edges)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path):
    with open(path) as fh:
        raw = [line.strip() for line in fh]
    rows = [line for line in raw if line]
    if not rows:
        raise FormatError(f"{path}: empty graph file")
    try:
        n = int(rows[0])
    except ValueError as exc:
        raise FormatError(f"{path}:1: expected the agent count, got {rows[0]!r}") from exc
    edges = set()
    for lineno, line in enumerate(rows[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer vertex in {line!r}") from exc
        edges.add((i, j))
    return Graph(n, frozenset(edges))

"""The three multi-agent objectives and their data generators.

Each problem holds per-agent local data and answers two calls, which are
all an iteration and a record need: ``local_grads(xs)``, the stacked
Euclidean gradients with agent i evaluated at its own block xs[i], and
``mean_value_and_gradient(x)``, the global objective f(x) = (1/n) sum_i
f_i(x) and its Euclidean gradient at a common point.  ``local_value(i, x)``
and ``local_grad(i, x)`` give one agent's terms for the oracle checks.
Points are in the coordinates of the problem's manifold spec, through
which Riemannian gradients are obtained.  PCA and GEVP hold their data as
one (n, m_i, d) agent stack and give ``lipschitz()``, the exact per-agent
constants of the Riemannian quadratic upper bound.

* PCA:   f_i(x) = -1/2 tr(x' A_i'A_i x)      on St(d, r)
* GEVP:  f_i(x) = +1/2 tr(x' A_i'A_i x)      on St_B(d, r), B = C'C, held
  in whitened coordinates z = Cx as +1/2 tr(z' C^-T A_i'A_i C^-1 z)
* LRMC:  f_i(X) = 1/2 || mask_i * (X V_i(X) - A_i) ||^2   on St(m, r),
  with V_i(X) the per-column minimum-norm least-squares fit to the
  observed entries.

Generators are deterministic given their seed, so a seed is the whole
dataset: every instance is regenerated, never read from disk.
"""

from typing import NamedTuple

import numpy as np

from . import manifolds
from .errors import InvalidInputError
from .numerics import inverse_sqrt, sym, thin_svd


class GroundTruth(NamedTuple):
    """Known optimum of a generated instance: a minimizer and its value."""

    x_star: np.ndarray
    f_star: float


def _check_agent(problem, i):
    if not (0 <= i < problem.n_agents):
        raise InvalidInputError(f"agent index {i} out of range [0, {problem.n_agents})")


class _QuadraticTraceProblem:
    """Common core of PCA and GEVP: f_i(x) = sign/2 tr(x' G_i x) with
    G_i = A_i'A_i (C^-T A_i'A_i C^-1 on whitened generalized Stiefel) and
    ``agents`` the (n, m_i, d) stack of the A_i.  ``grams`` holds the G_i
    times the sign (exactly), so a gradient is one product."""

    _sign = 1.0

    def __init__(self, agents, spec):
        shapes = {np.shape(a) for a in agents}
        if {s[1:] for s in shapes} != {(spec.d,)}:
            raise InvalidInputError(f"all agent matrices must have {spec.d} columns")
        if len(shapes) > 1:
            raise InvalidInputError("all agent matrices must have the same number of rows")
        self.agents = np.asarray(agents, dtype=float)
        self.spec = spec
        grams = self.agents.mT @ self.agents
        if spec.chol is not None:
            ct = spec.chol.T
            grams = sym(np.linalg.solve(ct, np.linalg.solve(ct, grams).mT))
        self.grams = self._sign * grams
        self._total_gram = self.grams.sum(axis=0)

    @property
    def n_agents(self):
        return len(self.agents)

    def local_value(self, i, x):
        _check_agent(self, i)
        return 0.5 * float(np.sum(x * (self.grams[i] @ x)))

    def local_grad(self, i, x):
        _check_agent(self, i)
        return self.grams[i] @ x

    def local_grads(self, xs):
        return self.grams @ xs

    def lipschitz(self):
        """Per-agent constants L_i = lambda_max(G_i) of the bound
        f_i(y) <= f_i(x) + <grad f_i(x), D> + L_i/2 ||D||^2, D = y - x, for
        feasible x, y, with G_i the gram of f_i in the spec's coordinates.

        With S = x'G_i x, feasibility gives sym(x'D) = -1/2 D'D, so the gap
        f_i(y) - f_i(x) - <grad f_i(x), D> is 1/2 (tr(S D'D) - tr(D'G_i D))
        (PCA) or 1/2 (tr(D'G_i D) - tr(S D'D)) (GEVP).  The second terms are
        nonpositive; lambda_max(S) <= L_i and tr(D'G_i D) <= L_i ||D||^2
        bound the first.  For x an extreme eigenframe and y = x with one column
        tilted toward the opposite eigenvector, 2 gap/||D||^2 -> L_i - lambda_min.
        """
        return np.linalg.eigvalsh(self._sign * self.grams)[:, -1]

    def mean_value_and_gradient(self, x):
        sx = self._total_gram @ x
        value = 0.5 * float(np.sum(x * sx)) / self.n_agents
        return value, sx / self.n_agents


class PcaProblem(_QuadraticTraceProblem):
    """Variance maximization over orthonormal frames, written as minimization."""

    _sign = -1.0


class GevpProblem(_QuadraticTraceProblem):
    """Smallest generalized eigenpairs of (sum A_i'A_i, B) via B-orthonormal
    frames, worked in the whitened coordinates z = Cx of its spec."""

    _sign = 1.0

    def __init__(self, agents, spec):
        if spec.chol is None:
            raise InvalidInputError("GevpProblem requires a generalized Stiefel spec")
        super().__init__(agents, spec)


def _inner_fit(a, mask, xs):
    """V of :meth:`LrmcProblem.inner_solve` for a (k, m, T_i) stack of blocks.

    A function of its own so that the float mask, the grams and the
    eigendecomposition are freed before the caller allocates the residual.
    The float mask is formed per call rather than stored, which keeps the
    problem's resident data to one float stack per width.
    """
    m, r = xs.shape[-2:]
    outer = (xs[..., :, None] * xs[..., None, :]).reshape(*xs.shape[:-2], m, r * r)
    gram = (mask.mT.astype(float) @ outer).reshape(*a.shape[:-2], a.shape[-1], r, r)
    w, vecs = np.linalg.eigh(gram)
    keep = w > 1e-13 * np.maximum(w[..., -1:], 1e-300)
    winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    rhs = a.mT @ xs
    return (vecs @ (winv[..., None] * (vecs.mT @ rhs[..., None])))[..., 0].mT


def _solve(a, mask, xs):
    """Masked residual mask * (x V - a) and inner fit V for a (k, m, T_i)
    stack of blocks.

    ``xs`` holds one point per block, or one point shared by all of them.
    The residual is a fresh array; the stacks are only read.
    """
    xs = np.ascontiguousarray(xs)
    v = _inner_fit(a, mask, xs)
    res = xs @ v
    res -= a
    np.copyto(res, 0.0, where=~mask)
    return res, v


class LrmcProblem:
    """Column-partitioned low-rank matrix completion on the Stiefel manifold.

    Each agent holds an m-by-T_i block of observed entries (unobserved
    entries stored as zero) and a boolean mask of the same shape.

    Agents of equal width T_i are held as one (k, m, T_i) stack per width,
    so every call makes one batched inner solve per width.  Each block is
    stored column-major whatever layout it arrives in, so results depend on
    the blocks' values only, not on the caller's memory layout.  ``data``
    lists each agent's (block, mask) as views into those stacks.  There is
    no ``lipschitz()``: the inner solve makes f_i non-quadratic, so its
    quadratic upper-bound constant has no closed form.
    """

    def __init__(self, agents, spec):
        agents = [(np.asarray(a, dtype=float), np.asarray(mask, dtype=bool))
                  for a, mask in agents]
        if any(a.shape != mask.shape for a, mask in agents):
            raise InvalidInputError("observed block and mask shapes differ")
        if {a.shape[0] for a, _ in agents} != {spec.d}:
            raise InvalidInputError(f"all agent blocks must have {spec.d} rows")
        self.spec = spec
        members = {}
        for i, (a, _) in enumerate(agents):
            members.setdefault(a.shape[1], []).append(i)
        # Per width: (agent indices, masked blocks, masks), each stack
        # allocated as (k, T_i, m) and viewed as (k, m, T_i).
        self._groups = []
        for width, idx in members.items():
            shape = (len(idx), width, spec.d)
            a_st = np.zeros(shape).mT
            mask_st = np.empty(shape, dtype=bool).mT
            for j, i in enumerate(idx):
                a, mask = agents[i]
                mask_st[j] = mask
                np.copyto(a_st[j], a, where=mask)
            self._groups.append((idx, a_st, mask_st))
        # The views are made once every stack is allocated.  Made in between,
        # they change how the next set-up reuses the freed heap, which made
        # sweep_lrmc16's setup_s about 40% slower (2 CPUs).
        self.data = [None] * len(agents)
        for idx, a_st, mask_st in self._groups:
            for j, i in enumerate(idx):
                self.data[i] = (a_st[j], mask_st[j])

    @property
    def n_agents(self):
        return len(self.data)

    def _solve_one(self, i, x):
        _check_agent(self, i)
        a, mask = self.data[i]
        res, v = _solve(a[None], mask[None], x[None])
        return res[0], v[0]

    def inner_solve(self, i, x):
        """Per-column minimum-norm least squares V with x[obs] V[:, c] ~ a[obs, c].

        Solved through batched normal equations, V_c = (x' D_c x)^+ x' D_c a_c
        with D_c the diagonal column mask, which equals the minimum-norm
        solution of the masked system.  The pseudo-inverses come from one
        batched eigendecomposition, with eigenvalues below 1e-13 of the
        per-column maximum treated as zero; columns with no observations
        get an all-zero column of V.
        """
        return self._solve_one(i, x)[1]

    def local_value(self, i, x):
        res, _ = self._solve_one(i, x)
        return 0.5 * float(np.sum(res * res))

    def local_grad(self, i, x):
        """Gradient through the inner minimizer: masked residual times V'."""
        res, v = self._solve_one(i, x)
        return res @ v.T

    def local_grads(self, xs):
        out = np.empty(xs.shape)
        for idx, a, mask in self._groups:
            res, v = _solve(a, mask, xs[idx])
            out[idx] = res @ v.mT
            del res, v  # hold one width's residual at a time
        return out

    def mean_value_and_gradient(self, x):
        values = np.empty(self.n_agents)
        grads = np.empty((self.n_agents,) + x.shape)
        for idx, a, mask in self._groups:
            res, v = _solve(a, mask, x)
            grads[idx] = res @ v.mT
            values[idx] = [0.5 * float(np.sum(ri * ri)) for ri in res]
            del res, v
        # Both sums add one agent at a time in agent order (np.sum of a
        # vector adds pairwise, and Python 3.12's sum() compensates).
        total = np.cumsum(values)[-1]
        return float(total) / self.n_agents, np.add.reduce(grads, axis=0) / self.n_agents


# ---------------------------------------------------------------------------
# generators


def _split_rows_randomly(a, n, rng):
    """The rows of ``a`` in a random order, as an (n, rows/n, d) agent stack."""
    perm = rng.permutation(a.shape[0])
    return np.take(a, perm, axis=0).reshape(n, -1, a.shape[1])  # a[perm] at twice the speed


def _check_spectral_sizes(n, m_i, d, r, xi):
    """The PCA and GEVP generators' preconditions, checked before any draw."""
    if n * m_i < d:
        raise InvalidInputError("need n * m_i >= d")
    if not (1 <= r <= d):
        raise InvalidInputError(f"need 1 <= r <= d, got d={d}, r={r}")
    if not (0.0 < xi <= 1.0):
        raise InvalidInputError("xi must lie in (0, 1]")


def _spectral_data(n, m_i, d, xi, rng):
    """Row data A = U diag(xi^1, ..., xi^d) V' and V, from an (n m_i, d)
    Gaussian draw b0 through its d-by-d gram rather than a tall SVD.

    (w, V) = eig(b0'b0), U1 = b0 V w^-1/2, and one refinement, as in
    CholeskyQR2: U = U1 G^-1/2 with G = U1'U1.  U1 is orthonormal to about
    eps cond(b0)^2, and G is near I, so whenever eps cond(b0)^2 < 1 the
    refined U is orthonormal to rounding: A has singular values xi^j and
    right singular vectors V to rounding.
    """
    b0 = rng.standard_normal((n * m_i, d))
    w, v = np.linalg.eigh(b0.T @ b0)  # ascending, so xi^j pairs with v[:, -j]
    u1 = b0 @ (v / np.sqrt(w))
    # A goes into b0's buffer, which is dead once U1 exists.
    a = np.matmul(u1, (inverse_sqrt(u1.T @ u1) * xi ** np.arange(d, 0, -1)) @ v.T, out=b0)
    return a, v[:, ::-1]


def gen_pca_data(n, m_i, d, r, xi, seed):
    """Synthetic PCA instance with singular values xi^1, ..., xi^d.

    The assembled matrix is A = U diag(xi^j) V' with U and V orthonormal
    frames drawn from a Gaussian (n m_i, d) matrix b0 (see
    :func:`_spectral_data`); its singular values are xi^j to rounding
    whenever eps cond(b0)^2 < 1, which a Gaussian draw with n m_i >= d
    meets unless it is nearly rank deficient.  Rows are randomly permuted
    and split evenly over the n agents.  The optimum is the top-r right
    singular subspace V[:, :r]; the optimal value
    -(1/2n) sum_{j<=r} xi^(2j) follows because the agent blocks partition
    the rows of the assembled matrix, held as one (n, m_i, d) stack.
    """
    _check_spectral_sizes(n, m_i, d, r, xi)
    rng = np.random.default_rng(seed)
    a, v = _spectral_data(n, m_i, d, xi, rng)
    agents = _split_rows_randomly(a, n, rng)
    f_star = -0.5 / n * float(np.sum(xi ** (2.0 * np.arange(1, r + 1))))
    problem = PcaProblem(agents, manifolds.stiefel(d, r))
    return problem, GroundTruth(v[:, :r], f_star)


def gevp_constraint(d, rng):
    """The SPD constraint matrix B = Q diag(1.1^e) Q' of the GEVP testbed.

    Q is a random orthogonal matrix drawn from ``rng`` (sign-fixed QR of a
    Gaussian matrix).  The exponents are anchored at e_1 = 1, then
    e_j = (j - 1)/2, which reproduces the documented endpoints (1.1 first,
    1.1^0.5 second, 1.1^(d/2 - 0.5) last).
    """
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got d={d}")
    q, rr = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(rr))
    e = np.array([1.0] + [0.5 * (j - 1) for j in range(2, d + 1)])
    b = (q * 1.1 ** e) @ q.T
    return 0.5 * (b + b.T)


def gen_gevp_data(n, m_i, d, r, xi, seed):
    """Synthetic generalized eigenvalue instance.

    Data matrices as in :func:`gen_pca_data`; the SPD constraint matrix is
    :func:`gevp_constraint`, drawn from the same seeded generator.  The ground
    truth is the r smallest generalized eigenpairs of (sum A_i'A_i, B): C^-1
    times the bottom eigenvectors of the problem's whitened total gram, their
    Cholesky reduction.  x* is ambient, and the problem's points are z = Cx.
    """
    _check_spectral_sizes(n, m_i, d, r, xi)
    rng = np.random.default_rng(seed)
    a, _ = _spectral_data(n, m_i, d, xi, rng)
    agents = _split_rows_randomly(a, n, rng)
    spec = manifolds.generalized_stiefel(d, r, gevp_constraint(d, rng))
    problem = GevpProblem(agents, spec)
    w, z = np.linalg.eigh(problem._total_gram)
    x_star = np.linalg.solve(spec.chol, z[:, :r])
    f_star = 0.5 / n * float(np.sum(w[:r]))
    return problem, GroundTruth(x_star, f_star)


def lrmc_mask_density(m, t, r):
    """Observation probability r (m + T - r) / (m T); equals 1 when r = m."""
    return r * (m + t - r) / (m * t)


def gen_lrmc_data(n, m, t, r, seed):
    """Synthetic rank-r completion instance, columns split over agents.

    A = L R with standard Gaussian factors; entries observed independently
    with probability r(m+T-r)/(mT).  Columns are divided into n contiguous
    blocks as equally as possible (block sizes differ by at most one when n
    does not divide T).  The column space of L is the optimum and the
    exactly-rank-r data makes the optimal value zero.
    """
    if not (1 <= r <= m):
        raise InvalidInputError(f"need 1 <= r <= m, got m={m}, r={r}")
    if not (1 <= n <= t):
        raise InvalidInputError("need 1 <= n <= T")
    rng = np.random.default_rng(seed)
    low = rng.standard_normal((m, r))
    right = rng.standard_normal((r, t))
    nu = lrmc_mask_density(m, t, r)
    mask = rng.random((m, t)) <= nu
    a = low @ right  # formed after the uniform draw, whose memory it reuses
    q, extra = divmod(t, n)
    cuts = [i * q + min(i, extra) for i in range(n + 1)]
    agents = [(a[:, lo:hi], mask[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    u, _, _ = thin_svd(low)
    problem = LrmcProblem(agents, manifolds.stiefel(m, r))
    return problem, GroundTruth(u, 0.0)

"""The three multi-agent objectives and their data generators.

Each problem holds per-agent local data and answers two calls, which are
all an iteration and a record need: ``local_grads(xs)``, the stacked
Euclidean gradients with agent i evaluated at its own block xs[i], and
``mean_value_and_gradient(x)``, the global objective f(x) = (1/n) sum_i
f_i(x) and its Euclidean gradient at a common point.  ``local_value(i, x)``
and ``local_grad(i, x)`` give one agent's terms for the oracle checks.
Riemannian gradients are obtained through the problem's manifold spec.

* PCA:   f_i(x) = -1/2 tr(x' A_i'A_i x)      on St(d, r)
* GEVP:  f_i(x) = +1/2 tr(x' A_i'A_i x)      on St_B(d, r)
* LRMC:  f_i(X) = 1/2 || mask_i * (X V_i(X) - A_i) ||^2   on St(m, r),
  with V_i(X) the per-column minimum-norm least-squares fit to the
  observed entries.

Generators are deterministic given their seed.  A dataset bundle is a
directory holding a meta.json manifest plus per-agent CSV matrices, so
desk experiments can be regenerated or shipped.
"""

import json
import os

import numpy as np

from . import manifolds
from .errors import FormatError, InvalidInputError
from .numerics import thin_svd

PCA = "pca"
GEVP = "gevp"
LRMC = "lrmc"


class GroundTruth:
    """Known optimum of a generated instance (point and/or value)."""

    def __init__(self, x_star=None, f_star=None):
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.f_star = None if f_star is None else float(f_star)


def _check_agent(problem, i):
    if not (0 <= i < problem.n_agents):
        raise InvalidInputError(f"agent index {i} out of range [0, {problem.n_agents})")


class _QuadraticTraceProblem:
    """Common core of PCA and GEVP: f_i(x) = sign/2 tr(x' A_i'A_i x)."""

    _sign = 1.0

    def __init__(self, agents, spec):
        cols = {a.shape[1] for a in agents}
        if cols != {spec.d}:
            raise InvalidInputError(f"all agent matrices must have {spec.d} columns")
        self.agents = [np.asarray(a, dtype=float) for a in agents]
        self.spec = spec
        self._grams = np.stack([a.T @ a for a in self.agents])
        self._total_gram = self._grams.sum(axis=0)

    @property
    def n_agents(self):
        return len(self.agents)

    def local_value(self, i, x):
        _check_agent(self, i)
        return 0.5 * self._sign * float(np.sum(x * (self._grams[i] @ x)))

    def local_grad(self, i, x):
        _check_agent(self, i)
        return self._sign * (self._grams[i] @ x)

    def local_grads(self, xs):
        return self._sign * (self._grams @ xs)

    def mean_value_and_gradient(self, x):
        sx = self._total_gram @ x
        value = 0.5 * self._sign * float(np.sum(x * sx)) / self.n_agents
        return value, self._sign * sx / self.n_agents


class PcaProblem(_QuadraticTraceProblem):
    """Variance maximization over orthonormal frames, written as minimization."""

    kind = PCA
    _sign = -1.0


class GevpProblem(_QuadraticTraceProblem):
    """Smallest generalized eigenpairs of (sum A_i'A_i, B) via B-orthonormal frames."""

    kind = GEVP
    _sign = 1.0

    def __init__(self, agents, spec):
        if spec.b is None:
            raise InvalidInputError("GevpProblem requires a generalized Stiefel spec")
        super().__init__(agents, spec)


class LrmcProblem:
    """Column-partitioned low-rank matrix completion on the Stiefel manifold.

    Each agent holds an m-by-T_i block of observed entries (unobserved
    entries stored as zero) and a boolean mask of the same shape.
    """

    kind = LRMC

    def __init__(self, agents, spec):
        self.data = []
        self._maskf = []
        for a, mask in agents:
            # Column-major, like the generator's column slices: the layout picks
            # the masked gram's BLAS path, so a loaded bundle gives the same bits.
            a = np.asfortranarray(a, dtype=float)
            mask = np.asfortranarray(mask, dtype=bool)
            if a.shape != mask.shape:
                raise InvalidInputError("observed block and mask shapes differ")
            self.data.append((np.where(mask, a, 0.0), mask))
            self._maskf.append(mask.astype(float))
        if {a.shape[0] for a, _ in self.data} != {spec.d}:
            raise InvalidInputError(f"all agent blocks must have {spec.d} rows")
        self.spec = spec

    @property
    def n_agents(self):
        return len(self.data)

    def inner_solve(self, i, x):
        """Per-column minimum-norm least squares V with x[obs] V[:, c] ~ a[obs, c].

        Solved through batched normal equations, V_c = (x' D_c x)^+ x' D_c a_c
        with D_c the diagonal column mask, which equals the minimum-norm
        solution of the masked system.  The pseudo-inverses come from one
        batched eigendecomposition, with eigenvalues below 1e-13 of the
        per-column maximum treated as zero; columns with no observations
        get an all-zero column of V.
        """
        _check_agent(self, i)
        a, _ = self.data[i]
        maskf = self._maskf[i]
        m, r = x.shape
        outer = (x[:, :, None] * x[:, None, :]).reshape(m, r * r)
        gram = (maskf.T @ outer).reshape(a.shape[1], r, r)
        rhs = a.T @ x
        w, vecs = np.linalg.eigh(gram)
        keep = w > 1e-13 * np.maximum(w[:, -1:], 1e-300)
        winv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        v = vecs @ (winv[:, :, None] * (np.swapaxes(vecs, 1, 2) @ rhs[:, :, None]))
        return v[:, :, 0].T

    def _residual_and_fit(self, i, x):
        """The masked residual mask_i * (x V - a) and the inner fit V."""
        v = self.inner_solve(i, x)
        a, mask = self.data[i]
        return np.where(mask, x @ v - a, 0.0), v

    def local_value(self, i, x):
        res, _ = self._residual_and_fit(i, x)
        return 0.5 * float(np.sum(res * res))

    def local_grad(self, i, x):
        """Gradient through the inner minimizer: masked residual times V'."""
        res, v = self._residual_and_fit(i, x)
        return res @ v.T

    def local_grads(self, xs):
        return np.stack([self.local_grad(i, xs[i]) for i in range(self.n_agents)])

    def mean_value_and_gradient(self, x):
        total = 0.0
        g = np.zeros_like(x)
        for i in range(self.n_agents):
            res, v = self._residual_and_fit(i, x)
            total += 0.5 * float(np.sum(res * res))
            g += res @ v.T
        return total / self.n_agents, g / self.n_agents


# ---------------------------------------------------------------------------
# generators


def _split_rows_randomly(a, n, rng):
    perm = rng.permutation(a.shape[0])
    block = a.shape[0] // n
    return [a[perm[i * block:(i + 1) * block]] for i in range(n)]


def _spectral_data(n, m_i, d, xi, rng):
    """Row data whose singular values are the controlled sequence xi^j."""
    b0 = rng.standard_normal((n * m_i, d))
    u, _, v = thin_svd(b0)
    return u @ np.diag(xi ** np.arange(1, d + 1)) @ v.T, v


def gen_pca_data(n, m_i, d, r, xi, seed):
    """Synthetic PCA instance with singular values xi^1, ..., xi^d.

    Rows are randomly permuted and split evenly over the n agents.  The
    optimum is the top-r right singular subspace; the optimal value
    -(1/2n) sum_{j<=r} xi^(2j) follows because the agent blocks partition
    the rows of the assembled matrix.
    """
    if n * m_i < d:
        raise InvalidInputError("need n * m_i >= d")
    if not (0.0 < xi <= 1.0):
        raise InvalidInputError("xi must lie in (0, 1]")
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
    q, rr = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(rr))
    e = np.array([1.0] + [0.5 * (j - 1) for j in range(2, d + 1)])
    b = q @ np.diag(1.1 ** e) @ q.T
    return 0.5 * (b + b.T)


def gen_gevp_data(n, m_i, d, r, xi, seed):
    """Synthetic generalized eigenvalue instance.

    Data matrices as in :func:`gen_pca_data`; the SPD constraint matrix is
    :func:`gevp_constraint`, drawn from the same seeded generator.  The ground
    truth is the r smallest generalized eigenpairs of (sum A_i'A_i, B),
    computed by Cholesky reduction to a standard symmetric eigenproblem.
    """
    if n * m_i < d:
        raise InvalidInputError("need n * m_i >= d")
    rng = np.random.default_rng(seed)
    a, _ = _spectral_data(n, m_i, d, xi, rng)
    agents = _split_rows_randomly(a, n, rng)
    b = gevp_constraint(d, rng)

    s = a.T @ a
    g = np.linalg.cholesky(b)
    ginv_s = np.linalg.solve(g, np.linalg.solve(g, s).T).T
    w, z = np.linalg.eigh(0.5 * (ginv_s + ginv_s.T))
    x_star = np.linalg.solve(g.T, z[:, :r])
    f_star = 0.5 / n * float(np.sum(w[:r]))
    problem = GevpProblem(agents, manifolds.generalized_stiefel(d, r, b))
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
    a = low @ right
    nu = lrmc_mask_density(m, t, r)
    mask = rng.uniform(size=(m, t)) <= nu
    cuts = np.array_split(np.arange(t), n)
    agents = [(a[:, idx], mask[:, idx]) for idx in cuts]
    u, _, _ = thin_svd(low)
    problem = LrmcProblem(agents, manifolds.stiefel(m, r))
    return problem, GroundTruth(u, 0.0)


# ---------------------------------------------------------------------------
# CSV matrix files and dataset bundles


def save_matrix(path, a):
    """Write a dense matrix as header-less CSV with shortest round-trip
    float formatting, so it reads back bitwise through :func:`load_matrix`."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix(path):
    """Read a dense CSV matrix.

    Parse failures report the offending line number; ragged rows are
    rejected.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: unparseable entry in {line!r}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise FormatError(
                    f"{path}:{lineno}: row has {len(rows[-1])} entries, expected {len(rows[0])}"
                )
    if not rows:
        raise FormatError(f"{path}: no rows")
    return np.array(rows, dtype=float)


def _mask_to_indices(mask):
    ii, jj = np.nonzero(mask)
    return np.stack([ii, jj], axis=1)


def save_dataset(dirpath, problem, truth, seed, xi=None, nu=None):
    """Write a dataset bundle: meta.json plus per-agent matrix files.

    The manifest always carries the keys kind, n, d, r, m_i, seed, xi, nu
    (null where not applicable).  For completion problems d is the ambient
    row count and m_i the per-agent column count; masks are stored as
    two-column index lists.
    """
    os.makedirs(dirpath, exist_ok=True)
    meta = {
        "kind": problem.kind,
        "n": problem.n_agents,
        "d": problem.spec.d,
        "r": problem.spec.r,
        "seed": seed,
        "xi": xi,
        "nu": nu,
        "f_star": None if truth is None else truth.f_star,
    }
    if problem.kind in (PCA, GEVP):
        meta["m_i"] = problem.agents[0].shape[0]
        for i, a in enumerate(problem.agents):
            save_matrix(os.path.join(dirpath, f"A_{i}.csv"), a)
        if problem.kind == GEVP:
            save_matrix(os.path.join(dirpath, "B.csv"), problem.spec.b)
    elif problem.kind == LRMC:
        meta["m_i"] = problem.data[0][0].shape[1]
        for i, (a, mask) in enumerate(problem.data):
            save_matrix(os.path.join(dirpath, f"A_{i}.csv"), a)
            idx = _mask_to_indices(mask)
            with open(os.path.join(dirpath, f"mask_{i}.csv"), "w") as fh:
                for row in idx:
                    fh.write(f"{row[0]},{row[1]}\n")
    else:
        raise InvalidInputError(f"cannot serialize problem kind {problem.kind!r}")
    if truth is not None and truth.x_star is not None:
        save_matrix(os.path.join(dirpath, "x_star.csv"), truth.x_star)
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_mask(path, shape):
    """A boolean mask of ``shape`` from a two-column index list, which is
    empty for an agent with no observations."""
    mask = np.zeros(shape, dtype=bool)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ii, jj = (int(tok) for tok in line.split(","))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad index pair {line!r}") from exc
            if not (0 <= ii < shape[0] and 0 <= jj < shape[1]):
                raise FormatError(f"{path}:{lineno}: index pair {line!r} out of range for a "
                                  f"{shape[0]}x{shape[1]} block")
            mask[ii, jj] = True
    return mask


def load_dataset(dirpath):
    """Load a bundle written by :func:`save_dataset`; inverse up to dtype."""
    meta_path = os.path.join(dirpath, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"{meta_path}: {exc}") from exc
    kind, n = meta["kind"], meta["n"]
    x_star_path = os.path.join(dirpath, "x_star.csv")
    x_star = load_matrix(x_star_path) if os.path.exists(x_star_path) else None
    truth = GroundTruth(x_star, meta.get("f_star"))
    if kind in (PCA, GEVP):
        agents = [load_matrix(os.path.join(dirpath, f"A_{i}.csv")) for i in range(n)]
        if kind == PCA:
            problem = PcaProblem(agents, manifolds.stiefel(meta["d"], meta["r"]))
        else:
            b = load_matrix(os.path.join(dirpath, "B.csv"))
            problem = GevpProblem(agents, manifolds.generalized_stiefel(meta["d"], meta["r"], b))
        return problem, truth
    if kind == LRMC:
        pairs = []
        for i in range(n):
            a = load_matrix(os.path.join(dirpath, f"A_{i}.csv"))
            pairs.append((a, _load_mask(os.path.join(dirpath, f"mask_{i}.csv"), a.shape)))
        problem = LrmcProblem(pairs, manifolds.stiefel(meta["d"], meta["r"]))
        return problem, truth
    raise FormatError(f"{meta_path}: unknown problem kind {kind!r}")

"""Reported quantities: induced mean, stationarity pair, subspace distance.

The induced mean of agents x_1..x_n is the projection of their Euclidean
average onto the manifold; the stationarity pair is the consensus error
(1/n) sum ||x_i - xbar||^2 together with ||grad f(xbar)||^2, both in the
manifold's metric (the B-norm on generalized Stiefel).  The
subspace distance d_s is the orthogonal-Procrustes-aligned Frobenius
distance (alignment over the full orthogonal group, reflections
included), which is invariant to the right-orthogonal gauge of frame
optima.
"""

import csv
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .numerics import thin_svd

@dataclass
class TraceRecord:
    """Metrics of one recorded iteration."""

    iter: int
    step_size: float
    consensus_error: float
    objective_at_mean: float
    grad_norm_sq: float
    dist_to_truth: float | None = None
    wall_ns: int | None = None


# The trace.csv header, in field order: iter, the float metrics, wall_ns.
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def induced_mean(spec, points):
    """Euclidean average xhat of the stacked points and its projection xbar.

    Raises :class:`decmanopt.errors.SingularityError` when xhat falls outside
    the tube where the projection is single valued.
    """
    x_hat = np.add.reduce(points, axis=0) / points.shape[0]
    return x_hat, spec.project(x_hat)


def consensus_error(points, x_bar, spec=None):
    """(1/n) sum_i ||x_i - xbar||^2 in the metric of ``spec``, or in the
    Frobenius norm without one."""
    dev = points - x_bar
    sq = float(np.sum(dev * dev)) if spec is None else spec.inner(dev, dev)
    return sq / points.shape[0]


class Stationarity(NamedTuple):
    """The induced mean xbar and the measurements taken there."""

    x_bar: np.ndarray
    consensus_error: float
    objective_at_mean: float
    grad_norm_sq: float


def stationarity(problem, points):
    """The stationarity pair (consensus error, ||grad f(xbar)||^2) at the
    induced mean, together with xbar and f(xbar).

    f(xbar) and its Euclidean gradient come from one data sweep; averaging
    the per-agent Euclidean gradients at xbar and mapping once equals
    averaging Riemannian gradients at the common point.
    """
    spec = problem.spec
    _, x_bar = induced_mean(spec, points)
    value, egrad = problem.mean_value_and_gradient(x_bar)
    g = spec.riemannian_gradient(x_bar, egrad)
    return Stationarity(x_bar, consensus_error(points, x_bar, spec), value, spec.inner(g, g))


def subspace_distance(x, x_star):
    """d_s(x, x*) = min over orthogonal Q of ||x Q - x*||."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise InvalidInputError(f"shape mismatch {x.shape} vs {x_star.shape}")
    u, _, v = thin_svd(x.T @ x_star)
    q = u @ v.T
    return float(np.linalg.norm(x @ q - x_star))


@dataclass
class CurvatureProbeReport:
    """Empirical smoothness constants from random manifold pairs.

    ``quad_bound`` is the smallest constant making the Riemannian quadratic
    upper bound hold across the samples; ``grad_lip`` the largest observed
    ratio ||grad f_i(x) - grad f_i(y)|| / ||x - y||.  Norms and inner
    products are the manifold's.
    """

    quad_bound: float
    grad_lip: float
    trials: int


def quadratic_upper_bound_probe(problem, trials, seed=0):
    """Estimate the Riemannian quadratic upper-bound and gradient-Lipschitz
    constants of the local objectives over random feasible pairs."""
    if trials < 1:
        raise InvalidInputError("trials must be at least 1")
    spec = problem.spec
    rng = np.random.default_rng(seed)
    quad = 0.0
    lip = 0.0
    for _ in range(trials):
        i = int(rng.integers(problem.n_agents))
        x = spec.random_point(rng)
        y = spec.random_point(rng)
        diff = y - x
        nd2 = spec.inner(diff, diff)
        if nd2 < 1e-24:
            continue
        gx = spec.riemannian_gradient(x, problem.local_grad(i, x))
        gy = spec.riemannian_gradient(y, problem.local_grad(i, y))
        gap = problem.local_value(i, y) - problem.local_value(i, x) - spec.inner(gx, diff)
        quad = max(quad, 2.0 * gap / nd2)
        lip = max(lip, float(spec.norm(gy - gx)) / np.sqrt(nd2))
    return CurvatureProbeReport(quad, lip, trials)


# ---------------------------------------------------------------------------
# trace persistence


def fmt_float(value):
    """Shortest round-trip text of a float; the empty string for None."""
    return "" if value is None else repr(float(value))


def write_trace(path, records):
    """Write trace records as CSV with the fixed column order.

    Floats use shortest round-trip formatting so identical runs produce
    byte-identical files.  The wall_ns column is left empty on disk: trace
    files are part of the determinism contract (identical configuration and
    seeds must reproduce them byte for byte), which measured wall time would
    break.  Wall time is reported in the run manifest instead.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        floats = TRACE_COLUMNS[1:-1]
        for rec in records:
            writer.writerow([rec.iter, *(fmt_float(getattr(rec, name)) for name in floats), ""])

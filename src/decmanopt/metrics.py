"""Reported quantities and the trace record that carries them.

The induced mean of agents x_1..x_n is the projection of their Euclidean
average onto the manifold; the stationarity pair is the consensus error
(1/n) sum ||x_i - xbar||^2 together with ||grad f(xbar)||^2, both in the
Frobenius norm (the B-norm of x in generalized Stiefel's whitened
coordinates z = Cx).  The subspace distance d_s is the
orthogonal-Procrustes-aligned Frobenius distance (alignment over the full
orthogonal group, reflections included), which is invariant to the
right-orthogonal gauge of frame optima; a ground truth is ambient, so a
whitened point is mapped back by C^(-1) first.  :func:`trace_record`
takes all of them at one iterate.
"""

import time
from dataclasses import dataclass, fields

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


def consensus_error(points, x_bar):
    """(1/n) sum_i ||x_i - xbar||^2 in the Frobenius norm."""
    dev = points - x_bar
    return float(np.sum(dev * dev)) / points.shape[0]


def subspace_distance(x, x_star):
    """d_s(x, x*) = min over orthogonal Q of ||x Q - x*||."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise InvalidInputError(f"shape mismatch {x.shape} vs {x_star.shape}")
    u, _, v = thin_svd(x.T @ x_star)
    q = u @ v.T
    return float(np.linalg.norm(x @ q - x_star))


def truth_distance(spec, x, x_star):
    """d_s(C^-1 x, x*) for a point x in the coordinates of ``spec``, with
    C = spec.chol on generalized Stiefel; d_s(x, x*) on Stiefel."""
    return subspace_distance(x if spec.chol is None else np.linalg.solve(spec.chol, x), x_star)


def trace_record(problem, points, truth, k, step_size, t_start):
    """The trace record of iterate k: the stationarity pair (consensus
    error, ||grad f(xbar)||^2) and f(xbar) at the induced mean xbar, d_s
    to ``truth.x_star`` (:func:`truth_distance`; None without a truth), and
    the wall time since ``t_start`` (a ``time.monotonic_ns`` reading).

    f(xbar) and its Euclidean gradient come from one data sweep; averaging
    the per-agent Euclidean gradients at xbar and mapping once equals
    averaging Riemannian gradients at the common point.
    """
    spec = problem.spec
    _, x_bar = induced_mean(spec, points)
    value, egrad = problem.mean_value_and_gradient(x_bar)
    g = spec.riemannian_gradient(x_bar, egrad)
    return TraceRecord(
        iter=k,
        step_size=step_size,
        consensus_error=consensus_error(points, x_bar),
        objective_at_mean=value,
        grad_norm_sq=spec.inner(g, g),
        dist_to_truth=None if truth is None else truth_distance(spec, x_bar, truth.x_star),
        wall_ns=time.monotonic_ns() - t_start,
    )


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
    floats = TRACE_COLUMNS[1:-1]
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in records:
            row = [str(rec.iter), *(fmt_float(getattr(rec, name)) for name in floats), ""]
            fh.write(",".join(row) + "\n")

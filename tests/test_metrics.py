import time

import numpy as np

from decmanopt import manifolds
from decmanopt.metrics import (
    TraceRecord,
    consensus_error,
    induced_mean,
    subspace_distance,
    trace_record,
    write_trace,
)
from decmanopt.problems import gen_pca_data


def test_induced_mean_of_equal_agents():
    rng = np.random.default_rng(0)
    spec = manifolds.stiefel(8, 3)
    x = spec.random_point(rng)
    points = np.tile(x, (5, 1, 1))
    x_hat, x_bar = induced_mean(spec, points)
    assert np.allclose(x_hat, x, atol=1e-15)
    assert np.linalg.norm(x_bar - x) <= 1e-12
    assert consensus_error(points, x_bar) <= 1e-28


def test_induced_mean_on_circle():
    spec = manifolds.stiefel(2, 1)
    points = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
    x_hat, x_bar = induced_mean(spec, points)
    assert np.allclose(x_hat, [[0.5], [0.5]])
    assert np.allclose(x_bar, [[1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0)]], atol=1e-12)


def test_induced_mean_quadratic_gap_order():
    # ||xbar - xhat|| scales like the mean squared scatter: the fitted ratio
    # stays within a factor two across halving perturbation scales.
    rng = np.random.default_rng(1)
    spec = manifolds.stiefel(10, 5)
    x0 = spec.random_point(rng)
    dirs = np.stack([spec.random_tangent(x0, rng, 1.0) for _ in range(8)])
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        points = spec.project_stack(x0 + delta * dirs)
        x_hat, x_bar = induced_mean(spec, points)
        gap = np.linalg.norm(x_bar - x_hat)
        ratios.append(gap / consensus_error(points, x_bar))
    assert max(ratios) <= 2.0 * min(ratios)


def test_stationarity_at_pca_optimum():
    problem, truth = gen_pca_data(4, 200, 8, 3, 0.8, seed=3)
    points = np.tile(truth.x_star, (4, 1, 1))
    st = trace_record(problem, points, None, 0, 0.0, time.monotonic_ns())
    assert st.consensus_error < 1e-10
    assert st.grad_norm_sq < 1e-10


def test_stationarity_identical_agents_zero_consensus():
    problem, _ = gen_pca_data(4, 50, 6, 2, 0.8, seed=4)
    x = problem.spec.random_point(np.random.default_rng(5))
    st = trace_record(problem, np.tile(x, (4, 1, 1)), None, 0, 0.0, time.monotonic_ns())
    assert st.consensus_error <= 1e-25


def test_stationarity_single_agent():
    problem, _ = gen_pca_data(1, 50, 6, 2, 0.8, seed=6)
    x = problem.spec.random_point(np.random.default_rng(7))
    st = trace_record(problem, x[None], None, 0, 0.0, time.monotonic_ns())
    assert st.consensus_error <= 1e-28


def test_subspace_distance_identical():
    rng = np.random.default_rng(8)
    x = manifolds.stiefel(10, 5).random_point(rng)
    assert subspace_distance(x, x) <= 1e-12


def test_subspace_distance_gauge_invariance():
    rng = np.random.default_rng(9)
    spec = manifolds.stiefel(10, 5)
    x = spec.random_point(rng)
    q0, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert subspace_distance(x, x @ q0) <= 1e-10
    # Pseudometric: right-orthogonal gauges on both arguments cancel.
    y = spec.random_point(rng)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert abs(subspace_distance(x @ q0, y @ q1) - subspace_distance(x, y)) <= 1e-9


def test_subspace_distance_against_sampling_polish_oracle():
    # The closed-form alignment can only improve on random orthogonal
    # alignments, and local polish from the best sample must land on it.
    rng = np.random.default_rng(10)
    spec = manifolds.stiefel(10, 5)
    x = spec.random_point(rng)
    y = spec.random_point(rng)
    d = subspace_distance(x, y)
    best, best_q = np.inf, None
    for _ in range(10_000):
        q, rr = np.linalg.qr(rng.standard_normal((5, 5)))
        q = q * np.sign(np.diag(rr))
        val = np.linalg.norm(x @ q - y)
        if val < best:
            best, best_q = val, q
    assert d <= best + 1e-12
    q = best_q
    for _ in range(500):
        grad = x.T @ (x @ q - y)
        u, _, vt = np.linalg.svd(q - 0.5 * grad)
        q = u @ vt
    polished = np.linalg.norm(x @ q - y)
    assert d <= polished + 1e-12
    assert abs(d - polished) <= 1e-6


def test_trace_round_trip(tmp_path):
    records = [
        TraceRecord(0, 0.1, 1.5e-3, -0.25, 2.0e-4, 1.25, 12345),
        TraceRecord(10, 0.1, 1.5e-5, -0.26, 2.0e-6, None, 67890),
    ]
    path = tmp_path / "trace.csv"
    write_trace(path, records)
    text = path.read_text().splitlines()
    assert text[0] == "iter,step_size,consensus_error,objective_at_mean,grad_norm_sq,dist_to_truth,wall_ns"
    rows = [line.split(",") for line in text[1:]]
    assert len(rows) == len(records)
    for row, ref in zip(rows, records):
        assert int(row[0]) == ref.iter
        assert float(row[1]) == ref.step_size
        assert float(row[2]) == ref.consensus_error
        assert float(row[3]) == ref.objective_at_mean
        assert float(row[4]) == ref.grad_norm_sq
        assert (float(row[5]) if row[5] else None) == ref.dist_to_truth
        # wall time is kept out of the persisted trace (determinism contract).
        assert row[6] == ""

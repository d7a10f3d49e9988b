import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt import manifolds, problems
from decmanopt.errors import InvalidInputError
from decmanopt.metrics import subspace_distance
from decmanopt.problems import (
    GevpProblem,
    LrmcProblem,
    PcaProblem,
    _spectral_data,
    gen_gevp_data,
    gen_lrmc_data,
    gen_pca_data,
    gevp_constraint,
    lrmc_mask_density,
)


def fd_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


# -- PCA ---------------------------------------------------------------------


def test_pca_grad_zero_data():
    spec = manifolds.stiefel(6, 2)
    p = PcaProblem([np.zeros((10, 6)), np.ones((10, 6))], spec)
    x = spec.random_point(np.random.default_rng(0))
    assert np.linalg.norm(p.local_grad(0, x)) == 0.0


def test_pca_grad_isotropic_data_is_stationary():
    spec = manifolds.stiefel(5, 2)
    p = PcaProblem([np.eye(5)], spec)
    x = spec.random_point(np.random.default_rng(1))
    g = p.local_grad(0, x)
    assert np.allclose(g, -x, atol=1e-12)
    assert np.linalg.norm(spec.tangent_project(x, g)) <= 1e-12


def test_pca_grad_finite_differences():
    rng = np.random.default_rng(2)
    spec = manifolds.stiefel(7, 3)
    p = PcaProblem([rng.standard_normal((15, 7)) for _ in range(3)], spec)
    for i in range(3):
        x = spec.random_point(rng)
        fd = fd_gradient(lambda z, i=i: p.local_value(i, z), x)
        assert rel_err(fd, p.local_grad(i, x)) < 1e-5


def test_pca_agent_index_checked():
    p = PcaProblem([np.eye(3)], manifolds.stiefel(3, 1))
    with pytest.raises(InvalidInputError):
        p.local_grad(1, np.eye(3)[:, :1])


def test_gen_pca_matches_svd_oracle():
    problem, truth = gen_pca_data(8, 1000, 10, 5, 0.8, seed=7)
    stacked = np.vstack(problem.agents)
    _, _, vt = np.linalg.svd(stacked, full_matrices=False)
    oracle = vt.T[:, :5]
    assert subspace_distance(oracle, truth.x_star) < 1e-8
    assert abs(problem.mean_value_and_gradient(truth.x_star)[0] - truth.f_star) < 1e-12


def test_gen_pca_degenerate_spectrum():
    problem, truth = gen_pca_data(4, 10, 6, 2, 1.0, seed=0)
    # All singular values equal: any feasible point attains f*.
    x = problem.spec.random_point(np.random.default_rng(3))
    assert abs(problem.mean_value_and_gradient(x)[0] - truth.f_star) < 1e-10


def test_gen_pca_deterministic():
    p1, _ = gen_pca_data(4, 50, 8, 3, 0.8, seed=123)
    p2, _ = gen_pca_data(4, 50, 8, 3, 0.8, seed=123)
    for a1, a2 in zip(p1.agents, p2.agents):
        assert a1.tobytes() == a2.tobytes()


def test_gen_pca_optimum_beats_random_points():
    problem, truth = gen_pca_data(4, 100, 8, 3, 0.8, seed=5)
    rng = np.random.default_rng(6)
    f_star = problem.mean_value_and_gradient(truth.x_star)[0]
    for _ in range(100):
        x = problem.spec.random_point(rng)
        assert f_star <= problem.mean_value_and_gradient(x)[0] + 1e-12


def test_gradient_bound_recorded():
    problem, _ = gen_pca_data(4, 100, 8, 3, 0.8, seed=8)
    rng = np.random.default_rng(9)
    bound = 0.0
    for _ in range(100):
        x = problem.spec.random_point(rng)
        bound = max(
            bound,
            max(np.linalg.norm(problem.local_grad(i, x)) for i in range(problem.n_agents)),
        )
    assert np.isfinite(bound) and bound > 0


# -- GEVP --------------------------------------------------------------------


def test_gevp_grad_zero_data():
    rng = np.random.default_rng(10)
    b = np.diag(rng.uniform(1.0, 2.0, size=5))
    spec = manifolds.generalized_stiefel(5, 2, b)
    p = GevpProblem([np.zeros((8, 5))], spec)
    x = spec.random_point(rng)
    assert np.linalg.norm(p.local_grad(0, x)) == 0.0


def test_gevp_identity_b_flips_pca_gradient():
    rng = np.random.default_rng(11)
    agents = [rng.standard_normal((12, 6)) for _ in range(2)]
    gevp = GevpProblem(agents, manifolds.generalized_stiefel(6, 2, np.eye(6)))
    pca = PcaProblem(agents, manifolds.stiefel(6, 2))
    x = pca.spec.random_point(rng)
    assert np.allclose(gevp.local_grad(0, x), -pca.local_grad(0, x))


def test_gevp_grad_finite_differences():
    rng = np.random.default_rng(12)
    b = np.diag(rng.uniform(1.0, 2.0, size=6))
    spec = manifolds.generalized_stiefel(6, 2, b)
    p = GevpProblem([rng.standard_normal((10, 6)) for _ in range(2)], spec)
    for i in range(2):
        x = spec.random_point(rng)
        fd = fd_gradient(lambda z, i=i: p.local_value(i, z), x)
        assert rel_err(fd, p.local_grad(i, x)) < 1e-5


def test_gevp_constraint_spectrum_literal_prefix():
    # Eigenvalues 1.1 first, 1.1^0.5 second, 1.1^(d/2 - 0.5) last.
    w2 = np.linalg.eigvalsh(gevp_constraint(2, np.random.default_rng(0)))
    assert np.allclose(np.sort(w2), np.sort(1.1 ** np.array([1.0, 0.5])))
    w10 = np.linalg.eigvalsh(gevp_constraint(10, np.random.default_rng(1)))
    e10 = np.array([1.0] + [0.5 * (j - 1) for j in range(2, 11)])
    assert np.allclose(np.sort(w10), np.sort(1.1 ** e10))


@pytest.mark.parametrize("d", [0, -2])
def test_gevp_constraint_rejects_nonpositive_size(d):
    with pytest.raises(InvalidInputError, match=f"need d >= 1, got d={d}"):
        gevp_constraint(d, np.random.default_rng(0))


def test_gen_gevp_matches_dense_generalized_eig_oracle():
    problem, truth = gen_gevp_data(8, 1000, 10, 5, 0.8, seed=7)
    c = problem.spec.chol
    s = sum(a.T @ a for a in problem.agents)
    w, v = scipy.linalg.eigh(s, c.T @ c)
    oracle = v[:, :5]
    assert subspace_distance(oracle, truth.x_star) < 1e-8
    assert abs(truth.f_star - 0.5 / 8 * np.sum(w[:5])) < 1e-12
    # x* is ambient; the problem's points are whitened, z = Cx.
    assert problem.spec.feasibility_residual(c @ truth.x_star) <= 1e-8
    assert problem.mean_value_and_gradient(c @ truth.x_star)[0] == pytest.approx(truth.f_star,
                                                                                  rel=1e-12)


# -- spectral data ------------------------------------------------------------


def svd_spectral_data(b0, xi):
    """The reference construction of the PCA and GEVP data: A = U diag(xi^j) V'
    from the thin SVD U diag(s) V' of the Gaussian draw b0."""
    u, _, vt = np.linalg.svd(b0, full_matrices=False)
    return u @ np.diag(xi ** np.arange(1, b0.shape[1] + 1)) @ vt


@pytest.mark.parametrize("rows, d", [(10, 10), (11, 10), (40, 6), (360, 8), (8000, 10)])
def test_spectral_data_matches_svd_construction(rows, d):
    # Square draws reach cond(b0) ~ 5e2 over these seeds; there the gram
    # route without its refinement step misses xi^j by up to 4.9e-12.
    xi = 0.8
    s = xi ** np.arange(1, d + 1)
    for seed in range(50):
        a, v = _spectral_data(1, rows, d, xi, np.random.default_rng(seed))
        ref = svd_spectral_data(np.random.default_rng(seed).standard_normal((rows, d)), xi)
        assert np.max(np.abs(np.linalg.svd(a, compute_uv=False) / s - 1)) <= 1e-13
        # v[:, :r] is the PCA truth: A'A v = v diag(xi^2j), v orthonormal.
        assert np.linalg.norm(a.T @ (a @ v) - v * s**2) <= 1e-13 * s[0] ** 2
        assert np.linalg.norm(v.T @ v - np.eye(d)) <= 1e-13
        assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref)


def test_spectral_data_makes_no_tall_factorization(monkeypatch):
    # Set-up time goes to factoring the (n m_i, d) draw, so no SVD or QR may
    # see all n m_i rows; a count of shapes, not a timing.
    shapes = []

    def recording(fn):
        def wrapped(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return fn(m, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    monkeypatch.setattr(problems, "thin_svd", recording(problems.thin_svd))
    gen_pca_data(8, 1000, 10, 5, 0.8, seed=7)
    gen_gevp_data(8, 1000, 10, 5, 0.8, seed=7)
    assert (10, 10) in shapes  # the GEVP constraint's QR is seen
    assert [shape for shape in shapes if shape[-2] == 8000] == []


# -- quadratic upper bound ----------------------------------------------------


def _bound_ratio(problem, i, x, y):
    """2 (f_i(y) - f_i(x) - <grad f_i(x), y - x>) / (L_i ||y - x||^2)."""
    spec = problem.spec
    diff = y - x
    g = spec.riemannian_gradient(x, problem.local_grad(i, x))
    gap = problem.local_value(i, y) - problem.local_value(i, x) - spec.inner(g, diff)
    return 2.0 * gap / (problem.lipschitz()[i] * spec.inner(diff, diff))


@pytest.mark.parametrize("gen", [gen_pca_data, gen_gevp_data], ids=["pca", "gevp"])
def test_lipschitz_is_the_exact_quadratic_bound_constant(gen):
    problem, _ = gen(8, 1000, 10, 5, 0.8, seed=7)
    spec = problem.spec
    lip = problem.lipschitz()
    # Oracle: eigenpairs of G_i (PCA) or of the pencil (G_i, B) (GEVP),
    # ascending, the latter B-orthonormal and whitened to z = Cx.
    c = np.eye(spec.d) if spec.chol is None else spec.chol
    eigs = [scipy.linalg.eigh(a.T @ a, c.T @ c) for a in problem.agents]
    eigs = [(w, c @ v) for w, v in eigs]
    assert lip.shape == (8,)
    assert np.allclose(lip, [w[-1] for w, _ in eigs], rtol=1e-12, atol=0)

    # The bound holds for feasible pairs from 1e-4 to about 2 apart.
    rng = np.random.default_rng(0)
    for _ in range(300):
        i = int(rng.integers(8))
        x = spec.random_point(rng)
        y = spec.project(x + spec.random_tangent(x, rng, 10 ** rng.uniform(-4, 0.3)))
        assert _bound_ratio(problem, i, x, y) <= 1.0 + 1e-6

    # It is tight: an extreme eigenframe with its first column tilted toward
    # the opposite eigenvector reaches 1 - lambda_min / L_i > 0.95 of it.
    for i, (_, v) in enumerate(eigs):
        if gen is gen_pca_data:
            v = v[:, ::-1]  # the PCA minimizer is the top eigenframe
        for eps in (1e-2, 1e-3, 1e-4):
            x = v[:, :5]
            y = x.copy()
            y[:, 0] = np.cos(eps) * v[:, 0] + np.sin(eps) * v[:, -1]
            assert spec.feasibility_residual(y) <= 1e-12
            assert 0.95 <= _bound_ratio(problem, i, x, y) <= 1.0 + 1e-6


# -- LRMC --------------------------------------------------------------------


def _small_lrmc(rng, m=12, t=9, r=3, density=1.0):
    x0 = manifolds.stiefel(m, r).random_point(rng)
    v0 = rng.standard_normal((r, t))
    a = x0 @ v0
    mask = rng.uniform(size=(m, t)) <= density
    spec = manifolds.stiefel(m, r)
    return LrmcProblem([(a, mask)], spec), x0, v0


def test_lrmc_inner_solve_consistent_full_mask():
    rng = np.random.default_rng(13)
    p, x0, v0 = _small_lrmc(rng, density=1.0)
    v = p.inner_solve(0, x0)
    assert np.linalg.norm(v - v0) <= 1e-9


def test_lrmc_inner_solve_empty_mask():
    rng = np.random.default_rng(14)
    p, x0, _ = _small_lrmc(rng, density=0.0)
    assert np.linalg.norm(p.inner_solve(0, x0)) == 0.0
    assert np.linalg.norm(p.local_grad(0, x0)) == 0.0
    assert p.local_value(0, x0) == 0.0


def test_lrmc_inner_solve_normal_equation_oracle():
    rng = np.random.default_rng(15)
    m, t, r = 20, 30, 3
    nu = lrmc_mask_density(m, t, r)
    a = rng.standard_normal((m, t))
    mask = rng.uniform(size=(m, t)) <= nu
    spec = manifolds.stiefel(m, r)
    p = LrmcProblem([(a, mask)], spec)
    x = spec.random_point(rng)
    v = p.inner_solve(0, x)
    for c in range(t):
        rows = mask[:, c]
        xo = x[rows]
        res = xo.T @ (xo @ v[:, c] - a[rows, c])
        assert np.linalg.norm(res) < 1e-8


def test_lrmc_inner_solve_min_norm_under_few_observations():
    rng = np.random.default_rng(16)
    m, r = 10, 4
    spec = manifolds.stiefel(m, r)
    x = spec.random_point(rng)
    a = rng.standard_normal((m, 1))
    mask = np.zeros((m, 1), dtype=bool)
    mask[:2, 0] = True  # two observations, rank < r
    p = LrmcProblem([(a, mask)], spec)
    v = p.inner_solve(0, x)[:, 0]
    xo = x[mask[:, 0]]
    v_ref = np.linalg.lstsq(xo, a[mask[:, 0], 0], rcond=1e-10)[0]
    assert np.linalg.norm(v - v_ref) <= 1e-9


def test_lrmc_grad_zero_on_consistent_data():
    rng = np.random.default_rng(17)
    p, x0, _ = _small_lrmc(rng, density=1.0)
    assert np.linalg.norm(p.local_grad(0, x0)) <= 1e-10
    assert p.local_value(0, x0) <= 1e-20


def test_lrmc_grad_finite_differences():
    rng = np.random.default_rng(18)
    m, t, r = 20, 30, 3
    nu = lrmc_mask_density(m, t, r)
    spec = manifolds.stiefel(m, r)
    a = rng.standard_normal((m, t))
    mask = rng.uniform(size=(m, t)) <= nu
    p = LrmcProblem([(a, mask)], spec)
    x = spec.random_point(rng)
    fd = fd_gradient(lambda z: p.local_value(0, z), x)
    assert rel_err(fd, p.local_grad(0, x)) < 1e-4


def test_lrmc_inner_solve_is_a_minimizer():
    # Perturbing any single column of V never decreases the local objective.
    rng = np.random.default_rng(19)
    m, t, r = 15, 10, 3
    nu = lrmc_mask_density(m, t, r)
    a = rng.standard_normal((m, t))
    mask = rng.uniform(size=(m, t)) <= nu
    spec = manifolds.stiefel(m, r)
    p = LrmcProblem([(a, mask)], spec)
    x = spec.random_point(rng)
    v = p.inner_solve(0, x)

    def objective(vv):
        res = np.where(mask, x @ vv - a, 0.0)
        return 0.5 * np.sum(res * res)

    base = objective(v)
    for c in range(t):
        for sign in (1.0, -1.0):
            vv = v.copy()
            direction = rng.standard_normal(r)
            vv[:, c] += sign * 1e-3 * direction
            assert objective(vv) >= base - 1e-12


def test_gen_lrmc_mask_density_binomial_bound():
    problem, _ = gen_lrmc_data(8, 100, 1000, 5, seed=7)
    nu = lrmc_mask_density(100, 1000, 5)
    total = 100 * 1000
    observed = sum(int(mask.sum()) for _, mask in problem.data)
    sd = np.sqrt(nu * (1.0 - nu) / total)
    assert abs(observed / total - nu) <= 3.0 * sd


def test_gen_lrmc_full_observation_when_r_equals_m():
    assert lrmc_mask_density(6, 30, 6) == 1.0
    problem, _ = gen_lrmc_data(3, 6, 30, 6, seed=1)
    assert all(mask.all() for _, mask in problem.data)


def test_gen_lrmc_deterministic_and_optimal():
    p1, t1 = gen_lrmc_data(4, 30, 40, 3, seed=2)
    p2, _ = gen_lrmc_data(4, 30, 40, 3, seed=2)
    for (a1, m1), (a2, m2) in zip(p1.data, p2.data):
        assert a1.tobytes() == a2.tobytes() and np.array_equal(m1, m2)
    # The planted column space fits all observations: objective zero.
    assert p1.mean_value_and_gradient(t1.x_star)[0] <= 1e-18


def test_gen_lrmc_uneven_split_covers_all_columns():
    problem, _ = gen_lrmc_data(16, 20, 1000, 5, seed=3)
    widths = [a.shape[1] for a, _ in problem.data]
    assert sum(widths) == 1000 and max(widths) - min(widths) <= 1


def test_lrmc_bits_do_not_depend_on_block_layout():
    problem, _ = gen_lrmc_data(4, 30, 80, 3, seed=7)
    c_order = LrmcProblem([(np.ascontiguousarray(a), np.ascontiguousarray(mask))
                           for a, mask in problem.data], problem.spec)
    f_order = LrmcProblem([(np.asfortranarray(a), np.asfortranarray(mask))
                           for a, mask in problem.data], problem.spec)
    rng = np.random.default_rng(21)
    xs = np.stack([problem.spec.random_point(rng) for _ in range(4)])
    assert c_order.local_grads(xs).tobytes() == f_order.local_grads(xs).tobytes()
    value_c, grad_c = c_order.mean_value_and_gradient(xs[0])
    value_f, grad_f = f_order.mean_value_and_gradient(xs[0])
    assert value_c == value_f and grad_c.tobytes() == grad_f.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([3, 5, 8]), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_lrmc_stacked_solve_equals_per_agent_terms_bitwise(widths, seed):
    # Agents with 1, 2 or 3 distinct widths, in any order; column 0 of each
    # block is unobserved and its last column has fewer than r observations.
    m, r = 9, 3
    rng = np.random.default_rng(seed)
    agents = []
    for w in widths:
        mask = rng.random((m, w)) < 0.5
        mask[:, 0] = False
        mask[:, -1] = np.arange(m) < r - 1
        agents.append((rng.standard_normal((m, w)), mask))
    spec = manifolds.stiefel(m, r)
    p = LrmcProblem(agents, spec)
    xs = np.stack([spec.random_point(rng) for _ in widths])
    grads = p.local_grads(xs)
    for i in range(len(widths)):
        assert np.array_equal(grads[i], p.local_grad(i, xs[i]))
    total, g = 0.0, np.zeros((m, r))
    for i in range(len(widths)):
        total += p.local_value(i, xs[0])
        g += p.local_grad(i, xs[0])
    value, grad = p.mean_value_and_gradient(xs[0])
    assert value == total / len(widths)
    assert np.array_equal(grad, g / len(widths))


def test_lrmc_rejects_blocks_unlike_its_row_count():
    problem, _ = gen_lrmc_data(2, 6, 8, 2, seed=0)
    with pytest.raises(InvalidInputError, match="5 rows"):
        LrmcProblem(problem.data, manifolds.stiefel(5, 2))

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt.errors import InvalidInputError, NonFiniteError, SingularityError
from decmanopt.manifolds import check_projection_lipschitz, generalized_stiefel, stiefel
from decmanopt.numerics import NEAR_IDENTITY, sym
from decmanopt.problems import GevpProblem, PcaProblem, gevp_constraint


def random_spd(d, rng, spread=2.0):
    g = rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    w = np.linspace(1.0, spread, d)
    return q @ np.diag(w) @ q.T


def test_project_fixed_point():
    rng = np.random.default_rng(0)
    spec = stiefel(8, 3)
    x = spec.random_point(rng)
    assert np.linalg.norm(spec.project(x) - x) <= 1e-12


def test_project_removes_column_scaling():
    rng = np.random.default_rng(1)
    spec = stiefel(8, 3)
    x = spec.random_point(rng)
    assert np.linalg.norm(spec.project(2.5 * x) - x) <= 1e-10


def test_project_is_nearest_point():
    # Brute-force oracle: local minimization of ||m - y|| over the manifold
    # from several random restarts must not beat the polar factor.
    rng = np.random.default_rng(2)
    spec = stiefel(10, 5)
    y = rng.standard_normal((10, 5))
    p = spec.project(y)
    d_polar = np.linalg.norm(p - y)
    best = np.inf
    for _ in range(10):
        m = spec.random_point(rng)
        for _ in range(500):
            m = spec.project(m - 0.5 * (m - y))
        best = min(best, np.linalg.norm(m - y))
    assert d_polar <= best + 1e-6


def test_project_idempotent():
    rng = np.random.default_rng(3)
    for spec in (stiefel(10, 5), generalized_stiefel(6, 2, random_spd(6, rng))):
        for _ in range(20):
            y = rng.standard_normal((spec.d, spec.r))
            p = spec.project(y)
            assert spec.feasibility_residual(p) <= 1e-8
            assert np.linalg.norm(spec.project(p) - p) <= 1e-8


def test_project_rank_deficient_rejected():
    spec = stiefel(5, 2)
    y = np.zeros((5, 2))
    y[:, 0] = 1.0
    y[:, 1] = 1.0
    with pytest.raises(SingularityError):
        spec.project(y)


def rank_deficient_b_stiefel_stack(rng, bad=2, n=5):
    spec = generalized_stiefel(6, 3, random_spd(6, rng))
    xs = np.stack([spec.random_point(rng) for _ in range(n)])
    xs[bad, :, 2] = xs[bad, :, 1]
    return spec, xs


def test_b_stiefel_project_stack_names_rank_deficient_block():
    spec, ys = rank_deficient_b_stiefel_stack(np.random.default_rng(16))
    with pytest.raises(SingularityError) as info:
        spec.project_stack(ys)
    assert info.value.block == 2


def test_stacked_maps_equal_per_agent_maps_bitwise():
    rng = np.random.default_rng(18)
    for spec in (stiefel(8, 3), generalized_stiefel(8, 3, random_spd(8, rng))):
        ys = rng.standard_normal((5, 8, 3))
        us = rng.standard_normal((5, 8, 3))
        xs = spec.project_stack(ys)
        ts = spec.tangent_project_stack(xs, us)
        for i in range(5):
            assert xs[i].tobytes() == spec.project(ys[i]).tobytes()
            assert ts[i].tobytes() == spec.tangent_project(xs[i], us[i]).tobytes()


def test_norm_of_a_stack_is_blockwise_and_matches_inner():
    rng = np.random.default_rng(19)
    for spec in (stiefel(8, 3), generalized_stiefel(8, 3, random_spd(8, rng))):
        us = rng.standard_normal((5, 8, 3))
        norms = spec.norm(us)
        assert norms.shape == (5,)
        for i in range(5):
            assert norms[i] == pytest.approx(spec.norm(us[i]), rel=1e-14)
            assert spec.norm(us[i]) ** 2 == pytest.approx(spec.inner(us[i], us[i]), rel=1e-14)


def test_tangent_project_idempotent_and_kills_base():
    rng = np.random.default_rng(4)
    spec = stiefel(9, 4)
    x = spec.random_point(rng)
    u = rng.standard_normal((9, 4))
    pu = spec.tangent_project(x, u)
    assert np.linalg.norm(sym(x.T @ pu)) <= 1e-8  # sym(x'u) = 0 on the tangent space
    assert np.linalg.norm(spec.tangent_project(x, pu) - pu) <= 1e-9
    # u = x projects to zero since sym(x'x) = I.
    assert np.linalg.norm(spec.tangent_project(x, x)) <= 1e-10


def test_tangent_project_orthogonal_decomposition():
    # The residual u - P(u) must be orthogonal, in the manifold's metric, to
    # every tangent vector.
    rng = np.random.default_rng(5)
    for spec in (stiefel(10, 5), generalized_stiefel(7, 3, random_spd(7, rng))):
        x = spec.random_point(rng)
        u = rng.standard_normal((spec.d, spec.r))
        normal_part = u - spec.tangent_project(x, u)
        for _ in range(20):
            w = spec.random_tangent(x, rng, 1.0)
            assert abs(spec.inner(normal_part, w)) <= 1e-8 * max(1.0, spec.norm(w))


def test_tangent_project_self_adjoint():
    rng = np.random.default_rng(6)
    for spec in (stiefel(10, 5), generalized_stiefel(6, 2, random_spd(6, rng))):
        x = spec.random_point(rng)
        for _ in range(10):
            u = rng.standard_normal((spec.d, spec.r))
            w = rng.standard_normal((spec.d, spec.r))
            lhs = spec.inner(spec.tangent_project(x, u), w)
            rhs = spec.inner(u, spec.tangent_project(x, w))
            assert abs(lhs - rhs) <= 1e-9


def test_riemannian_gradient_degenerate_cases():
    rng = np.random.default_rng(7)
    spec = stiefel(8, 3)
    x = spec.random_point(rng)
    s = rng.standard_normal((3, 3))
    normal = x @ (s + s.T)
    assert np.linalg.norm(spec.tangent_project(x, normal)) <= 1e-9
    tangent = spec.random_tangent(x, rng, 1.0)
    assert np.linalg.norm(spec.tangent_project(x, tangent) - tangent) <= 1e-9


def test_riemannian_gradient_directional_derivative():
    # Finite differences along projection-retracted tangent curves.
    rng = np.random.default_rng(8)
    spec = stiefel(10, 5)
    problem = PcaProblem([rng.standard_normal((40, 10)) for _ in range(3)], spec)
    x = spec.random_point(rng)
    grad = spec.tangent_project(x, problem.mean_value_and_gradient(x)[1])
    h = 1e-6
    for _ in range(10):
        w = spec.random_tangent(x, rng, 1.0)
        fp = problem.mean_value_and_gradient(spec.project(x + h * w))[0]
        fm = problem.mean_value_and_gradient(spec.project(x - h * w))[0]
        fd = (fp - fm) / (2.0 * h)
        an = float(np.sum(grad * w))
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_b_stiefel_riemannian_gradient_directional_derivative():
    # In whitened coordinates, <grad f(z), xi> is the derivative of f along
    # the polar curve P(z + h xi) for tangent xi.
    rng = np.random.default_rng(19)
    spec = generalized_stiefel(8, 3, random_spd(8, rng))
    problem = GevpProblem([rng.standard_normal((30, 8)) for _ in range(3)], spec)
    x = spec.random_point(rng)
    grad = spec.riemannian_gradient(x, problem.mean_value_and_gradient(x)[1])
    h = 1e-6
    for _ in range(10):
        xi = spec.random_tangent(x, rng, 1.0)
        fd = (problem.mean_value_and_gradient(spec.project(x + h * xi))[0]
              - problem.mean_value_and_gradient(spec.project(x - h * xi))[0]) / (2.0 * h)
        an = spec.inner(grad, xi)
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_b_stiefel_riemannian_gradient_vanishes_at_generalized_eigenvectors():
    rng = np.random.default_rng(20)
    b = random_spd(8, rng, spread=3.0)
    spec = generalized_stiefel(8, 3, b)
    problem = GevpProblem([rng.standard_normal((30, 8)) for _ in range(3)], spec)
    s = sum(a.T @ a for a in problem.agents)
    _, v = scipy.linalg.eigh(s, b)
    z_star = spec.chol @ v[:, :3]  # the generalized eigenvectors, whitened
    egrad = problem.mean_value_and_gradient(z_star)[1]
    assert spec.feasibility_residual(z_star) <= 1e-10
    assert spec.norm(spec.riemannian_gradient(z_star, egrad)) <= 1e-10 * np.linalg.norm(egrad)


def test_normal_vector_inequality_stiefel():
    # <v, y - x> <= (||v|| / 2) ||y - x||^2 for normals v (radius one).
    rng = np.random.default_rng(9)
    spec = stiefel(10, 5)
    for _ in range(200):
        x = spec.random_point(rng)
        y = spec.random_point(rng)
        s = rng.standard_normal((5, 5))
        v = x @ (s + s.T)
        lhs = np.sum(v * (y - x))
        rhs = 0.5 * np.linalg.norm(v) * np.linalg.norm(y - x) ** 2
        assert lhs <= rhs + 1e-9


def test_retraction_first_order_agreement():
    # ||P(x + xi) - x - xi|| / ||xi||^2 stays bounded as xi shrinks.
    rng = np.random.default_rng(10)
    spec = stiefel(10, 5)
    x = spec.random_point(rng)
    xi0 = spec.random_tangent(x, rng, 1.0)
    ratios = []
    for scale in (1e-1, 1e-2, 1e-3, 1e-4):
        xi = scale * xi0
        ratios.append(np.linalg.norm(spec.project(x + xi) - x - xi) / scale**2)
    assert max(ratios) <= 3.0 * max(ratios[0], 1e-6)


def test_projection_probe_zero_perturbation():
    rng = np.random.default_rng(11)
    spec = stiefel(6, 2)
    x = spec.random_point(rng)
    # With u = 0 both probe numerators vanish (up to one reprojection's roundoff).
    assert np.linalg.norm(spec.project(x + 0.0) - x) <= 1e-13
    assert np.linalg.norm(spec.tangent_project(x, np.zeros((6, 2)))) == 0.0


def test_projection_probe_quadratic_ratio_stable():
    # O(||u||^2) behavior: the ratio does not diverge as the scale shrinks.
    # Seed 4 drew ||u|| near zero when ||u|| was uniform on [0, s], so the
    # ratio measured the roundoff of x itself.
    b_spec = generalized_stiefel(10, 5, random_spd(10, np.random.default_rng(21), spread=3.0))
    for spec, trials, seed in ((stiefel(10, 5), 200, 12), (stiefel(10, 5), 300, 4),
                               (b_spec, 300, 4)):
        ratios = []
        for scale in (1e-2, 1e-3, 1e-4):
            report = check_projection_lipschitz(spec, trials=trials, noise_scale=scale, seed=seed)
            ratios.append(report.max_ratio_quad)
        assert max(ratios) < 3.0 * min(ratios)


def test_projection_probe_lipschitz_bound():
    spec = stiefel(10, 5)
    report = check_projection_lipschitz(spec, trials=500, noise_scale=0.3, seed=13)
    assert report.max_ratio_lip <= 2.0
    assert np.isfinite(report.max_ratio_quad)


def test_projection_probe_rejects_bad_inputs():
    spec = stiefel(10, 5)
    for scale in (-0.1, 0.0, spec.gamma * 1.01):
        with pytest.raises(InvalidInputError, match=r"noise_scale must lie in \(0, gamma\]"):
            check_projection_lipschitz(spec, trials=5, noise_scale=scale)
    with pytest.raises(InvalidInputError, match="trials must be at least 1"):
        check_projection_lipschitz(spec, trials=0)


def test_b_stiefel_projection_lemma():
    # In the B-metric, B-polar agrees with the tangent projection to second
    # order and is 2-Lipschitz within gamma: criterion 8's probes, with its
    # trials and seeds, on a generalized Stiefel manifold.
    rng = np.random.default_rng(21)
    spec = generalized_stiefel(10, 5, random_spd(10, rng, spread=3.0))
    ratios = []
    for scale in (1e-2, 1e-3, 1e-4):
        report = check_projection_lipschitz(spec, trials=300, noise_scale=scale, seed=1)
        ratios.append(report.max_ratio_quad)
    assert max(ratios) < 3.0 * min(ratios)
    report = check_projection_lipschitz(spec, trials=1000, seed=0)
    assert report.max_ratio_lip <= 2.0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_projection_idempotent_and_2_lipschitz_within_gamma(shape, b_stiefel, seed):
    # The projection lemma's two properties, in the metric norm, on Stiefel
    # and on B-Stiefel with the GEVP testbed's B.
    d, r = shape
    rng = np.random.default_rng(seed)
    spec = generalized_stiefel(d, r, gevp_constraint(d, rng)) if b_stiefel else stiefel(d, r)
    x = spec.random_point(rng)
    u, up = rng.standard_normal((2, d, r))
    u *= rng.uniform(0.0, spec.gamma) / spec.norm(u)
    up *= rng.uniform(0.0, spec.gamma) / spec.norm(up)
    p, pp = spec.project(x + u), spec.project(x + up)
    assert spec.norm(spec.project(p) - p) <= 1e-12
    assert spec.norm(p - pp) <= 2.0 * spec.norm(u - up)


def test_generalized_projection_feasible():
    rng = np.random.default_rng(14)
    spec = generalized_stiefel(8, 3, random_spd(8, rng))
    y = rng.standard_normal((8, 3))
    p = spec.project(y)
    assert spec.feasibility_residual(p) <= 1e-8
    # B-polar of a feasible point is the point itself.
    assert np.linalg.norm(spec.project(p) - p) <= 1e-8


def test_generalized_gamma_default():
    # B-Stiefel is an isometric copy of Stiefel in the B-norm, so it takes
    # the certified Stiefel radius whatever B is.
    rng = np.random.default_rng(15)
    spec = generalized_stiefel(5, 2, random_spd(5, rng, spread=4.0))
    assert spec.gamma == 0.5


def test_random_point_feasible_and_seeded():
    spec = stiefel(12, 4)
    a = spec.random_point(np.random.default_rng(42))
    b = spec.random_point(np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert spec.feasibility_residual(a) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
       st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
def test_b_stiefel_gram_asymmetry_within_rounding_bound(shape, log_kappa, seed):
    # ||G - G'||_F <= 2 gamma_d sqrt(r) ||G||_F for the grams of whitened
    # draws Cy, with B up to kappa = 1e10: the bound a gram summed in
    # different orders for G_ij and G_ji would meet.  numpy's grams are
    # exactly symmetric (the next test).
    d, r = shape
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    spec = generalized_stiefel(d, r, (q * np.logspace(0.0, log_kappa, d)) @ q.T)
    ys = spec.chol @ rng.standard_normal((4, d, r)) * rng.uniform(0.1, 10.0, (4, 1, 1))
    g = spec.gram(ys)
    u = np.finfo(float).eps / 2
    gamma_d = d * u / (1 - d * u)
    asym = np.linalg.norm(g - g.mT, axis=(-2, -1))
    assert np.all(asym <= 2 * gamma_d * np.sqrt(r) * np.linalg.norm(g, axis=(-2, -1)))


@pytest.mark.parametrize("b", [None, "spd"])
@pytest.mark.parametrize("blocks", [None, 1, 3, 8])
def test_gram_is_exactly_symmetric(b, blocks):
    # project hands the gram to inverse_sqrt without sym: numpy forms y'y
    # as a symmetric rank-k update and mirrors its triangle, so sym would
    # return it bit for bit.
    rng = np.random.default_rng(22)
    spec = stiefel(10, 5) if b is None else generalized_stiefel(10, 5, random_spd(10, rng))
    ys = rng.standard_normal((10, 5) if blocks is None else (blocks, 10, 5))
    g = spec.gram(ys)
    assert np.array_equal(g, g.mT)
    assert sym(g).tobytes() == g.tobytes()


def test_b_stiefel_projection_near_the_manifold_calls_no_eigh(monkeypatch):
    rng = np.random.default_rng(21)
    spec = generalized_stiefel(8, 3, random_spd(8, rng))
    xs = np.stack([spec.random_point(rng) for _ in range(5)])
    ys = xs + 1e-4 * rng.standard_normal(xs.shape)
    assert np.all(spec.feasibility_residual(ys) <= NEAR_IDENTITY)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    ps = spec.project_stack(ys)
    assert calls == []
    assert np.all(spec.feasibility_residual(ps) <= 1e-14)
    ys[2] *= 2.0  # gram 4 I: only this block goes through eigh
    spec.project_stack(ys)
    assert calls == [(1, 3, 3)]


def test_specs_compare_and_hash_by_identity():
    b = random_spd(5, np.random.default_rng(30))
    specs = [generalized_stiefel(5, 2, b), generalized_stiefel(5, 2, b.copy()), stiefel(5, 2)]
    assert [s == t for s in specs for t in specs] == [s is t for s in specs for t in specs]
    assert len({*specs, *specs}) == 3


@pytest.mark.parametrize("b, error, message", [
    (np.array([[1.0, 2.0], [0.0, 1.0]]), InvalidInputError, "not symmetric within tolerance"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteError, "matrix contains NaN or Inf"),
    (np.diag([1.0, -1.0]), InvalidInputError, "b must be symmetric positive definite"),
    (np.diag([1.0, 1e-13]), InvalidInputError, "b must be symmetric positive definite"),
    (np.eye(3), InvalidInputError, r"b must be 2x2, got \(3, 3\)"),
], ids=["asymmetric", "nan", "indefinite", "near-singular", "shape"])
def test_generalized_stiefel_rejects_a_bad_b(b, error, message):
    with pytest.raises(error, match=message):
        generalized_stiefel(2, 1, b)


def test_generalized_stiefel_draws_are_ambient_draws_mapped_by_c():
    # z = Cx: a random point is C times the B-polar factor of the same
    # Gaussian draw, and a random tangent is C times the B-orthogonal
    # tangent projection of the next draw, scaled to unit B-norm.
    b = random_spd(7, np.random.default_rng(23), spread=3.0)
    spec = generalized_stiefel(7, 3, b)
    z = spec.random_point(np.random.default_rng(24))
    t = spec.random_tangent(z, np.random.default_rng(25), 1.0)
    g = np.random.default_rng(24).standard_normal((7, 3))
    w, v = np.linalg.eigh(g.T @ b @ g)
    x = g @ (v / np.sqrt(w)) @ v.T
    u = np.random.default_rng(25).standard_normal((7, 3))
    tx = u - x @ sym(x.T @ b @ u)
    tx /= np.sqrt(np.sum(tx * (b @ tx)))
    assert np.linalg.norm(z - spec.chol @ x) <= 1e-13
    assert np.linalg.norm(t - spec.chol @ tx) <= 1e-13

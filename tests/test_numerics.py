import numpy as np
import pytest
import scipy.linalg

from decmanopt.errors import InvalidInputError, SingularityError
from decmanopt.numerics import (
    lyapunov_solve,
    spd_inverse_sqrt,
    sym_eig,
    thin_svd,
)


def test_thin_svd_identity():
    u, s, v = thin_svd(np.eye(3))
    assert np.allclose(s, 1.0)
    assert np.allclose(u @ np.diag(s) @ v.T, np.eye(3), atol=1e-12)


def test_thin_svd_diagonal():
    _, s, _ = thin_svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_thin_svd_reconstruction_oracle():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 3))
    u, s, v = thin_svd(m)
    assert np.linalg.norm(u @ np.diag(s) @ v.T - m) < 1e-10


def test_thin_svd_random_invariants():
    # Reconstruction and orthonormality over many shapes up to 100 x 20.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        q = int(rng.integers(1, 21))
        p = int(rng.integers(q, 101))
        m = rng.standard_normal((p, q))
        u, s, v = thin_svd(m)
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) <= 1e-10 * scale
        assert np.linalg.norm(u.T @ u - np.eye(q)) <= 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(q)) <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_thin_svd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        thin_svd(np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        thin_svd(np.zeros((2, 3)))


def test_sym_eig_identity():
    w, _ = sym_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_sym_eig_swap_matrix():
    w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_sym_eig_residual_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    m = a + a.T
    w, v = sym_eig(m)
    scale = np.linalg.norm(m)
    for j in range(5):
        assert np.linalg.norm(m @ v[:, j] - w[j] * v[:, j]) <= 1e-9 * scale
    assert np.linalg.norm(v.T @ v - np.eye(5)) <= 1e-10
    assert np.all(np.diff(w) >= 0)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_spd_inverse_sqrt_identity():
    assert np.allclose(spd_inverse_sqrt(np.eye(4)), np.eye(4), atol=1e-12)


def test_spd_inverse_sqrt_diagonal():
    r = spd_inverse_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


def test_spd_inverse_sqrt_defining_identity_and_commutation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.standard_normal((6, 6))
        m = g.T @ g + np.eye(6)
        r = spd_inverse_sqrt(m)
        assert np.linalg.norm(r @ m @ r - np.eye(6)) <= 1e-9
        assert np.linalg.norm(r @ m - m @ r) <= 1e-9


def test_spd_inverse_sqrt_rejects_indefinite():
    with pytest.raises(SingularityError):
        spd_inverse_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(SingularityError):
        spd_inverse_sqrt(np.diag([1.0, 0.0]))


def test_lyapunov_identity_coefficient():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((4, 4))
    c = c + c.T
    assert np.allclose(lyapunov_solve(np.eye(4), c), c, atol=1e-12)


def test_lyapunov_diagonal_example():
    s = lyapunov_solve(np.diag([1.0, 3.0]), np.array([[2.0, 4.0], [4.0, 6.0]]))
    assert np.allclose(s, np.full((2, 2), 2.0), atol=1e-12)


def test_lyapunov_defining_equation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.standard_normal((5, 5))
        m = g.T @ g + 0.5 * np.eye(5)
        c = rng.standard_normal((5, 5))
        c = c + c.T
        s = lyapunov_solve(m, c)
        assert np.allclose(s, s.T, atol=1e-12)
        assert np.linalg.norm(m @ s + s @ m - 2.0 * c) <= 1e-9 * np.linalg.norm(c)


def test_lyapunov_rejects_indefinite():
    with pytest.raises(SingularityError):
        lyapunov_solve(np.diag([1.0, -2.0]), np.eye(2))


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((40, 12))
    u1, s1, v1 = thin_svd(m)
    u2, s2, v2 = thin_svd(m.copy())
    assert u1.tobytes() == u2.tobytes()
    assert s1.tobytes() == s2.tobytes()
    assert v1.tobytes() == v2.tobytes()


# -- stacked kernels ---------------------------------------------------------


def random_spd_stack(rng, n=6, r=5):
    g = rng.standard_normal((n, r, r))
    return np.swapaxes(g, -1, -2) @ g + 0.5 * np.eye(r)


def random_sym_stack(rng, n=6, r=5):
    c = rng.standard_normal((n, r, r))
    return c + np.swapaxes(c, -1, -2)


def test_lyapunov_stack_matches_scipy_sylvester_oracle():
    rng = np.random.default_rng(9)
    ms, cs = random_spd_stack(rng), random_sym_stack(rng)
    ss = lyapunov_solve(ms, cs)
    for m, c, s in zip(ms, cs, ss):
        ref = scipy.linalg.solve_sylvester(m, m, 2.0 * c)
        assert np.linalg.norm(s - ref) <= 1e-10 * np.linalg.norm(ref)


def test_spd_inverse_sqrt_stack_matches_scipy_fractional_power_oracle():
    rng = np.random.default_rng(10)
    ms = random_spd_stack(rng)
    rs = spd_inverse_sqrt(ms)
    for m, r in zip(ms, rs):
        ref = scipy.linalg.fractional_matrix_power(m, -0.5)
        assert np.max(np.abs(r - ref.real)) <= 1e-10
        assert np.max(np.abs(ref.imag)) <= 1e-10


def test_stacked_kernels_equal_per_matrix_calls_bitwise():
    rng = np.random.default_rng(11)
    ms, cs = random_spd_stack(rng), random_sym_stack(rng)
    w, v = sym_eig(ms)
    rs = spd_inverse_sqrt(ms)
    ss = lyapunov_solve(ms, cs)
    ys = rng.standard_normal((6, 8, 3))
    u, sv, vv = thin_svd(ys)
    for i in range(len(ms)):
        w1, v1 = sym_eig(ms[i])
        assert w[i].tobytes() == w1.tobytes() and v[i].tobytes() == v1.tobytes()
        assert rs[i].tobytes() == spd_inverse_sqrt(ms[i]).tobytes()
        assert ss[i].tobytes() == lyapunov_solve(ms[i], cs[i]).tobytes()
        u1, s1, v1 = thin_svd(ys[i])
        assert u[i].tobytes() == u1.tobytes() and sv[i].tobytes() == s1.tobytes()
        assert vv[i].tobytes() == v1.tobytes()


def lyapunov_on_coefficient(m):
    return lyapunov_solve(m, np.eye(m.shape[-1]))


def lyapunov_on_rhs(c):
    return lyapunov_solve(np.eye(c.shape[-1]), c)


@pytest.mark.parametrize("kernel", [sym_eig, spd_inverse_sqrt, lyapunov_on_coefficient])
def test_stack_rejects_an_asymmetric_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(12))
    ms[3, 0, 1] += 1.0
    with pytest.raises(InvalidInputError, match="block 3") as info:
        kernel(ms)
    assert info.value.block == 3


@pytest.mark.parametrize("kernel", [spd_inverse_sqrt, lyapunov_on_coefficient])
def test_stack_rejects_an_indefinite_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(13))
    ms[4] = np.diag([1.0, 2.0, -1.0, 3.0, 4.0])
    with pytest.raises(SingularityError, match="block 4") as info:
        kernel(ms)
    assert info.value.block == 4


@pytest.mark.parametrize("kernel", [sym_eig, spd_inverse_sqrt, thin_svd, lyapunov_on_rhs])
def test_stack_rejects_a_non_finite_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(14))
    ms[1, 2, 2] = np.nan
    with pytest.raises(InvalidInputError, match="block 1") as info:
        kernel(ms)
    assert info.value.block == 1

import numpy as np
import pytest
import scipy.linalg

from decmanopt.errors import InvalidInputError, NonFiniteError, SingularityError
from decmanopt.numerics import NEAR_IDENTITY, _inverse_sqrt, spd_inverse_sqrt, sym, sym_eig, thin_svd


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


def test_spd_inverse_sqrt_stack_matches_scipy_fractional_power_oracle():
    rng = np.random.default_rng(10)
    ms = random_spd_stack(rng)
    rs = spd_inverse_sqrt(ms)
    for m, r in zip(ms, rs):
        ref = scipy.linalg.fractional_matrix_power(m, -0.5)
        assert np.max(np.abs(r - ref.real)) <= 1e-10
        assert np.max(np.abs(ref.imag)) <= 1e-10


def near_identity_stack(rng, dists, r=5):
    """I + dist * a for unit-Frobenius symmetric a: ||m - I||_F = dist."""
    a = sym(rng.standard_normal((len(dists), r, r)))
    a /= np.linalg.norm(a, axis=(-2, -1))[:, None, None]
    return np.eye(r) + np.asarray(dists, dtype=float)[:, None, None] * a


def test_near_identity_inverse_sqrt_matches_scipy_and_inverts(monkeypatch):
    dists = [0.0, 1e-15, 1e-8, 1e-3, 0.99 * NEAR_IDENTITY]
    ms = near_identity_stack(np.random.default_rng(15), dists)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    rs = spd_inverse_sqrt(ms)
    assert calls == []
    assert rs[0].tobytes() == np.eye(5).tobytes()
    for m, r in zip(ms, rs):
        ref = scipy.linalg.fractional_matrix_power(m, -0.5)
        assert np.max(np.abs(r - ref.real)) <= 1e-14
        assert np.linalg.norm(r @ m @ r - np.eye(5)) <= 1e-14


def test_stacked_kernels_equal_per_matrix_calls_bitwise():
    # Far blocks go through eigh, near ones take Newton–Schulz steps (as
    # many as their distance from I needs); mixed stacks take both paths.
    rng = np.random.default_rng(11)
    far = random_spd_stack(rng)
    near = near_identity_stack(rng, [1e-3, 0.0, 1e-15, 1e-8, 0.99 * NEAR_IDENTITY, 1e-5])
    mixed = np.where((np.arange(6) % 2 == 0)[:, None, None], near, far)
    ys = rng.standard_normal((6, 8, 3))
    u, sv, vv = thin_svd(ys)
    for i in range(len(ys)):
        u1, s1, v1 = thin_svd(ys[i])
        assert u[i].tobytes() == u1.tobytes() and sv[i].tobytes() == s1.tobytes()
        assert vv[i].tobytes() == v1.tobytes()
    for ms in (far, near, mixed):
        w, v = sym_eig(ms)
        rs = spd_inverse_sqrt(ms)
        for i in range(len(ms)):
            w1, v1 = sym_eig(ms[i])
            assert w[i].tobytes() == w1.tobytes() and v[i].tobytes() == v1.tobytes()
            assert rs[i].tobytes() == spd_inverse_sqrt(ms[i]).tobytes()
            assert rs[i].tobytes() == spd_inverse_sqrt(ms[i:i + 1])[0].tobytes()


def test_core_names_far_blocks_by_their_index_in_a_near_stack():
    ms = near_identity_stack(np.random.default_rng(16), [1e-3, 0.0, 1e-8, 1e-5, 1e-12, 0.0])
    bad = ms.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(NonFiniteError, match="block 2") as info:
        _inverse_sqrt(bad)
    assert info.value.block == 2
    bad = ms.copy()
    bad[4] = np.diag([1.0, 2.0, -1.0, 3.0, 4.0])
    with pytest.raises(SingularityError, match="block 4") as info:
        _inverse_sqrt(bad)
    assert info.value.block == 4


def test_public_kernel_rejects_an_asymmetric_near_identity_block():
    ms = near_identity_stack(np.random.default_rng(17), [1e-3, 0.0, 1e-8, 1e-5])
    ms[3, 0, 1] += 1e-6
    with pytest.raises(InvalidInputError, match="block 3") as info:
        spd_inverse_sqrt(ms)
    assert info.value.block == 3


@pytest.mark.parametrize("kernel", [sym_eig, spd_inverse_sqrt])
def test_stack_rejects_an_asymmetric_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(12))
    ms[3, 0, 1] += 1.0
    with pytest.raises(InvalidInputError, match="block 3") as info:
        kernel(ms)
    assert info.value.block == 3


@pytest.mark.parametrize("kernel", [spd_inverse_sqrt])
def test_stack_rejects_an_indefinite_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(13))
    ms[4] = np.diag([1.0, 2.0, -1.0, 3.0, 4.0])
    with pytest.raises(SingularityError, match="block 4") as info:
        kernel(ms)
    assert info.value.block == 4


@pytest.mark.parametrize("kernel", [sym_eig, spd_inverse_sqrt, thin_svd])
def test_stack_rejects_a_non_finite_block_naming_it(kernel):
    ms = random_spd_stack(np.random.default_rng(14))
    ms[1, 2, 2] = np.nan
    with pytest.raises(InvalidInputError, match="block 1") as info:
        kernel(ms)
    assert info.value.block == 1

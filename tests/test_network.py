import math

import numpy as np
import pytest

from decmanopt.errors import FormatError, InvalidInputError
from decmanopt.network import (
    Graph,
    MixingMatrix,
    build_graph,
    consensus_radius_t,
    load_graph,
    metropolis_weights,
    mix,
    save_graph,
)


def test_ring_shape():
    g = build_graph("ring", 8)
    assert len(g.edges) == 8
    assert np.all(g.degrees() == 2)


def test_complete_shape():
    g = build_graph("complete", 4)
    assert len(g.edges) == 6


def test_erdos_renyi_connected_and_reproducible():
    g1 = build_graph("er", 8, seed=7, p=0.6)
    g2 = build_graph("er", 8, seed=7, p=0.6)
    assert g1.edges == g2.edges
    assert 7 <= len(g1.edges) <= 28
    assert build_graph("er", 8, seed=8, p=0.6).edges != g1.edges or True  # seeds may collide


def test_erdos_renyi_repair_low_p():
    # Tiny p almost surely samples a disconnected graph; repair must connect it.
    g = build_graph("er", 12, seed=0, p=0.01)
    assert Graph(g.n, g.edges)  # construction revalidates connectivity


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        Graph(4, frozenset({(0, 1)}))  # disconnected
    with pytest.raises(InvalidInputError):
        Graph(2, frozenset({(0, 0), (0, 1)}))  # self loop
    with pytest.raises(InvalidInputError):
        build_graph("er", 4, seed=0, p=0.0)


def test_metropolis_complete_is_uniform():
    m = metropolis_weights(build_graph("complete", 5))
    assert np.allclose(m.w, np.full((5, 5), 0.2), atol=1e-15)


def test_metropolis_complete4_sigma2_zero():
    m = metropolis_weights(build_graph("complete", 4))
    assert m.sigma2 <= 1e-12


def test_metropolis_ring8_weights_and_sigma2():
    m = metropolis_weights(build_graph("ring", 8))
    assert np.isclose(m.w[0, 1], 1.0 / 3.0)
    assert np.isclose(m.w[0, 0], 1.0 / 3.0)
    # Circulant eigenvalues 1/3 + (2/3) cos(2 pi k / 8); second singular value
    # at k = 1.
    expected = 1.0 / 3.0 + 2.0 / 3.0 * math.cos(math.pi / 4.0)
    assert abs(m.sigma2 - expected) <= 1e-10


def test_metropolis_invariants_random_er_graphs():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(3, 16))
        p = float(rng.uniform(0.1, 0.9))
        g = build_graph("er", n, seed=trial, p=p)
        m = metropolis_weights(g)  # constructor asserts the invariants
        assert 0.0 <= m.sigma2 < 1.0


def test_mixing_matrix_invariant_rejection():
    bad = np.array([[0.5, 0.5], [0.4, 0.6]])  # asymmetric
    with pytest.raises(InvalidInputError):
        MixingMatrix(2, bad, 0.1)
    with pytest.raises(InvalidInputError):
        MixingMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)  # zero diagonal


def test_mixing_matrix_rejects_wrong_sigma2():
    w = np.array([[0.75, 0.25], [0.25, 0.75]])  # singular values 1 and 1/2
    assert MixingMatrix(2, w, 0.5).sigma2 == 0.5
    with pytest.raises(InvalidInputError, match="sigma2"):
        MixingMatrix(2, w, 0.5 + 1e-9)


def test_mix_consensus_fixed_point():
    m = metropolis_weights(build_graph("ring", 6))
    x = np.tile(np.arange(12.0).reshape(4, 3), (6, 1, 1))
    assert np.allclose(mix(m, x, 3), x, atol=1e-14)


def test_mix_complete_graph_averages():
    m = metropolis_weights(build_graph("complete", 5))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3, 2))
    y = mix(m, x, 1)
    assert np.allclose(y, np.broadcast_to(x.mean(axis=0), x.shape), atol=1e-12)


def test_mix_matches_dense_power_oracle():
    m = metropolis_weights(build_graph("ring", 8))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 10, 5))
    y = mix(m, x, 3)
    w3 = np.linalg.matrix_power(m.w, 3)
    oracle = np.tensordot(w3, x, axes=(1, 0))
    assert np.max(np.abs(y - oracle)) <= 1e-12


def test_mix_preserves_average_and_contracts():
    rng = np.random.default_rng(3)
    m = metropolis_weights(build_graph("er", 9, seed=5, p=0.5))
    x = rng.standard_normal((9, 6, 2))
    for t in (1, 2, 5):
        y = mix(m, x, t)
        assert np.max(np.abs(y.mean(axis=0) - x.mean(axis=0))) <= 1e-12
        dev_x = x - x.mean(axis=0)
        dev_y = y - y.mean(axis=0)
        assert np.linalg.norm(dev_y) <= m.sigma2**t * np.linalg.norm(dev_x) + 1e-12


def test_mix_block_count_mismatch():
    m = metropolis_weights(build_graph("ring", 4))
    with pytest.raises(InvalidInputError):
        mix(m, np.zeros((5, 2, 2)), 1)


def test_consensus_radius_strict_inequality():
    w = np.array([[0.75, 0.25], [0.25, 0.75]])  # eigenvalues 1 and 1/2
    m = MixingMatrix(2, w, 0.5)
    zeta = 1.0
    gamma = 24.0 * math.sqrt(2.0) * zeta * 0.6  # ratio 0.6 >= 1/2
    assert consensus_radius_t(m, gamma, zeta, 2) == 2


def test_consensus_radius_vanishing_sigma2():
    m = metropolis_weights(build_graph("complete", 4))
    assert consensus_radius_t(m, 0.5, 1.0, 4) == 1


def test_consensus_radius_ring_cross_check():
    m = metropolis_weights(build_graph("ring", 8))
    gamma, zeta, n = 0.5, 2.0 * math.sqrt(5.0), 8
    t = consensus_radius_t(m, gamma, zeta, n)
    # Independent evaluation of the two logarithmic bounds.
    a = gamma / (24.0 * math.sqrt(n) * zeta)
    t_oracle = 1
    while not (m.sigma2**t_oracle < a and m.sigma2**t_oracle < 0.5):
        t_oracle += 1
    assert t == t_oracle == 30
    assert m.sigma2**t < min(a, 0.5) <= m.sigma2 ** (t - 1)


def test_graph_edge_list_round_trip(tmp_path):
    g = build_graph("er", 10, seed=4, p=0.4)
    path = tmp_path / "graph.txt"
    save_graph(path, g)
    g2 = load_graph(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_graph_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(FormatError):
        load_graph(path)
    path.write_text("")
    with pytest.raises(FormatError):
        load_graph(path)

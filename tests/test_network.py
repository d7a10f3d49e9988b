import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt.errors import InvalidInputError
from decmanopt.network import (
    MixingMatrix,
    build_graph,
    consensus_radius_t,
    metropolis_weights,
    mix,
)


def _edges(adj):
    return {(i, j) for i, j in zip(*np.nonzero(adj)) if i < j}


def _connected(adj):
    return scipy.sparse.csgraph.connected_components(adj, directed=False)[0] == 1


@pytest.mark.parametrize("topology", ["ring", "complete", "er"])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_every_topology_gives_a_symmetric_boolean_adjacency(topology, n):
    for seed in range(5):
        adj = build_graph(topology, n, seed=seed, p=0.3)
        assert adj.dtype == bool and adj.shape == (n, n)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert _connected(adj)


def test_ring_shape():
    adj = build_graph("ring", 8)
    assert len(_edges(adj)) == 8
    assert np.all(adj.sum(axis=1) == 2)
    assert _edges(build_graph("ring", 2)) == {(0, 1)}


def test_complete_shape():
    for n in (2, 4, 9):
        assert len(_edges(build_graph("complete", n))) == n * (n - 1) // 2


def test_erdos_renyi_connected_and_reproducible():
    g1 = build_graph("er", 8, seed=7, p=0.6)
    g2 = build_graph("er", 8, seed=7, p=0.6)
    assert np.array_equal(g1, g2)
    assert 7 <= len(_edges(g1)) <= 28
    assert not np.array_equal(build_graph("er", 8, seed=8, p=0.6), g1)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 33])
@pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.3, 0.6, 1.0])
def test_erdos_renyi_draws_one_uniform_per_pair_in_row_order(n, p):
    # Reference: one scalar draw per pair (i, j), i < j, in a double loop,
    # then the ring repair edge by edge: a connectivity check before each
    # ring edge (i, i+1 mod n), in order, and the edge added if it fails.
    ring = [(0, 1)] if n == 2 else [tuple(sorted((k, (k + 1) % n))) for k in range(n)]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sample = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p}
        for k in range(len(ring) + 1):
            expected = np.zeros((n, n), dtype=bool)
            for i, j in sample.union(ring[:k]):
                expected[i, j] = expected[j, i] = True
            if _connected(expected):
                break
        assert np.array_equal(build_graph("er", n, seed=seed, p=p), expected)


def test_erdos_renyi_repair_low_p():
    # Tiny p almost surely samples a disconnected graph; repair must connect it.
    adj = build_graph("er", 12, seed=0, p=0.01)
    assert _connected(adj)
    metropolis_weights(adj)  # revalidates connectivity


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        build_graph("er", 4, seed=0, p=0.0)
    with pytest.raises(InvalidInputError):
        build_graph("ring", 1)
    with pytest.raises(InvalidInputError):
        build_graph("star", 4)


def _adjacency(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize(
    "adj",
    [
        np.ones((2, 3), dtype=bool),  # not square
        np.ones((2, 2, 2), dtype=bool),  # not a matrix
        np.zeros((1, 1), dtype=bool),  # a single agent
        np.array([[False, True, False], [False, False, True], [True, True, False]]),  # asymmetric
        _adjacency(2, [(0, 0), (0, 1)]),  # self loop
        _adjacency(4, [(0, 1)]),  # disconnected
        _adjacency(4, [(0, 1), (2, 3)]),  # disconnected, no isolated vertex
    ],
)
def test_metropolis_rejects_invalid_adjacency(adj):
    with pytest.raises(InvalidInputError):
        metropolis_weights(adj)


def _metropolis_edge_loop(adj):
    """The weights as a loop over sorted edges, one scalar at a time."""
    n = len(adj)
    deg = adj.sum(axis=1)
    w = np.zeros((n, n))
    for i, j in sorted(_edges(adj)):
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def test_metropolis_weights_equal_the_edge_loop_bitwise():
    for n in range(2, 33):
        graphs = [build_graph("ring", n), build_graph("complete", n)]
        graphs += [build_graph("er", n, seed=seed, p=p) for seed in range(3) for p in (0.05, 0.3, 0.6)]
        for adj in graphs:
            assert metropolis_weights(adj).w.tobytes() == _metropolis_edge_loop(adj).tobytes()


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
        MixingMatrix(bad)
    with pytest.raises(InvalidInputError):
        MixingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))  # zero diagonal
    with pytest.raises(InvalidInputError):
        MixingMatrix(np.full((2, 3), 1.0 / 3.0))  # not square


def test_mixing_matrix_derives_n_and_sigma2():
    w = np.array([[0.75, 0.25], [0.25, 0.75]])  # singular values 1 and 1/2
    m = MixingMatrix(w)
    assert m.n == 2 and abs(m.sigma2 - 0.5) <= 1e-15
    assert MixingMatrix(np.array([[1.0]])).sigma2 == 0.0  # a single agent
    with pytest.raises(TypeError):
        MixingMatrix(w, sigma2=0.5)  # derived, so not settable


def _graphs(max_n):
    return st.builds(
        build_graph,
        st.sampled_from(["ring", "complete", "er"]),
        st.integers(2, max_n),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.0, 1.0, exclude_min=True),
    )


@settings(max_examples=60, deadline=None)
@given(_graphs(12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_derived_mixing_matrix_properties(g, t, seed):
    m = metropolis_weights(g)
    assert abs(m.sigma2 - scipy.linalg.svdvals(m.w)[1]) <= 1e-12
    x = np.random.default_rng(seed).standard_normal((len(g), 4, 2))
    y = mix(m, x, t)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(y.mean(axis=0) - x.mean(axis=0))) <= 1e-12 * scale


@st.composite
def _agent_stacks(draw):
    """A Metropolis matrix on 2..8 agents and an agent stack of shape (n,),
    (n, d) or (n, d, r), possibly a non-contiguous view."""
    g = draw(_graphs(8))
    shape = (len(g), *draw(st.lists(st.integers(1, 5), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    if layout == "strided":  # every second entry along every axis
        xs = rng.standard_normal(tuple(2 * s for s in shape))[(slice(None, None, 2),) * len(shape)]
    elif layout == "transposed" and len(shape) == 3:
        xs = rng.standard_normal((len(g), shape[2], shape[1])).swapaxes(1, 2)
    else:
        xs = rng.standard_normal(shape)
    return metropolis_weights(g), xs


@settings(max_examples=80, deadline=None)
@given(_agent_stacks(), st.integers(0, 3))
def test_mix_equals_successive_tensordot_bitwise(stack, t):
    m, xs = stack
    expected = xs
    for _ in range(t):
        expected = np.tensordot(m.w, expected, axes=(1, 0))
    y = mix(m, xs, t)
    assert y.shape == xs.shape
    assert np.array_equal(y, expected)


@settings(max_examples=30, deadline=None)
@given(_agent_stacks())
def test_reduce_over_agents_equals_mean_bitwise(stack):
    # algorithms and metrics average agent stacks this way, without np.mean's wrapper
    _, xs = stack
    assert np.array_equal(np.add.reduce(xs, axis=0) / xs.shape[0], np.mean(xs, axis=0))


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
    # Eigenvalues 1 and 1/2 (three times); its SVD gives sigma2 = 1/2 exactly,
    # so sigma2^1 sits on the bound 1/2 and must not be accepted.
    w = np.full((4, 4), 0.125) + 0.5 * np.eye(4)
    m = MixingMatrix(w)
    assert m.sigma2 == 0.5
    zeta = 1.0
    gamma = 24.0 * math.sqrt(4.0) * zeta * 0.6  # ratio 0.6 >= 1/2
    assert consensus_radius_t(m, gamma, zeta, 4) == 2


def test_consensus_radius_vanishing_sigma2():
    m = metropolis_weights(build_graph("complete", 4))
    assert consensus_radius_t(m, 0.5, 1.0, 4) == 1


def test_consensus_radius_rejects_an_n_the_mixing_matrix_does_not_have():
    # t grows with sqrt(n): ring(8) with n=16 would answer for another network.
    m = metropolis_weights(build_graph("ring", 8))
    with pytest.raises(InvalidInputError, match="n=16 disagrees with the mixing matrix's 8 agents"):
        consensus_radius_t(m, 0.5, 2.0 * math.sqrt(5.0), 16)


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


def test_mixing_matrices_compare_and_hash_by_identity():
    graph = build_graph("ring", 5)
    m1, m2 = metropolis_weights(graph), metropolis_weights(graph)
    assert m1 == m1 and m1 != m2
    assert len({m1, m2, m1}) == 2

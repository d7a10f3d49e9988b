import cProfile
import pstats

import golden
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt import algorithms, harness, manifolds
from decmanopt.algorithms import RunConfig, StepSchedule, init_system, run
from decmanopt.errors import InvalidInputError, TubeViolationError
from decmanopt.manifolds import FEAS_TOL
from decmanopt.metrics import TRACE_COLUMNS, induced_mean, subspace_distance, write_trace
from decmanopt.network import MixingMatrix, build_graph, metropolis_weights, mix
from decmanopt.numerics import sym
from decmanopt.problems import (
    GevpProblem,
    PcaProblem,
    gen_gevp_data,
    gen_lrmc_data,
    gen_pca_data,
)


def single_agent_mixing():
    return MixingMatrix(np.array([[1.0]]))


def test_step_schedule():
    const = StepSchedule("constant", 0.25)
    assert const.alpha(0) == const.alpha(999) == 0.25
    dim = StepSchedule("diminishing", 2.0)
    assert np.isclose(dim.alpha(0), 2.0)
    assert np.isclose(dim.alpha(3), 1.0)
    with pytest.raises(InvalidInputError):
        StepSchedule("constant", 0.0)
    with pytest.raises(InvalidInputError):
        StepSchedule("linear", 1.0)


@pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan])
def test_step_schedule_rejects_nonfinite_beta(beta):
    with pytest.raises(InvalidInputError, match="finite"):
        StepSchedule("diminishing", beta)


def test_init_identical_zero_consensus():
    problem, _ = gen_pca_data(8, 50, 10, 5, 0.8, seed=0)
    points = init_system(problem, "identical", seed=1)
    assert points.shape == (8, 10, 5)
    assert np.all(points == points[0])
    points2 = init_system(problem, "perturbed", seed=1, delta=0.0)
    assert np.array_equal(points2, points)


def test_init_perturbed_stays_in_neighborhood():
    problem, _ = gen_pca_data(8, 50, 10, 5, 0.8, seed=0)
    points = init_system(problem, "perturbed", seed=2, delta=0.1)
    spec = problem.spec
    assert np.max(spec.feasibility_residual(points)) <= FEAS_TOL
    _, x_bar = induced_mean(spec, points)
    max_dev = np.max(np.linalg.norm(points - x_bar, axis=(1, 2)))
    assert max_dev <= 0.5 * spec.gamma
    assert max_dev > 0


def test_consensus_fixed_point_on_agreement():
    problem, _ = gen_pca_data(4, 50, 8, 3, 0.8, seed=3)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=4)
    stepped = run(RunConfig(algorithm="consensus", t=2, max_iters=1), problem, m, points).points
    assert np.max(np.abs(stepped - points)) <= 1e-12


def test_consensus_complete_graph_one_step():
    problem, _ = gen_pca_data(4, 50, 8, 3, 0.8, seed=5)
    m = metropolis_weights(build_graph("complete", 4))
    points = init_system(problem, "perturbed", seed=6, delta=0.1)
    _, x_bar = induced_mean(problem.spec, points)
    stepped = run(RunConfig(algorithm="consensus", max_iters=1), problem, m, points).points
    for block in stepped:
        assert np.linalg.norm(block - x_bar) <= 1e-10


def test_dprgd_zero_step_equals_consensus():
    # On all-zero data every local gradient is zero, so DPRGD takes no step
    # and its iterates are consensus's, bit for bit.
    problem = PcaProblem([np.zeros((50, 8))] * 4, manifolds.stiefel(8, 3))
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "perturbed", seed=8, delta=0.1)
    a = run(RunConfig(algorithm="consensus", max_iters=5), problem, m, points)
    b = run(RunConfig(algorithm="dprgd", schedule=StepSchedule("constant", 0.5), max_iters=5),
            problem, m, points)
    assert a.points.tobytes() == b.points.tobytes()
    assert [r.consensus_error for r in a.records] == [r.consensus_error for r in b.records]


def test_dprgd_single_agent_is_centralized():
    problem, _ = gen_pca_data(1, 100, 8, 3, 0.8, seed=9)
    m = single_agent_mixing()
    spec = problem.spec
    points = init_system(problem, "identical", seed=10)
    x = points[0].copy()
    alpha = 0.5
    for k in range(1, 11):
        cfg = RunConfig(algorithm="dprgd", t=3, schedule=StepSchedule("constant", alpha),
                        max_iters=k)
        stepped = run(cfg, problem, m, points).points
        g = spec.tangent_project(x, problem.local_grad(0, x))
        x = spec.project(x - alpha * g)
        assert np.max(np.abs(stepped[0] - x)) <= 1e-12


def test_dprgt_single_agent_tracker_telescopes():
    # With one agent the tracker mean is the tracker itself, so the
    # tracking gap is ||s_0 - grad f_0(x_0)|| at every iteration.
    problem, _ = gen_pca_data(1, 100, 8, 3, 0.8, seed=11)
    m = single_agent_mixing()
    points = init_system(problem, "identical", seed=12)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.5), max_iters=10)
    trace = run(cfg, problem, m, points)
    assert len(trace.tracking_gap) == 11
    assert np.max(trace.tracking_gap) <= 1e-12


def test_dprgt_symmetry_preserved():
    # Identical data and identical initialization keep the agents identical.
    rng = np.random.default_rng(13)
    a = rng.standard_normal((50, 8))
    problem = PcaProblem([a.copy() for _ in range(4)], manifolds.stiefel(8, 3))
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=14)
    alpha = 0.5 / np.linalg.norm(a.T @ a, 2)  # stable for this data scale
    for k in range(1, 21):
        cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", alpha), max_iters=k)
        stepped = run(cfg, problem, m, points).points
        for i in range(1, 4):
            # identical up to roundoff drift (mixing rows sum in different orders)
            assert np.max(np.abs(stepped[i] - stepped[0])) <= 1e-12


def test_dprgt_cached_gradients_equal_fresh_evaluation_bitwise():
    # The tracking gap reads the gradients kept from the last evaluation,
    # so that evaluation must be at the current points: one per iteration
    # plus the initial one, the last at the final points.
    for gen in (gen_pca_data, gen_gevp_data):
        problem, _ = gen(4, 50, 8, 3, 0.8, seed=38)

        class Recording(type(problem)):
            def local_grads(self, xs):
                inputs.append(xs.tobytes())
                return super().local_grads(xs)

        inputs = []
        m = metropolis_weights(build_graph("ring", 4))
        points = init_system(problem, "perturbed", seed=39, delta=0.1)
        cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.1), max_iters=5)
        trace = run(cfg, Recording(problem.agents, problem.spec), m, points)
        assert len(inputs) == 6
        assert inputs[0] == points.tobytes()
        assert inputs[-1] == trace.points.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([gen_pca_data, gen_gevp_data]), st.sampled_from(["ring", "complete", "er"]),
       st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_tracking_identity_holds_on_any_graph(gen, topology, n, seed):
    # Criterion 6: mix preserves the agent average, so the tracker mean
    # telescopes to the mean of the current local Riemannian gradients.
    problem, _ = gen(n, 20, 6, 2, 0.8, seed=seed)
    m = metropolis_weights(build_graph(topology, n, seed=seed, p=0.5))
    points = init_system(problem, "perturbed", seed=seed, delta=0.1)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.1), max_iters=3)
    trace = run(cfg, problem, m, points)
    grads = problem.spec.riemannian_gradient(trace.points, problem.local_grads(trace.points))
    scale = max(1.0, float(np.max(np.abs(grads))))
    assert np.max(trace.tracking_gap) <= 1e-12 * scale


def test_b_stiefel_dprgt_nan_gradient_names_agent():
    # Agent 2's local gradient turns NaN in the last step, after which no
    # projection would see it: the gradient map itself must reject it, and
    # the run aborts at that iteration naming the agent.
    class NanAfterInitProblem(GevpProblem):
        calls = 0

        def local_grads(self, xs):
            grads = super().local_grads(xs)
            self.calls += 1
            if self.calls > 1:
                grads[2] = np.nan
            return grads

    problem, _ = gen_gevp_data(4, 50, 8, 3, 0.8, seed=40)
    nan_problem = NanAfterInitProblem(problem.agents, problem.spec)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=41)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.1), max_iters=1)
    with pytest.raises(TubeViolationError) as info:
        run(cfg, nan_problem, m, points)
    assert info.value.agent == 2
    assert info.value.iteration == 1


class NanAgent2Problem(GevpProblem):
    """Agent 2's local gradient is NaN at every evaluation."""

    def local_grads(self, xs):
        grads = super().local_grads(xs)
        grads[2] = np.nan
        return grads


@pytest.mark.parametrize("algorithm, iteration", [("dprgd", 1), ("dprgt", 0)])
def test_nan_gradient_aborts_at_first_evaluation_naming_agent(algorithm, iteration):
    # DPRGT evaluates its first gradients when it starts the tracker, before
    # record 0; DPRGD at its first step.  Both abort naming agent 2.
    problem, _ = gen_gevp_data(4, 50, 8, 3, 0.8, seed=40)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=41)
    cfg = RunConfig(algorithm=algorithm, schedule=StepSchedule("constant", 0.1), max_iters=3)
    with pytest.raises(TubeViolationError) as info:
        run(cfg, NanAgent2Problem(problem.agents, problem.spec), m, points)
    assert (info.value.iteration, info.value.agent) == (iteration, 2)
    assert len(info.value.records) == iteration


def test_run_zero_iterations():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=17)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=18)
    trace = run(RunConfig(algorithm="consensus", max_iters=0), problem, m, points, truth)
    assert len(trace.records) == 1
    assert trace.records[0].iter == 0


def test_run_trace_row_count():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=21)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=22)
    cfg = RunConfig(algorithm="dprgd", schedule=StepSchedule("constant", 0.1),
                    max_iters=40, trace_every=10)
    trace = run(cfg, problem, m, points, truth)
    assert [rec.iter for rec in trace.records] == [0, 10, 20, 30, 40]


def test_run_records_final_iterate_with_uneven_cadence():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=23)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=24)
    cfg = RunConfig(algorithm="consensus", max_iters=25, trace_every=10)
    trace = run(cfg, problem, m, points, truth)
    assert [rec.iter for rec in trace.records] == [0, 10, 20, 25]


def test_run_deterministic_trace_files(tmp_path):
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=25)
    m = metropolis_weights(build_graph("er", 4, seed=1, p=0.7))
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.3), max_iters=50)

    def one():
        points = init_system(problem, "perturbed", seed=26, delta=0.1)
        trace = run(cfg, problem, m, points, truth)
        path = tmp_path / "t.csv"
        write_trace(path, trace.records)
        return path.read_bytes()

    assert one() == one()


def test_run_feasibility_throughout():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=27)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "perturbed", seed=28, delta=0.1)
    for algorithm, needs_alpha in (("consensus", False), ("dprgd", True), ("dprgt", True)):
        cfg = RunConfig(algorithm=algorithm, schedule=StepSchedule("constant", 0.2), max_iters=30)
        trace = run(cfg, problem, m, points, truth)
        assert np.max(problem.spec.feasibility_residual(trace.points)) <= 1e-8


def test_run_tube_violation_at_initial_mean():
    # Two antipodal agents on the circle: the stacked mean is zero, so the
    # induced mean is undefined and the run aborts before iterating.
    spec = manifolds.stiefel(2, 1)
    problem = PcaProblem([np.eye(2), np.eye(2)], spec)
    points = np.array([[[1.0], [0.0]], [[-1.0], [0.0]]])
    m = metropolis_weights(build_graph("complete", 2))
    with pytest.raises(TubeViolationError) as info:
        run(RunConfig(algorithm="consensus", max_iters=5), problem, m, points)
    assert info.value.iteration == 0
    assert info.value.records == []


def test_run_tube_violation_mid_run_carries_context():
    # Mixing weights engineered so agent 0 averages two antipodal neighbors.
    spec = manifolds.stiefel(2, 1)
    problem = PcaProblem([np.eye(2)] * 3, spec)
    w = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.75]])
    m = MixingMatrix(w)
    points = np.array([[[1.0], [0.0]], [[-1.0], [0.0]], [[0.0], [1.0]]])
    with pytest.raises(TubeViolationError) as info:
        run(RunConfig(algorithm="consensus", max_iters=5), problem, m, points)
    assert info.value.iteration == 1
    assert info.value.agent == 0
    assert len(info.value.records) == 1  # the initial record survives


def test_run_b_stiefel_tube_violation_names_agent():
    # Agent 2 averages two antipodal neighbors, so its projection target is
    # zero after the first mix.  Points are whitened, z = Cx with C = diag(1, 2).
    spec = manifolds.generalized_stiefel(2, 1, np.diag([1.0, 4.0]))
    problem = GevpProblem([np.eye(2)] * 3, spec)
    w = np.array([[0.75, 0.25, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]])
    m = MixingMatrix(w)
    points = np.array([[[0.0], [1.0]], [[1.0], [0.0]], [[-1.0], [0.0]]])
    with pytest.raises(TubeViolationError) as info:
        run(RunConfig(algorithm="consensus", max_iters=5), problem, m, points)
    assert info.value.iteration == 1
    assert info.value.agent == 2


def test_tracking_conservation_and_boundedness():
    problem, truth = gen_pca_data(8, 200, 10, 5, 0.8, seed=29)
    m = metropolis_weights(build_graph("er", 8, seed=2, p=0.5))
    points = init_system(problem, "perturbed", seed=30, delta=0.1)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 0.5), max_iters=200)
    trace = run(cfg, problem, m, points, truth)
    assert np.max(trace.tracking_gap) <= 1e-10
    # The tracker mean is the mean of tangent projections of -A_i'A_i x_i,
    # each of Frobenius norm at most ||A_i||_2^2 sqrt(r).
    bound = problem.spec.r * max(np.linalg.norm(a, 2) for a in problem.agents) ** 4
    assert np.max(np.abs(trace.s_hat_norm_sq)) <= bound


def test_consensus_error_contracts_up_to_rate_bound():
    problem, truth = gen_pca_data(8, 50, 10, 5, 0.8, seed=32)
    m = metropolis_weights(build_graph("ring", 8))
    points = init_system(problem, "perturbed", seed=33, delta=0.1)
    cfg = RunConfig(algorithm="consensus", max_iters=60)
    trace = run(cfg, problem, m, points, truth)
    errors = np.sqrt(8 * np.array([rec.consensus_error for rec in trace.records]))
    rho = 2.0 * m.sigma2
    for k in range(len(errors) - 1):
        if errors[k] > 1e-13:
            assert errors[k + 1] <= rho * errors[k] + 1e-12


def test_dprgt_tuned_step_recovers_optimum():
    # With a tuned constant step the tracked method drives the induced mean
    # to the planted subspace well within 2000 iterations.
    problem, truth = gen_pca_data(8, 1000, 10, 5, 0.8, seed=7)
    m = metropolis_weights(build_graph("er", 8, seed=3, p=0.6))
    points = init_system(problem, "identical", seed=11)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 1.0),
                    max_iters=2000, trace_every=100)
    trace = run(cfg, problem, m, points, truth)
    assert trace.records[-1].dist_to_truth < 1e-4


# Small instances of the three problems with their step sizes; the LRMC one
# has the golden lrmc_uneven sizes, so two block widths (14 and 13).
SMALL = {
    "pca": (lambda: gen_pca_data(4, 50, 8, 3, 0.8, seed=42), 0.1),
    "gevp": (lambda: gen_gevp_data(4, 50, 8, 3, 0.8, seed=42), 0.1),
    "lrmc": (lambda: gen_lrmc_data(6, 30, 80, 3, seed=42), 2e-3),
}


def record_bytes(trace):
    """The recorded values, without the wall clock, as bytes."""
    cols = [c for c in TRACE_COLUMNS if c != "wall_ns"]
    return np.array([[getattr(rec, c) for c in cols] for rec in trace.records]).tobytes()


def small_run(kind, algorithm, max_iters, trace_every=1):
    gen, beta = SMALL[kind]
    problem, truth = gen()
    m = metropolis_weights(build_graph("ring", problem.n_agents))
    points = init_system(problem, "perturbed", seed=43, delta=0.1)
    cfg = RunConfig(algorithm=algorithm, schedule=StepSchedule("constant", beta),
                    max_iters=max_iters, trace_every=trace_every)
    return cfg, problem, m, points, truth


@pytest.mark.parametrize("kind", sorted(SMALL))
@pytest.mark.parametrize("algorithm", ["consensus", "dprgd", "dprgt"])
def test_run_writes_none_of_its_inputs(kind, algorithm):
    # A sweep shares the problem, the mixing matrix and the initial stack
    # across threads, so run must read them only: made read-only, they give
    # the same run, byte for byte.
    cfg, problem, m, points, truth = small_run(kind, algorithm, 5)
    expected = run(cfg, problem, m, points, truth)
    cfg, problem, m, points, truth = small_run(kind, algorithm, 5)
    spec = problem.spec
    stacks = [st for _, a, mask in getattr(problem, "_groups", ()) for st in (a, mask)]
    if kind != "lrmc":
        stacks += [problem.grams, problem._total_gram]
    if spec.chol is not None:
        stacks.append(spec.chol)
    for a in [points, m.w, *stacks]:
        a.flags.writeable = False
    trace = run(cfg, problem, m, points, truth)
    assert record_bytes(trace) == record_bytes(expected)
    assert trace.points.tobytes() == expected.points.tobytes()


def reference_diagnostics(problem, m, t, iterates):
    """s_hat_norm_sq and tracking_gap recomputed one iteration at a time,
    from the iterates at which the run evaluated its gradients."""
    spec, n = problem.spec, problem.n_agents
    s_hat_sq, gaps = [], []
    tracker = grads = None
    for xs in iterates:
        new_grads = spec.riemannian_gradient(xs, problem.local_grads(xs))
        tracker = new_grads if tracker is None else mix(m, tracker, t) + new_grads - grads
        grads = new_grads
        s_hat = np.add.reduce(tracker, axis=0) / n
        gaps.append(float(np.linalg.norm(s_hat - np.add.reduce(grads, axis=0) / n)))
        s_hat_sq.append(float(np.sum(s_hat * s_hat)))
    return np.array(s_hat_sq), np.array(gaps)


@pytest.mark.parametrize("kind", sorted(SMALL))
@pytest.mark.parametrize("trace_every", [1, 7])
def test_block_diagnostics_equal_the_per_iteration_formula_bitwise(kind, trace_every):
    # run sums the tracker and the gradients into a 64 KiB block, one row of
    # 2 d r floats per iteration, and forms the diagnostics a block at a
    # time; cover a run inside one block and runs that end on either side
    # of a block's edge.
    _, problem, *_ = small_run(kind, "dprgt", 0)
    rows = 4096 // (problem.spec.d * problem.spec.r)
    for max_iters in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
        cfg, problem, m, points, truth = small_run(kind, "dprgt", max_iters, trace_every)
        iterates = []
        local_grads = problem.local_grads
        problem.local_grads = lambda xs: iterates.append(xs.copy()) or local_grads(xs)
        trace = run(cfg, problem, m, points, truth)
        problem.local_grads = local_grads
        assert len(trace.tracking_gap) == len(trace.s_hat_norm_sq) == max_iters + 1
        s_hat_sq, gaps = reference_diagnostics(problem, m, cfg.t, iterates)
        assert trace.s_hat_norm_sq.tobytes() == s_hat_sq.tobytes()
        assert trace.tracking_gap.tobytes() == gaps.tobytes()


def calls_per_dprgt_iteration(problem, m, points, beta):
    """Python-level calls per DPRGT iteration, as cProfile counts them: the
    difference between runs of 400 and 200 iterations, recorded at the ends
    only, over 200."""
    totals = []
    for max_iters in (200, 400):
        cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", beta),
                        max_iters=max_iters, trace_every=max_iters + 1)
        prof = cProfile.Profile()
        prof.runcall(run, cfg, problem, m, points)
        totals.append(pstats.Stats(prof).total_calls)
    return (totals[1] - totals[0]) / 200


@pytest.mark.parametrize("gen, beta, budget", [(gen_gevp_data, 2.0, 40), (gen_pca_data, 1.0, 64)])
def test_dprgt_iteration_dispatch_budget(gen, beta, budget):
    # On (8, 10, 5) stacks an iteration costs numpy dispatch, not arithmetic,
    # so its call count is its cost: GEVP made 61.7 calls and PCA 80.0
    # before the tracking diagnostics went a block at a time.  The counts
    # follow the run's bits only (the Newton–Schulz steps each projection
    # takes), not the machine's speed.
    problem, _ = gen(8, 1000, 10, 5, 0.8, seed=7)
    m = metropolis_weights(build_graph("er", 8, seed=3, p=0.6))
    points = init_system(problem, "identical", seed=11)
    assert calls_per_dprgt_iteration(problem, m, points, beta) <= budget


# -- whitened GEVP against the B-metric maps ----------------------------------


class BMetricMaps:
    """Generalized Stiefel in ambient coordinates x with the B-metric
    <u, v>_B = tr(u'Bv): the maps a GEVP run took before it was whitened,
    kept as the oracle of the whitened one."""

    def __init__(self, b):
        self.b, self.b_inv = b, np.linalg.inv(b)

    def norm(self, u):
        return np.sqrt(np.sum(u * (self.b @ u), axis=(-2, -1)))

    def project(self, y):
        """The B-polar factor y (y'By)^(-1/2)."""
        w, v = np.linalg.eigh(y.mT @ self.b @ y)
        return y @ (v / np.sqrt(w)[..., None, :]) @ v.mT

    def tangent_project(self, x, u):
        return u - x @ sym(x.mT @ self.b @ u)

    def riemannian_gradient(self, x, egrad):
        return self.b_inv @ egrad - x @ sym(x.mT @ egrad)


def b_metric_init(maps, cfg, n, d, r):
    """init_system's draws, in ambient coordinates with the B-metric maps."""
    rng = np.random.default_rng(cfg.run_seed)
    x0 = maps.project(rng.standard_normal((d, r)))
    if cfg.init_mode == "identical" or cfg.delta == 0.0:
        return np.broadcast_to(x0, (n, d, r)).copy()
    dirs = np.stack([maps.tangent_project(x0, rng.standard_normal((d, r))) for _ in range(n)])
    dirs /= maps.norm(dirs)[:, None, None]
    delta = cfg.delta
    while True:
        points = maps.project(x0 + delta * dirs)
        x_bar = maps.project(np.mean(points, axis=0))
        if np.max(maps.norm(points - x_bar)) <= 0.25:
            return points
        delta *= 0.5


def b_metric_run(maps, grams, cfg, mixing, xs, x_star):
    """[(k, x_k, record values)] at the record points of ``algorithms.run``,
    iterating with the B-metric maps and the unwhitened grams."""
    n, records = len(grams), []
    algorithm = cfg.algorithm
    for k in range(cfg.max_iters + 1):
        alpha = 0.0 if algorithm == "consensus" else cfg.schedule.alpha(max(k - 1, 0))
        if k == 0 and algorithm == "dprgt":
            tracker = grads = maps.riemannian_gradient(xs, grams @ xs)
        if k:
            direction = 0.0
            if algorithm == "dprgd":
                direction = maps.riemannian_gradient(xs, grams @ xs)
            elif algorithm == "dprgt":
                direction = maps.tangent_project(xs, tracker)
            xs = maps.project(mix(mixing, xs, cfg.t) - alpha * direction)
            if algorithm == "dprgt":
                new_grads = maps.riemannian_gradient(xs, grams @ xs)
                tracker = mix(mixing, tracker, cfg.t) + new_grads - grads
                grads = new_grads
        if k % cfg.trace_every == 0 or k == cfg.max_iters:
            x_bar = maps.project(np.mean(xs, axis=0))
            egrad = grams.sum(axis=0) @ x_bar / n
            values = {"objective_at_mean": 0.5 * np.sum(x_bar * egrad),
                      "grad_norm_sq": maps.norm(maps.riemannian_gradient(x_bar, egrad)) ** 2,
                      "dist_to_truth": subspace_distance(x_bar, x_star),
                      "consensus_error": np.mean(maps.norm(xs - x_bar) ** 2)}
            records.append((k, xs, values))
    return records


@pytest.mark.parametrize("name", ["gevp_er", "gevp_consensus"])
def test_whitened_gevp_run_follows_the_b_metric_maps(name, monkeypatch):
    # The golden DPRGT run (identical init) and consensus run (perturbed
    # init), whitened and with the B-metric maps from the same draws:
    # C^-1 z_k is x_k to rounding at every record, and the records agree
    # within the golden value tolerances (VALUE_RTOL relative, and in the
    # consensus error CONSENSUS_ATOL absolute besides).
    cfg = harness.resolve_config({**golden._COMMON, **golden.RUNS[name]})
    problem, truth, mixing, points, run_cfg = harness.build_run(cfg)
    c = problem.spec.chol
    maps = BMetricMaps(c.T @ c)
    grams = np.stack([a.T @ a for a in problem.agents])
    n, d, r = points.shape
    expected = b_metric_run(maps, grams, run_cfg, mixing, b_metric_init(maps, cfg, n, d, r),
                            truth.x_star)
    seen = []
    record = algorithms.trace_record
    monkeypatch.setattr(algorithms, "trace_record",
                        lambda problem, zs, *args: seen.append(zs) or record(problem, zs, *args))
    trace = run(run_cfg, problem, mixing, points, truth)
    assert [rec.iter for rec in trace.records] == [k for k, _, _ in expected]
    for rec, zs, (_, xs, values) in zip(trace.records, seen, expected):
        assert np.linalg.norm(np.linalg.solve(c, zs) - xs) <= 1e-12 * np.linalg.norm(xs)
        for field, value in values.items():
            tol = golden.VALUE_RTOL * abs(value)
            if field == "consensus_error":  # the floor for an exact-consensus run
                tol += golden.CONSENSUS_ATOL
            assert abs(getattr(rec, field) - value) <= tol, (rec.iter, field)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt import manifolds
from decmanopt.algorithms import RunConfig, StepSchedule, init_system, run
from decmanopt.errors import InvalidInputError, TubeViolationError
from decmanopt.manifolds import FEAS_TOL
from decmanopt.metrics import induced_mean, write_trace
from decmanopt.network import MixingMatrix, build_graph, metropolis_weights
from decmanopt.problems import GevpProblem, PcaProblem, gen_gevp_data, gen_pca_data


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


def test_run_huge_eps_stops_immediately():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=19)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=20)
    cfg = RunConfig(algorithm="dprgd", schedule=StepSchedule("constant", 0.1),
                    max_iters=100, stop_eps=1e6)
    trace = run(cfg, problem, m, points, truth)
    assert trace.status == "stopped"
    assert len(trace.records) == 1 and trace.records[0].iter == 0


def test_run_without_iterations_completes_when_eps_is_met():
    # With K=0 no iteration is left to skip, so meeting eps at record 0 is
    # a completed run.
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=19)
    m = metropolis_weights(build_graph("ring", 4))
    points = init_system(problem, "identical", seed=20)
    cfg = RunConfig(algorithm="dprgd", schedule=StepSchedule("constant", 0.1),
                    max_iters=0, stop_eps=1e6)
    trace = run(cfg, problem, m, points, truth)
    assert trace.status == "completed"
    assert len(trace.records) == 1 and trace.records[0].iter == 0


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
    # Agent 2 averages two antipodal B-feasible neighbors, so its B-polar
    # target is zero after the first mix.
    spec = manifolds.generalized_stiefel(2, 1, np.diag([1.0, 4.0]))
    problem = GevpProblem([np.eye(2)] * 3, spec)
    w = np.array([[0.75, 0.25, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]])
    m = MixingMatrix(w)
    points = np.array([[[0.0], [0.5]], [[1.0], [0.0]], [[-1.0], [0.0]]])
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


def test_run_early_stop_mid_run():
    problem, truth = gen_pca_data(4, 50, 8, 3, 0.8, seed=36)
    m = metropolis_weights(build_graph("complete", 4))
    points = init_system(problem, "identical", seed=37)
    cfg = RunConfig(algorithm="dprgt", schedule=StepSchedule("constant", 1.0),
                    max_iters=5000, stop_eps=1e-12, trace_every=10)
    trace = run(cfg, problem, m, points, truth)
    assert trace.status == "stopped"
    final = trace.records[-1]
    assert final.iter < 5000
    assert final.consensus_error <= 1e-12 and final.grad_norm_sq <= 1e-12


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

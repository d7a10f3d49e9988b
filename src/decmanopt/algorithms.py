"""The iterative schemes: gossip consensus, decentralized projected
Riemannian gradient descent (DPRGD), and its gradient-tracking variant
(DPRGT).

One iteration is: mix the stacked states with t gossip rounds, take the
local (tracked) Riemannian gradient step, and project every block back
onto the manifold.  DPRGT additionally maintains per-agent tracker states
whose network average telescopes to the average of the current local
Riemannian gradients, which is what buys exact convergence with a
constant step size.

Step sizes are tuning inputs: the complexity theory's admissible steps
depend on constants with no closed form, so runs are parameterized the
way experiments are in practice (a constant step, or beta/sqrt(k+1)),
plus :func:`estimate_smoothness` for deriving the theoretical diminishing
schedule from data.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, SingularityError, TubeViolationError
from .metrics import (
    TraceRecord,
    consensus_error,
    induced_mean,
    quadratic_upper_bound_probe,
    subspace_distance,
)
from .network import mix

CONSENSUS = "consensus"
DPRGD = "dprgd"
DPRGT = "dprgt"

CONSTANT = "constant"
DIMINISHING = "diminishing"

INIT_IDENTICAL = "identical"
INIT_PERTURBED = "perturbed"


@dataclass(frozen=True)
class StepSchedule:
    """Constant step alpha_k = beta, or diminishing alpha_k = beta/sqrt(k+1)."""

    kind: str = CONSTANT
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, DIMINISHING):
            raise InvalidInputError(f"unknown schedule kind {self.kind!r}")
        if not self.beta > 0:
            raise InvalidInputError("beta must be positive")

    def alpha(self, k):
        if self.kind == CONSTANT:
            return self.beta
        return self.beta / np.sqrt(k + 1.0)


@dataclass(frozen=True)
class RunConfig:
    """What to run and for how long.

    ``stop_eps``, when set, stops the run at the first recorded iteration
    where both the consensus error and the squared gradient norm at the
    induced mean fall below it.  Records are taken every ``trace_every``
    iterations (the mean projection costs an SVD, so the cadence is the
    metric-cost knob).
    """

    algorithm: str = DPRGT
    t: int = 1
    schedule: StepSchedule = field(default_factory=StepSchedule)
    max_iters: int = 1000
    seed: int = 0
    stop_eps: float | None = None
    trace_every: int = 1

    def __post_init__(self):
        if self.algorithm not in (CONSENSUS, DPRGD, DPRGT):
            raise InvalidInputError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iters < 0:
            raise InvalidInputError("max_iters must be nonnegative")
        if self.t < 1 or self.trace_every < 1:
            raise InvalidInputError("t and trace_every must be positive")


@dataclass(frozen=True)
class AgentSystem:
    """Stacked feasible agent states, plus tracker state for DPRGT.

    ``tracker`` holds the gradient-tracking states s_i and ``last_grads``
    caches the Riemannian gradients grad f_i(x_i) at the current points, so
    each tracking update costs one new gradient evaluation per agent.
    """

    points: np.ndarray
    tracker: np.ndarray | None = None
    last_grads: np.ndarray | None = None

    @property
    def n(self):
        return self.points.shape[0]


def init_system(problem, mode=INIT_IDENTICAL, seed=0, delta=0.0):
    """Seeded initialization inside the consensus neighborhood.

    ``identical`` copies one random feasible point to every agent, so the
    consensus error starts at exactly zero.  ``perturbed`` moves each copy
    along a random tangent direction of norm ``delta`` and reprojects; if
    the spread exceeds gamma/2 around the induced mean, delta is halved
    until it fits.
    """
    if delta < 0:
        raise InvalidInputError("delta must be nonnegative")
    spec = problem.spec
    rng = np.random.default_rng(seed)
    x0 = spec.random_point(rng)
    n = problem.n_agents
    if mode == INIT_IDENTICAL or (mode == INIT_PERTURBED and delta == 0.0):
        return AgentSystem(np.broadcast_to(x0, (n, spec.d, spec.r)).copy())
    if mode != INIT_PERTURBED:
        raise InvalidInputError(f"unknown init mode {mode!r}")
    dirs = np.stack([spec.random_tangent(x0, rng, 1.0) for _ in range(n)])
    while True:
        points = spec.project_stack(x0 + delta * dirs)
        _, x_bar = induced_mean(spec, points)
        if np.max(np.linalg.norm(points - x_bar, axis=(1, 2))) <= 0.5 * spec.gamma:
            return AgentSystem(points)
        delta *= 0.5


def consensus_step(system, mixing, t, problem):
    """x_i <- P(sum_j (W^t)_ij x_j); tracker states are untouched."""
    mixed = mix(mixing, system.points, t)
    return replace(system, points=problem.spec.project_stack(mixed))


def dprgd_step(system, mixing, t, problem, alpha):
    """x_i <- P(mix(x)_i - alpha grad f_i(x_i))."""
    spec = problem.spec
    rgrads = spec.tangent_project_stack(system.points, problem.local_grads(system.points))
    mixed = mix(mixing, system.points, t)
    return AgentSystem(spec.project_stack(mixed - alpha * rgrads))


def init_tracker(system, problem):
    """Set s_i = grad f_i(x_i); the gradients are cached for the next update."""
    spec = problem.spec
    grads = spec.tangent_project_stack(system.points, problem.local_grads(system.points))
    return replace(system, tracker=grads.copy(), last_grads=grads)


def dprgt_step(system, mixing, t, problem, alpha):
    """The three-stage tracked update.

    v_i = P_tangent(s_i) at x_i; x_i <- P(mix(x)_i - alpha v_i);
    s_i <- mix(s)_i + grad f_i(x_i_new) - grad f_i(x_i_old).
    """
    if system.tracker is None or system.last_grads is None:
        raise InvalidInputError("tracker not initialized; call init_tracker first")
    spec = problem.spec
    v = spec.tangent_project_stack(system.points, system.tracker)
    mixed = mix(mixing, system.points, t)
    new_points = spec.project_stack(mixed - alpha * v)
    new_grads = spec.tangent_project_stack(new_points, problem.local_grads(new_points))
    new_tracker = mix(mixing, system.tracker, t) + new_grads - system.last_grads
    return AgentSystem(new_points, new_tracker, new_grads)


@dataclass
class Trace:
    """Result of a run: recorded metrics plus tracking diagnostics.

    For DPRGT runs, ``s_hat_norm_sq[k]`` is ||(1/n) sum_i s_i||^2 and
    ``tracking_gap[k]`` is ||(1/n) sum_i s_i - (1/n) sum_i grad f_i(x_i)||
    at every iteration (not just at record points); both drive the
    conservation and rate checks.
    """

    records: list
    status: str
    system: AgentSystem
    s_hat_norm_sq: np.ndarray | None = None
    tracking_gap: np.ndarray | None = None


def _tracking_diagnostics(system):
    # last_grads holds grad f_i(x_i) at the current points, cached by
    # init_tracker / dprgt_step, so the gap costs no gradient evaluation.
    s_hat = np.mean(system.tracker, axis=0)
    gap = float(np.linalg.norm(s_hat - np.mean(system.last_grads, axis=0)))
    return float(np.sum(s_hat * s_hat)), gap


def _measure(k, alpha, system, problem, truth, t_start):
    spec = problem.spec
    _, x_bar = induced_mean(spec, system.points)
    ce = consensus_error(system.points, x_bar)
    value, egrad = problem.mean_value_and_gradient(x_bar)
    g = spec.tangent_project(x_bar, egrad)
    dist = None
    if truth is not None and truth.x_star is not None:
        dist = subspace_distance(x_bar, truth.x_star)
    return TraceRecord(
        iter=k,
        step_size=alpha,
        consensus_error=ce,
        objective_at_mean=value,
        grad_norm_sq=float(np.sum(g * g)),
        dist_to_truth=dist,
        wall_ns=time.monotonic_ns() - t_start,
    )


def run(cfg, problem, mixing, system, truth=None):
    """Execute ``cfg.max_iters`` steps, recording metrics every
    ``cfg.trace_every`` iterations (plus the initial state and the final
    iterate).

    Deterministic given (cfg, problem, system).  A rank-deficient stacked
    mean or projection target raises :class:`TubeViolationError` carrying
    the iteration index, the offending agent, and the records so far.
    """
    if problem.n_agents != system.n or mixing.n != system.n:
        raise InvalidInputError("problem, mixing matrix, and system disagree on the agent count")
    step = {
        CONSENSUS: lambda sys_, alpha: consensus_step(sys_, mixing, cfg.t, problem),
        DPRGD: lambda sys_, alpha: dprgd_step(sys_, mixing, cfg.t, problem, alpha),
        DPRGT: lambda sys_, alpha: dprgt_step(sys_, mixing, cfg.t, problem, alpha),
    }[cfg.algorithm]

    tracked = cfg.algorithm == DPRGT
    if tracked and system.tracker is None:
        system = init_tracker(system, problem)
    if tracked and system.last_grads is None:
        raise InvalidInputError("tracker given without cached gradients; call init_tracker")

    t_start = time.monotonic_ns()
    s_hat_sq = []
    gaps = []
    records = []

    def note_diagnostics(sys_):
        if tracked:
            sq, gap = _tracking_diagnostics(sys_)
            s_hat_sq.append(sq)
            gaps.append(gap)

    def finish(status):
        return Trace(
            records,
            status,
            system,
            np.array(s_hat_sq) if tracked else None,
            np.array(gaps) if tracked else None,
        )

    def step_size(k):
        # the pure consensus scheme takes no gradient step
        return 0.0 if cfg.algorithm == CONSENSUS else cfg.schedule.alpha(k)

    current_iter = 0
    try:
        note_diagnostics(system)
        rec = _measure(0, step_size(0), system, problem, truth, t_start)
        records.append(rec)
        if cfg.stop_eps is not None and _stationary(rec, cfg.stop_eps):
            return finish("stopped")
        for k in range(cfg.max_iters):
            current_iter = k + 1
            alpha = step_size(k)
            system = step(system, alpha)
            note_diagnostics(system)
            if current_iter % cfg.trace_every == 0 or current_iter == cfg.max_iters:
                rec = _measure(current_iter, alpha, system, problem, truth, t_start)
                records.append(rec)
                if cfg.stop_eps is not None and _stationary(rec, cfg.stop_eps):
                    return finish("stopped" if current_iter < cfg.max_iters else "completed")
    except SingularityError as exc:
        err = TubeViolationError(current_iter, getattr(exc, "block", None), str(exc))
        err.records = records
        raise err from exc
    return finish("completed")


def _stationary(rec, eps):
    return rec.consensus_error <= eps and rec.grad_norm_sq <= eps


def estimate_smoothness(problem, trials=50, seed=0):
    """Empirical stand-in for the smoothness constant L.

    Takes the max of the sampled gradient-norm bound, the Riemannian
    gradient-Lipschitz ratio, and the quadratic upper-bound constant, over
    random feasible pairs.  Feeds :func:`theoretical_beta` for users who
    want the theory-prescribed diminishing schedule.
    """
    spec = problem.spec
    rng = np.random.default_rng(seed)
    l_g = 0.0
    for _ in range(trials):
        x = spec.random_point(rng)
        for i in range(problem.n_agents):
            l_g = max(l_g, float(np.linalg.norm(problem.local_grad(i, x))))
    probe = quadratic_upper_bound_probe(problem, trials, seed=seed + 1)
    return max(l_g, probe.quad_bound, probe.grad_lip)


def theoretical_beta(gamma, smoothness):
    """The diminishing-schedule coefficient min(gamma / (24 L), 1)."""
    if smoothness <= 0:
        raise InvalidInputError("smoothness must be positive")
    return min(gamma / (24.0 * smoothness), 1.0)

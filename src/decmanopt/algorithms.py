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
way experiments are in practice (a constant step, or beta/sqrt(k+1)).
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, NonFiniteError, SingularityError, TubeViolationError
from .metrics import (
    TraceRecord,
    induced_mean,
    stationarity,
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
        if not 0 < self.beta < np.inf:
            raise InvalidInputError("beta must be positive and finite")

    def alpha(self, k):
        if self.kind == CONSTANT:
            return self.beta
        return self.beta / np.sqrt(k + 1.0)


@dataclass(frozen=True)
class RunConfig:
    """What to run and for how long.

    ``t`` is the number of gossip rounds per iteration.  ``stop_eps``, when
    set, stops the run at the first recorded iteration where both the
    consensus error and the squared gradient norm at the induced mean fall
    below it.  Records are taken every ``trace_every`` iterations (the mean
    projection costs an SVD, so the cadence is the metric-cost knob).
    """

    algorithm: str = DPRGT
    t: int = 1
    schedule: StepSchedule = field(default_factory=StepSchedule)
    max_iters: int = 1000
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
    until it fits.  Norms are the manifold's metric norms.
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
        if np.max(spec.norm(points - x_bar)) <= 0.5 * spec.gamma:
            return AgentSystem(points)
        delta *= 0.5


def consensus_step(system, mixing, t, problem, alpha=0.0):
    """x_i <- P(sum_j (W^t)_ij x_j); takes no gradient step, so ``alpha``
    is ignored, and tracker states are untouched."""
    mixed = mix(mixing, system.points, t)
    return replace(system, points=problem.spec.project_stack(mixed))


def dprgd_step(system, mixing, t, problem, alpha):
    """x_i <- P(mix(x)_i - alpha grad f_i(x_i))."""
    spec = problem.spec
    rgrads = spec.riemannian_gradient(system.points, problem.local_grads(system.points))
    mixed = mix(mixing, system.points, t)
    return AgentSystem(spec.project_stack(mixed - alpha * rgrads))


def init_tracker(system, problem):
    """Set s_i = grad f_i(x_i); the gradients are cached for the next update."""
    spec = problem.spec
    grads = spec.riemannian_gradient(system.points, problem.local_grads(system.points))
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
    new_grads = spec.riemannian_gradient(new_points, problem.local_grads(new_points))
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
    s_hat = np.add.reduce(system.tracker, axis=0) / system.n
    gap = float(np.linalg.norm(s_hat - np.add.reduce(system.last_grads, axis=0) / system.n))
    return float(np.sum(s_hat * s_hat)), gap


def _measure(k, alpha, system, problem, truth, t_start):
    st = stationarity(problem, system.points)
    dist = None
    if truth is not None and truth.x_star is not None:
        dist = subspace_distance(st.x_bar, truth.x_star)
    return TraceRecord(
        iter=k,
        step_size=alpha,
        consensus_error=st.consensus_error,
        objective_at_mean=st.objective_at_mean,
        grad_norm_sq=st.grad_norm_sq,
        dist_to_truth=dist,
        wall_ns=time.monotonic_ns() - t_start,
    )


@np.errstate(all="ignore")
def run(cfg, problem, mixing, system, truth=None):
    """Execute ``cfg.max_iters`` steps, recording metrics at iteration 0,
    every ``cfg.trace_every`` iterations and at the final iterate.

    Deterministic given (cfg, problem, system); none of them is mutated.
    When a rank-deficient projection target or stacked mean, or a
    non-finite state or gradient, stops the iteration, the run raises
    :class:`TubeViolationError` carrying the iteration index, the offending
    agent, and the records so far (numpy's floating-point warnings are
    silenced: the error reports the failure).  The run is ``stopped`` when
    ``cfg.stop_eps`` is met before the last iteration, else ``completed``.
    """
    if problem.n_agents != system.n or mixing.n != system.n:
        raise InvalidInputError("problem, mixing matrix, and system disagree on the agent count")
    step = {CONSENSUS: consensus_step, DPRGD: dprgd_step, DPRGT: dprgt_step}[cfg.algorithm]
    tracked = cfg.algorithm == DPRGT
    if tracked and system.tracker is None:
        system = init_tracker(system, problem)
    if tracked and system.last_grads is None:
        raise InvalidInputError("tracker given without cached gradients; call init_tracker")

    t_start = time.monotonic_ns()
    records, diagnostics = [], []
    status = "completed"
    try:
        for k in range(cfg.max_iters + 1):
            # record k carries the step that produced it; the pure consensus
            # scheme takes no gradient step
            alpha = 0.0 if cfg.algorithm == CONSENSUS else cfg.schedule.alpha(max(k - 1, 0))
            if k:
                system = step(system, mixing, cfg.t, problem, alpha)
            if tracked:
                diagnostics.append(_tracking_diagnostics(system))
            if k % cfg.trace_every == 0 or k == cfg.max_iters:
                rec = _measure(k, alpha, system, problem, truth, t_start)
                records.append(rec)
                eps = cfg.stop_eps
                if eps is not None and rec.consensus_error <= eps and rec.grad_norm_sq <= eps:
                    status = "stopped" if k < cfg.max_iters else "completed"
                    break
    except (SingularityError, NonFiniteError) as exc:
        err = TubeViolationError(k, getattr(exc, "block", None), str(exc))
        err.records = records
        raise err from exc
    s_hat_sq, gaps = (np.array(col) for col in zip(*diagnostics)) if tracked else (None, None)
    return Trace(records, status, system, s_hat_sq, gaps)

"""The iterative schemes: gossip consensus, decentralized projected
Riemannian gradient descent (DPRGD), and its gradient-tracking variant
(DPRGT).

The three share one loop, in :func:`run`.  One iteration is: mix the
stacked states with t gossip rounds, take the local (tracked) Riemannian
gradient step, and project every block back onto the manifold.  At each
record point the loop appends :func:`decmanopt.metrics.trace_record`.  DPRGT
additionally maintains per-agent tracker states whose network average
telescopes to the average of the current local Riemannian gradients,
which is what buys exact convergence with a constant step size.

Step sizes are tuning inputs: the complexity theory's admissible steps
depend on constants with no closed form, so runs are parameterized the
way experiments are in practice (a constant step, or beta/sqrt(k+1)).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NonFiniteError, SingularityError, TubeViolationError
from .metrics import induced_mean, trace_record
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

    ``t`` is the number of gossip rounds per iteration.  Records are taken
    every ``trace_every`` iterations.  A record costs a mean projection (an
    SVD on Stiefel, Newton-Schulz steps or ``eigh`` on B-Stiefel) plus a
    full-data gradient at the mean, so the cadence is the metric-cost knob.
    """

    algorithm: str = DPRGT
    t: int = 1
    schedule: StepSchedule = field(default_factory=StepSchedule)
    max_iters: int = 1000
    trace_every: int = 1

    def __post_init__(self):
        if self.algorithm not in (CONSENSUS, DPRGD, DPRGT):
            raise InvalidInputError(f"unknown algorithm {self.algorithm!r}")
        if self.max_iters < 0:
            raise InvalidInputError("max_iters must be nonnegative")
        if self.t < 1 or self.trace_every < 1:
            raise InvalidInputError("t and trace_every must be positive")


def init_system(problem, mode=INIT_IDENTICAL, seed=0, delta=0.0):
    """Seeded initialization inside the consensus neighborhood.

    ``identical`` copies one random feasible point to every agent, so the
    consensus error starts at exactly zero.  ``perturbed`` moves each copy
    along a random tangent direction of norm ``delta`` and reprojects; if
    the spread exceeds gamma/2 around the induced mean, delta is halved
    until it fits.  Norms are Frobenius norms in the spec's coordinates,
    which on generalized Stiefel are the B-norms of the ambient points.
    """
    if delta < 0:
        raise InvalidInputError("delta must be nonnegative")
    spec = problem.spec
    rng = np.random.default_rng(seed)
    x0 = spec.random_point(rng)
    n = problem.n_agents
    if mode == INIT_IDENTICAL or (mode == INIT_PERTURBED and delta == 0.0):
        return np.broadcast_to(x0, (n, spec.d, spec.r)).copy()
    if mode != INIT_PERTURBED:
        raise InvalidInputError(f"unknown init mode {mode!r}")
    dirs = np.stack([spec.random_tangent(x0, rng, 1.0) for _ in range(n)])
    while True:
        points = spec.project_stack(x0 + delta * dirs)
        _, x_bar = induced_mean(spec, points)
        if np.max(spec.norm(points - x_bar)) <= 0.5 * spec.gamma:
            return points
        delta *= 0.5


@dataclass
class Trace:
    """Result of a run: recorded metrics, the final agent states, and for
    DPRGT the tracking diagnostics.  ``status`` is ``completed``: a run that
    leaves the regime raises :class:`TubeViolationError` instead.

    ``points`` is the (n, d, r) stack of the last iterate, in the
    coordinates of the problem's spec (z = Cx for GEVP).  For DPRGT runs,
    ``s_hat_norm_sq[k]`` is ||(1/n) sum_i s_i||^2 and ``tracking_gap[k]``
    is ||(1/n) sum_i s_i - (1/n) sum_i grad f_i(x_i)|| at every iteration
    (not just at record points); both drive the conservation and rate
    checks.
    """

    records: list
    status: str
    points: np.ndarray
    s_hat_norm_sq: np.ndarray | None = None
    tracking_gap: np.ndarray | None = None


@np.errstate(all="ignore")
def run(cfg, problem, mixing, points, truth=None):
    """Execute ``cfg.max_iters`` iterations from the (n, d, r) stack
    ``points``, recording metrics at iteration 0, every
    ``cfg.trace_every`` iterations and at the final iterate.

    An iteration is x <- P(mix(x) - alpha v) with v = 0 (consensus),
    grad f_i(x_i) (DPRGD) or P_T(s_i) (DPRGT), whose tracker starts at
    s_i = grad f_i(x_i) and moves as s <- mix(s) + g_new - g_old.
    Deterministic given (cfg, problem, points); none of them is mutated.
    When a rank-deficient projection target or stacked mean, or a
    non-finite state or gradient, stops the run, it raises
    :class:`TubeViolationError` carrying the iteration, the offending agent,
    and the records so far (numpy's floating-point warnings are silenced:
    the error reports the failure); otherwise the run is ``completed``.
    """
    n = points.shape[0]
    if problem.n_agents != n or mixing.n != n:
        raise InvalidInputError("problem, mixing matrix, and points disagree on the agent count")
    spec, algorithm = problem.spec, cfg.algorithm
    t_start = time.monotonic_ns()
    records, s_hat_sq, gaps = [], None, None
    k = 0
    try:
        if algorithm == DPRGT:
            # No copy: neither array is written in place.  Set-up time in the
            # sweep_lrmc16 benchmark follows glibc heap trimming, which flips
            # with edits here (cyclic GC timing): a copy, or this start before
            # the try, put every set-up at ~400 page faults.
            grads = spec.riemannian_gradient(points, problem.local_grads(points))
            tracker = grads
            # The tracker and gradient sums, one row per iteration, go to a
            # 64 KiB block (K rows raised gevp_bstiefel's peak RSS by 4%)
            # that becomes the diagnostics when full and at k = K.
            rows = max(1, 4096 // grads[0].size)
            sums = np.empty((rows, 2) + grads.shape[1:])
            s_hat_sq, gaps = np.empty(cfg.max_iters + 1), np.empty(cfg.max_iters + 1)
        for k in range(cfg.max_iters + 1):
            # record k carries the step that produced it; the pure consensus
            # scheme takes no gradient step
            alpha = 0.0 if algorithm == CONSENSUS else cfg.schedule.alpha(max(k - 1, 0))
            if k:
                if algorithm == DPRGD:
                    direction = spec.riemannian_gradient(points, problem.local_grads(points))
                elif algorithm == DPRGT:
                    direction = spec.tangent_project_stack(points, tracker)
                mixed = mix(mixing, points, cfg.t)
                if algorithm != CONSENSUS:
                    mixed = mixed - alpha * direction
                points = spec.project_stack(mixed)
                if algorithm == DPRGT:
                    new_grads = spec.riemannian_gradient(points, problem.local_grads(points))
                    tracker = mix(mixing, tracker, cfg.t) + new_grads - grads
                    grads = new_grads
            if algorithm == DPRGT:  # the gap reads the kept gradients, no new evaluation
                j = k % rows
                np.add.reduce(tracker, axis=0, out=sums[j, 0])
                np.add.reduce(grads, axis=0, out=sums[j, 1])
                if j == rows - 1 or k == cfg.max_iters:
                    means = sums[:j + 1].reshape(j + 1, 2, -1) / n
                    s_hat, dev = means[:, 0], means[:, 0] - means[:, 1]
                    s_hat_sq[k - j:k + 1] = np.add.reduce(s_hat * s_hat, axis=1)
                    gaps[k - j:k + 1] = np.sqrt(np.vecdot(dev, dev))
            if k % cfg.trace_every == 0 or k == cfg.max_iters:
                records.append(trace_record(problem, points, truth, k, alpha, t_start))
    except (SingularityError, NonFiniteError) as exc:
        err = TubeViolationError(k, getattr(exc, "block", None), str(exc))
        err.records = records
        raise err from exc
    return Trace(records, "completed", points, s_hat_sq, gaps)

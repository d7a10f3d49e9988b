"""Experiment orchestration: configs, runs, sweeps, and rate studies.

A configuration is a flat text file of dotted ``key = value`` lines
('#' comments allowed), e.g.::

    problem.kind = pca
    problem.seed = 7
    graph.topology = er
    graph.p = 0.6
    graph.seed = 3
    algo.kind = dprgt
    algo.beta = 1.0
    run.K = 3000
    run.seed = 11
    out.dir = out/pca

Running writes ``trace.csv`` (the metrics schema) and ``manifest.txt``, a
key=value echo of the fully resolved configuration followed by reserved
summary keys (status, final.* or abort.*, timing.*, network.*).  Because
the echo is itself a valid configuration and every seed is explicit,
re-running from a manifest reproduces the trace byte for byte.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, make_dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import algorithms, metrics, network, problems
from .errors import ConfigError, InvalidInputError, TubeViolationError

_REQUIRED = object()

# Manifest-only keys; ignored when a manifest is re-used as a config.
RESERVED_PREFIXES = ("status", "abort.", "final.", "timing.", "network.")


class ConfigKey(NamedTuple):
    """One config key: its ``ExperimentConfig`` attribute, how a raw value is
    parsed, and the default when the key is absent.  A callable default is
    a function of the values resolved so far (by attribute) and may return
    ``_REQUIRED``."""

    key: str
    attr: str
    cast: Callable
    default: object = _REQUIRED
    choices: tuple | None = None


def seed(text):
    """A seed as numpy's generators take it: a non-negative integer."""
    if (value := int(text)) < 0:
        raise ValueError(f"negative seed {value}")
    return value


# Row order is the manifest echo order.
CONFIG_KEYS = (
    ConfigKey("problem.kind", "problem_kind", str, choices=("pca", "gevp", "lrmc")),
    ConfigKey("problem.n", "n", int, 8),
    ConfigKey("problem.d", "d", int, 10),
    ConfigKey("problem.r", "r", int, 5),
    ConfigKey("problem.m_i", "m_i", int, 1000),
    ConfigKey("problem.xi", "xi", float, 0.8),
    ConfigKey("problem.m", "m", int, 100),
    ConfigKey("problem.T", "T", int, 1000),
    ConfigKey("problem.seed", "problem_seed", seed),
    ConfigKey("graph.topology", "topology", str, choices=("ring", "complete", "er")),
    ConfigKey("graph.p", "p", float, 0.3),
    ConfigKey("graph.seed", "graph_seed", seed,
              lambda done: _REQUIRED if done["topology"] == "er" else 0),
    ConfigKey("algo.kind", "algo_kind", str, choices=("consensus", "dprgd", "dprgt")),
    ConfigKey("algo.t", "t", int, 1),
    ConfigKey("algo.schedule", "schedule", str, "constant", ("constant", "diminishing")),
    ConfigKey("algo.beta", "beta", float,
              lambda done: _REQUIRED if done["algo_kind"] in ("dprgd", "dprgt") else 0.0),
    ConfigKey("run.K", "max_iters", int),
    ConfigKey("run.seed", "run_seed", seed),
    ConfigKey("run.trace_every", "trace_every", int, 1),
    ConfigKey("run.init", "init_mode", str, "identical", ("identical", "perturbed")),
    ConfigKey("run.delta", "delta", float, 0.1),
    ConfigKey("out.dir", "out_dir", str, None),  # required by what writes files
)
_KNOWN_KEYS = frozenset(row.key for row in CONFIG_KEYS)

ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(row.attr, row.cast) for row in CONFIG_KEYS] + [("echo", tuple)],
    frozen=True,
    namespace={
        "__doc__": "Fully resolved experiment; ``echo`` maps every key with a value to it.",
        "__module__": __name__,
    },
)


def parse_config_text(text, origin="<config>"):
    """Parse flat dotted-key lines into a string-to-string mapping."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        raw[key] = value
    return raw


def parse_config_file(path):
    try:
        with open(path) as fh:
            return parse_config_text(fh.read(), origin=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc


def apply_overrides(raw, overrides):
    """Apply CLI ``key=value`` overrides on top of a parsed config."""
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _reserved(key):
    return any(key == p or key.startswith(p) for p in RESERVED_PREFIXES)


def _resolve(raw, row, default):
    if row.key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {row.key}")
        return default
    if "#" in (text := str(raw[row.key])) or text.splitlines() not in ([], [text]):
        raise ConfigError(f"config key {row.key}: {text!r}: a value cannot hold '#' or a line break")
    try:
        value = row.cast(raw[row.key])
    except ValueError as exc:
        raise ConfigError(f"config key {row.key}: cannot parse {raw[row.key]!r} as "
                          f"{row.cast.__name__}") from exc
    if row.choices is not None and value not in row.choices:
        raise ConfigError(f"config key {row.key}: {value!r} not one of {sorted(row.choices)}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"config key {row.key}: {raw[row.key]!r} is not finite")
    return value


def resolve_config(raw):
    """Validate and type the raw mapping; unknown keys are rejected."""
    unknown = [k for k in raw if k not in _KNOWN_KEYS and not _reserved(k)]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]}")
    done = {}
    for row in CONFIG_KEYS:
        default = row.default(done) if callable(row.default) else row.default
        done[row.attr] = _resolve(raw, row, default)
    echo = tuple((row.key, done[row.attr]) for row in CONFIG_KEYS if done[row.attr] is not None)
    return ExperimentConfig(**done, echo=echo)


def load_config(path=None, overrides=()):
    """Resolve a config file (none: only the overrides) with overrides applied."""
    raw = parse_config_file(path) if path else {}
    return resolve_config(apply_overrides(raw, overrides))


def require_out_dir(cfg):
    """``out.dir``, which is required wherever files are written."""
    if cfg.out_dir is None:
        raise ConfigError("missing required config key out.dir")
    return cfg.out_dir


# ---------------------------------------------------------------------------
# experiment assembly


def build_run(cfg):
    """Problem, ground truth, mixing matrix, initial system, and run config
    from an experiment config; the problem is generated from its seed."""
    if cfg.problem_kind == "pca":
        problem, truth = problems.gen_pca_data(cfg.n, cfg.m_i, cfg.d, cfg.r, cfg.xi, cfg.problem_seed)
    elif cfg.problem_kind == "gevp":
        problem, truth = problems.gen_gevp_data(cfg.n, cfg.m_i, cfg.d, cfg.r, cfg.xi, cfg.problem_seed)
    else:
        problem, truth = problems.gen_lrmc_data(cfg.n, cfg.m, cfg.T, cfg.r, cfg.problem_seed)
    graph = network.build_graph(cfg.topology, problem.n_agents, seed=cfg.graph_seed, p=cfg.p)
    mixing = network.metropolis_weights(graph)
    schedule = algorithms.StepSchedule()
    if cfg.algo_kind != "consensus":
        if not cfg.beta > 0:
            raise ConfigError(f"config key algo.beta: {cfg.beta!r} must be positive for {cfg.algo_kind}")
        schedule = algorithms.StepSchedule(cfg.schedule, cfg.beta)
    system = algorithms.init_system(problem, cfg.init_mode, seed=cfg.run_seed, delta=cfg.delta)
    run_cfg = algorithms.RunConfig(
        algorithm=cfg.algo_kind,
        t=cfg.t,
        schedule=schedule,
        max_iters=cfg.max_iters,
        trace_every=cfg.trace_every,
    )
    return problem, truth, mixing, system, run_cfg


def run_experiment(cfg):
    """Build, run, and persist one experiment; returns the trace path.

    Output files are overwritten: they are a pure function of the config.
    A completed run and one that leaves the regime (and so raises
    :class:`TubeViolationError`) write the same two files: the trace
    records taken and the manifest, whose summary gives the final record
    or the abort iteration and agent.  A completed run's summary also
    gives ``final.agent_dist_mean``, the agents' mean subspace distance to
    the generated truth x*.  An aborted run then re-raises.
    """
    os.makedirs(require_out_dir(cfg), exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    manifest_path = os.path.join(cfg.out_dir, "manifest.txt")
    problem, truth, mixing, system, run_cfg = build_run(cfg)
    started = time.monotonic_ns()
    trace = aborted = None
    try:
        trace = algorithms.run(run_cfg, problem, mixing, system, truth)
    except TubeViolationError as exc:
        aborted = exc
    if trace is None:
        summary = {"status": "aborted", "abort.iteration": aborted.iteration,
                   "abort.agent": "" if aborted.agent is None else aborted.agent}
    else:
        final = trace.records[-1]
        summary = {"status": trace.status, "final.iter": final.iter}
        summary.update((f"final.{name}", metrics.fmt_float(getattr(final, name))) for name in
                       ("consensus_error", "objective_at_mean", "grad_norm_sq", "dist_to_truth"))
        dists = [metrics.subspace_distance(x, truth.x_star) for x in trace.points]
        summary["final.agent_dist_mean"] = metrics.fmt_float(np.mean(dists))
    summary["timing.wall_ns"] = time.monotonic_ns() - started
    summary["network.sigma2"] = metrics.fmt_float(mixing.sigma2)
    metrics.write_trace(trace_path, aborted.records if trace is None else trace.records)
    with open(manifest_path, "w") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in (*cfg.echo, *summary.items())))
    if aborted is not None:
        raise aborted
    return trace_path


# ---------------------------------------------------------------------------
# step-size sweeps


@dataclass
class SweepCandidate:
    """One step-size candidate and its final trace record (None if it aborted)."""

    beta: float
    status: str
    score: float
    final: metrics.TraceRecord | None


@dataclass
class SweepResult:
    best_beta: float
    candidates: list


def sweep(cfg, betas, workers=1):
    """Run every step-size candidate under identical seeds and pick the best.

    The problem, mixing matrix and initial system are built once and shared
    by every candidate (a run mutates none of them); only the step schedule
    differs.  A candidate scores the squared Riemannian gradient norm of its
    final trace record; ties break toward the smaller candidate.  Candidates
    whose runs abort score +inf.  Candidates execute on a pool of
    ``workers`` threads; results are merged in candidate order, so the
    outcome does not depend on the worker count.
    """
    if not betas:
        raise InvalidInputError("need at least one step-size candidate")
    if workers < 1:
        raise InvalidInputError(f"workers must be positive, got {workers}")
    problem, truth, mixing, system, run_cfg = build_run(cfg)

    def run_candidate(beta):
        schedule = algorithms.StepSchedule(cfg.schedule, beta)
        try:
            trace = algorithms.run(replace(run_cfg, schedule=schedule), problem, mixing, system, truth)
        except TubeViolationError:
            return SweepCandidate(beta, "aborted", float("inf"), None)
        final = trace.records[-1]
        return SweepCandidate(beta, trace.status, float(final.grad_norm_sq), final)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        candidates = list(pool.map(run_candidate, betas))
    best = min(candidates, key=lambda c: (c.score, c.beta))
    return SweepResult(best.beta, candidates)


def write_sweep_summary(path, result):
    with open(path, "w") as fh:
        fh.write("beta,status,score,final_objective,final_grad_norm_sq,final_consensus_error\n")
        for c in result.candidates:
            finals = [getattr(c.final, name, None)  # None for an aborted candidate
                      for name in ("objective_at_mean", "grad_norm_sq", "consensus_error")]
            row = [metrics.fmt_float(c.beta), c.status] + [metrics.fmt_float(v) for v in (c.score, *finals)]
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# consensus rate study


@dataclass
class RateStudyResult:
    """Per-step contraction ratios of a consensus-only run.

    ``errors`` are the stacked deviations e_k = ||x_k - xbar_k||, truncated
    at the first value below 1e-13 (the numerical floor); ``ratios`` are
    e_{k+1}/e_k within that window, each required to satisfy
    ``rate_bound``, the mixing matrix's contraction rate 2 sigma2^t;
    ``tail_rate`` is a geometric fit over the tail of the window, to compare
    against sigma2^t.
    """

    errors: np.ndarray
    ratios: np.ndarray
    tail_rate: float
    sigma2: float
    t: int
    rate_bound: float


ERROR_FLOOR = 1e-13
# Ratios used for the tail fit additionally require both endpoints a decade
# above the floor, so rounding noise cannot bias the fitted rate.
FIT_FLOOR = 1e-12


def rate_study(cfg):
    """Measure per-step consensus contraction and fit the asymptotic rate.

    Requires a consensus-only configuration.  Every in-window ratio must
    satisfy e_{k+1}/e_k <= 2 sigma2^t + 1e-6; a violation raises
    RuntimeError since it falsifies the contraction property.
    """
    if cfg.algo_kind != "consensus":
        raise ConfigError("rate_study requires algo.kind = consensus")
    problem, truth, mixing, system, run_cfg = build_run(cfg)
    trace = algorithms.run(replace(run_cfg, trace_every=1), problem, mixing, system, truth)
    n = problem.n_agents
    errors = np.sqrt(n * np.array([rec.consensus_error for rec in trace.records]))
    cut = np.nonzero(errors < ERROR_FLOOR)[0]
    if cut.size:
        errors = errors[: cut[0]]
    rate = mixing.contraction_rate(cfg.t)
    if errors.size < 2:
        return RateStudyResult(errors, np.array([]), float("nan"), mixing.sigma2, cfg.t, rate)
    ratios = errors[1:] / errors[:-1]
    bound = rate + 1e-6
    worst = float(np.max(ratios))
    if worst > bound:
        raise RuntimeError(f"contraction ratio {worst:.6g} exceeds the bound {bound:.6g}")
    clean = np.nonzero(errors[1:] >= FIT_FLOOR)[0]
    fit_ratios = ratios[clean] if clean.size else ratios
    tail = fit_ratios[len(fit_ratios) // 2:]
    tail_rate = float(np.exp(np.mean(np.log(tail))))
    return RateStudyResult(errors, ratios, tail_rate, mixing.sigma2, cfg.t, rate)

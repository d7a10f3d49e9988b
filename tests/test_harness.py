import ast
import hashlib
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decmanopt import algorithms, harness, metrics
from decmanopt.errors import ConfigError, InvalidInputError, TubeViolationError
from decmanopt.network import build_graph, consensus_radius_t, metropolis_weights


def small_cfg(tmp_path, **extra):
    raw = {
        "problem.kind": "pca",
        "problem.n": "4",
        "problem.d": "6",
        "problem.r": "2",
        "problem.m_i": "50",
        "problem.seed": "7",
        "graph.topology": "ring",
        "algo.kind": "dprgt",
        "algo.beta": "0.5",
        "run.K": "40",
        "run.seed": "11",
        "run.trace_every": "10",
        "out.dir": str(tmp_path / "out"),
    }
    raw.update({k: str(v) for k, v in extra.items()})
    return harness.resolve_config(raw)


# Manifest echo lines (everything before status=) written by the config
# schema before it became one table; the table must reproduce them.
SMALL_ECHO = """problem.kind=pca
problem.n=4
problem.d=6
problem.r=2
problem.m_i=50
problem.xi=0.8
problem.m=100
problem.T=1000
problem.seed=7
graph.topology=ring
graph.p=0.3
graph.seed=0
algo.kind=dprgt
algo.t=1
algo.schedule=constant
algo.beta=0.5
run.K=40
run.seed=11
run.trace_every=10
run.init=identical
run.delta=0.1
metrics.agent_dist=false
out.dir={out}
out.points=false
"""


def test_manifest_echo_matches_golden(tmp_path):
    cfg = small_cfg(tmp_path)
    harness.run_experiment(cfg)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert manifest.split("status=")[0] == SMALL_ECHO.format(out=tmp_path / "out")


@pytest.mark.parametrize("key", [row.key for row in harness.CONFIG_KEYS if row.cast is float])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
def test_nonfinite_float_value_names_its_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=f"config key {key}: '{value}' is not finite"):
        small_cfg(tmp_path, **{key: value})


_ALWAYS_REQUIRED = ("problem.kind", "problem.seed", "graph.topology", "algo.kind", "run.K",
                    "run.seed", "out.dir")
_VALUES = {
    int: st.integers(-10**9, 10**9).map(str),
    float: st.floats(allow_nan=False, allow_infinity=False).map(repr),
    str: st.text("abc/_.-0123456789", min_size=1),
}
_BOOL_TEXT = st.sampled_from(["true", "false", "TRUE", "False", "yes", "no", "1", "0"])


# When each conditionally required key is required, given the keys before it.
_REQUIRED_IF = {
    "graph.seed": lambda raw: raw["graph.topology"] == "er",
    "algo.beta": lambda raw: raw["algo.kind"] in ("dprgd", "dprgt"),
}


@st.composite
def valid_raws(draw):
    """A valid raw config and its required keys: the always-required ones,
    the conditionally required ones whose rule applies, and a random subset
    of the rest."""
    raw, required = {}, []
    for row in harness.CONFIG_KEYS:
        if row.choices is not None:
            values = st.sampled_from(row.choices)
        else:
            values = _VALUES.get(row.cast, _BOOL_TEXT)
        if row.key in _ALWAYS_REQUIRED or _REQUIRED_IF.get(row.key, lambda raw: False)(raw):
            required.append(row.key)
            raw[row.key] = draw(values)
        elif draw(st.booleans()):
            raw[row.key] = draw(values)
    return raw, required


@settings(max_examples=300, deadline=None)
@given(valid_raws())
def test_resolve_round_trips_through_the_echo(drawn):
    raw, required = drawn
    cfg = harness.resolve_config(raw)
    assert harness.resolve_config(dict(cfg.echo)) == cfg
    # the manifest writes the echo as text, which must resolve to the same config
    assert harness.resolve_config({k: str(v) for k, v in cfg.echo}) == cfg
    for key in required:
        with pytest.raises(ConfigError, match=f"missing required config key {key}"):
            harness.resolve_config({k: v for k, v in raw.items() if k != key})


def test_readme_lists_every_config_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    for row in harness.CONFIG_KEYS:
        lines = [line for line in readme if f"{row.key} = " in line]
        assert lines, f"README does not list {row.key}"
        if isinstance(row.default, (bool, int, float, str)):
            shown = str(row.default).lower() if isinstance(row.default, bool) else row.default
            assert any(f"default {shown}" in line for line in lines), row.key


def test_every_export_has_a_caller_outside_tests():
    # A public name earns its export by a use in the library or a demo.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "decmanopt"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*package.glob("*.py"), *(root / "demos").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used) == []


def test_parse_config_text():
    raw = harness.parse_config_text("a.b = 1  # comment\n\n# full comment\nc.d=x=y\n")
    assert raw == {"a.b": "1", "c.d": "x=y"}
    with pytest.raises(ConfigError):
        harness.parse_config_text("not a pair\n")


def test_overrides_and_unknown_keys(tmp_path):
    cfg = small_cfg(tmp_path)
    raw = dict(cfg.echo)
    raw = harness.apply_overrides(raw, ["run.K=3"])
    assert harness.resolve_config(raw).max_iters == 3
    with pytest.raises(ConfigError) as info:
        harness.resolve_config({**raw, "run.bogus": "1"})
    assert "run.bogus" in str(info.value)
    with pytest.raises(ConfigError):
        harness.apply_overrides(raw, ["novalue"])


@pytest.mark.parametrize("algo", ["dprgd", "dprgt"])
@pytest.mark.parametrize("beta", ["0", "-0.5"])
def test_build_run_rejects_nonpositive_beta(tmp_path, algo, beta):
    cfg = small_cfg(tmp_path, **{"algo.kind": algo, "algo.beta": beta,
                                 "algo.schedule": "diminishing"})
    with pytest.raises(ConfigError, match="algo.beta"):
        harness.build_run(cfg)


def test_build_run_keeps_the_configured_schedule(tmp_path):
    run_cfg = harness.build_run(small_cfg(tmp_path, **{"algo.schedule": "diminishing"}))[4]
    assert run_cfg.schedule == algorithms.StepSchedule("diminishing", 0.5)
    for extra in ({}, {"algo.beta": "0"}):
        consensus = small_cfg(tmp_path, **{"algo.kind": "consensus", **extra})
        assert harness.build_run(consensus)[4].schedule == algorithms.StepSchedule()


def test_missing_required_key_named():
    base = {"problem.kind": "pca", "problem.seed": "1", "graph.topology": "ring",
            "algo.kind": "consensus", "run.K": "1", "run.seed": "1", "out.dir": "x"}
    for key in ("problem.seed", "run.K", "run.seed", "out.dir"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ConfigError) as info:
            harness.resolve_config(broken)
        assert key in str(info.value)
    # an Erdos-Renyi topology additionally requires its seed
    with pytest.raises(ConfigError) as info:
        harness.resolve_config({**base, "graph.topology": "er"})
    assert "graph.seed" in str(info.value)


def test_run_experiment_row_count_and_manifest(tmp_path):
    cfg = small_cfg(tmp_path)
    trace_path = harness.run_experiment(cfg)
    assert len(Path(trace_path).read_text().splitlines()) == 1 + 40 // 10 + 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "status=completed" in manifest
    assert "run.seed=11" in manifest
    assert "problem.seed=7" in manifest
    assert "network.sigma2=" in manifest


def test_run_experiment_zero_iters(tmp_path):
    cfg = small_cfg(tmp_path, **{"run.K": 0})
    lines = Path(harness.run_experiment(cfg)).read_text().splitlines()
    assert len(lines) == 2  # the header and the iteration-0 record


def test_run_experiment_no_clobber(tmp_path):
    cfg = small_cfg(tmp_path)
    harness.run_experiment(cfg)
    with pytest.raises(ConfigError):
        harness.run_experiment(cfg, no_clobber=True)
    harness.run_experiment(cfg)  # overwrite is the default


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = small_cfg(tmp_path)
    first = Path(harness.run_experiment(cfg)).read_bytes()
    second = Path(harness.run_experiment(cfg)).read_bytes()
    assert first == second


# Small DPRGT runs whose output bytes are pinned by test_golden_run_bytes.
_GOLDEN_RUNS = {
    "gevp_er": ({"problem.kind": "gevp", "problem.n": "6", "problem.d": "8", "problem.r": "3",
                 "problem.m_i": "60", "graph.topology": "er", "graph.p": "0.6",
                 "graph.seed": "3", "algo.beta": "2.0"}, {
        "trace.csv": "0ec808196cdf15ed3eee565cce069724ca5c47eead7a92c213e88b0397531a23",
        "tracking_gap": "c03d1ec2ba99e7bb9b28f22ba1d5977441b97a08b9e3de9185fbc1cd1f8d30aa",
        "s_hat_norm_sq": "a856ff85810d712e802ebb866e9896ca8ec874e98a0f8a90398b2b4dd8d5eab8"}),
    "lrmc_ring": ({"problem.kind": "lrmc", "problem.n": "4", "problem.m": "30", "problem.T": "80",
                   "problem.r": "3", "graph.topology": "ring", "algo.beta": "2e-3"}, {
        "trace.csv": "303e85e94d9189603e118c756b4b989e1cd88854a996d5150ee86d27343de098",
        "tracking_gap": "c71423f2821194f7350494e11f5ccf4c8aebfec67d6b8c2b32dd9ba8160701f6",
        "s_hat_norm_sq": "5d0e603ca3a4c1b6046db0630e8984b1ce98f9614a524258aaa742dc164fb1e7"}),
    # Two block widths (14, 14, 13, 13, 13, 13), so two LRMC stacks.
    "lrmc_uneven": ({"problem.kind": "lrmc", "problem.n": "6", "problem.m": "30", "problem.T": "80",
                     "problem.r": "3", "graph.topology": "ring", "algo.beta": "2e-3"}, {
        "trace.csv": "826825aa61b51c20a5cd4ae96187baaa0bc517d67d9f1b92902d0e9f2539075d",
        "tracking_gap": "fc95ca550bd89cfac0cf6f6269dbcea9f7a8f4919d9d13893f2479429bacf211",
        "s_hat_norm_sq": "d7c6fb538a42ee3743e198117756d7f3773c466f5ad8eb6c6d2d713616cb6b2f"}),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_golden_run_bytes(tmp_path, name):
    """A change that claims no behaviour change keeps these bytes.

    The digests were made with numpy 2.4.6 on OpenBLAS 0.3.31
    (scipy-openblas64, DYNAMIC_ARCH) on an x86-64 Xeon with AVX-512, Python
    3.11.7.  Another BLAS build or CPU kernel may round differently; then
    recapture them from the parent commit on that machine.
    """
    raw, digests = _GOLDEN_RUNS[name]
    cfg = harness.resolve_config({**raw, "problem.seed": "7", "algo.kind": "dprgt",
                                  "run.K": "200", "run.seed": "11", "run.trace_every": "10",
                                  "out.dir": str(tmp_path)})
    problem, truth, mixing, system, run_cfg = harness.build_run(cfg)
    trace = algorithms.run(run_cfg, problem, mixing, system, truth)
    metrics.write_trace(tmp_path / "trace.csv", trace.records)
    got = {"trace.csv": (tmp_path / "trace.csv").read_bytes(),
           "tracking_gap": trace.tracking_gap.tobytes(),
           "s_hat_norm_sq": trace.s_hat_norm_sq.tobytes()}
    assert {k: hashlib.sha256(b).hexdigest() for k, b in got.items()} == digests


def test_manifest_reruns_to_identical_trace(tmp_path):
    cfg = small_cfg(tmp_path)
    trace_bytes = Path(harness.run_experiment(cfg)).read_bytes()
    manifest_path = os.path.join(cfg.out_dir, "manifest.txt")
    cfg2 = harness.load_config(manifest_path, overrides=[f"out.dir={tmp_path / 'out2'}"])
    trace_bytes2 = Path(harness.run_experiment(cfg2)).read_bytes()
    assert trace_bytes == trace_bytes2


def test_run_experiment_records_abort(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)

    def boom(*args, **kwargs):
        err = TubeViolationError(3, 1)
        err.records = []
        raise err

    monkeypatch.setattr(algorithms, "run", boom)
    with pytest.raises(TubeViolationError):
        harness.run_experiment(cfg)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "status=aborted" in manifest
    assert "abort.iteration=3" in manifest
    assert "abort.agent=1" in manifest


def test_sweep_single_and_duplicate_candidates(tmp_path):
    cfg = small_cfg(tmp_path, **{"run.K": 20})
    res = harness.sweep(cfg, [0.4])
    assert res.best_beta == 0.4
    res = harness.sweep(cfg, [0.4, 0.4])
    assert res.best_beta == 0.4 and len(res.candidates) == 2


def test_sweep_selection_and_worker_independence(tmp_path):
    cfg = small_cfg(tmp_path, **{"run.K": 30})
    betas = [0.05, 0.2, 0.8]
    res1 = harness.sweep(cfg, betas, metric="grad_norm_sq", workers=1)
    res2 = harness.sweep(cfg, betas, metric="grad_norm_sq", workers=4)
    assert res1.best_beta == res2.best_beta
    assert [c.score for c in res1.candidates] == [c.score for c in res2.candidates]
    scores = {c.beta: c.score for c in res1.candidates}
    assert res1.best_beta == min(betas, key=lambda b: (scores[b], b))


def test_sweep_aborted_candidate_scores_inf(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path, **{"run.K": 10})
    real_run = algorithms.run

    def sometimes_boom(run_cfg, *args, **kwargs):
        if run_cfg.schedule.beta > 1.0:
            err = TubeViolationError(1, 0)
            err.records = []
            raise err
        return real_run(run_cfg, *args, **kwargs)

    monkeypatch.setattr(algorithms, "run", sometimes_boom)
    res = harness.sweep(cfg, [0.5, 2.0])
    assert res.best_beta == 0.5
    aborted = [c for c in res.candidates if c.beta == 2.0][0]
    assert aborted.status == "aborted" and math.isinf(aborted.score)


def test_sweep_builds_once(tmp_path, monkeypatch):
    built = []
    real_build = harness.build_run
    monkeypatch.setattr(harness, "build_run", lambda cfg: built.append(cfg) or real_build(cfg))
    res = harness.sweep(small_cfg(tmp_path, **{"run.K": 5}), [0.1, 0.2, 0.4], workers=2)
    assert len(built) == 1 and len(res.candidates) == 3


def test_sweep_rejects_nonpositive_workers(tmp_path):
    with pytest.raises(InvalidInputError, match="workers"):
        harness.sweep(small_cfg(tmp_path), [0.1], workers=0)


_SWEEP_PROBLEMS = {
    "pca": {"problem.n": "3", "problem.d": "5", "problem.r": "2", "problem.m_i": "20"},
    "gevp": {"problem.n": "3", "problem.d": "5", "problem.r": "2", "problem.m_i": "20"},
    "lrmc": {"problem.n": "3", "problem.m": "8", "problem.T": "12", "problem.r": "2"},
}


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(_SWEEP_PROBLEMS)), algo=st.sampled_from(["dprgd", "dprgt"]),
       seed=st.integers(0, 2**16), betas=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=2),
       diverging=st.sampled_from([1e9, 1e200]))
def test_sweep_candidates_equal_fresh_runs_for_any_worker_count(kind, algo, seed, betas,
                                                                diverging):
    # The shared build and the pool change nothing: every candidate, the
    # diverging one included (1e200 aborts on gevp and some lrmc draws),
    # matches a run on a build of its own.
    cfg = harness.resolve_config({
        "problem.kind": kind, **_SWEEP_PROBLEMS[kind], "problem.seed": str(seed),
        "graph.topology": "ring", "algo.kind": algo, "algo.beta": "0.1", "run.K": "6",
        "run.seed": str(seed + 1), "run.trace_every": "4", "out.dir": "unused",
    })
    betas = [*betas, diverging]
    fresh = []
    for beta in betas:
        problem, truth, mixing, system, run_cfg = harness.build_run(cfg)
        run_cfg = replace(run_cfg, schedule=algorithms.StepSchedule(cfg.schedule, beta))
        try:
            trace = algorithms.run(run_cfg, problem, mixing, system, truth)
        except TubeViolationError:
            fresh.append(("aborted", math.inf, None))
            continue
        final = trace.records[-1]
        fresh.append((trace.status, final.grad_norm_sq, replace(final, wall_ns=None)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the shared-build runs
    try:
        for workers in (1, 3):
            res = harness.sweep(cfg, betas, workers=workers)
            assert [(c.status, c.score, c.final and replace(c.final, wall_ns=None))
                    for c in res.candidates] == fresh
    finally:
        sys.setswitchinterval(interval)


def test_sweep_summary_file(tmp_path):
    cfg = small_cfg(tmp_path, **{"run.K": 10})
    res = harness.sweep(cfg, [0.3, 0.6])
    path = tmp_path / "sweep.csv"
    harness.write_sweep_summary(path, res)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("beta,status,score")
    assert len(lines) == 3


def test_rate_study_complete_graph_one_step(tmp_path):
    cfg = small_cfg(
        tmp_path,
        **{
            "graph.topology": "complete",
            "algo.kind": "consensus",
            "run.K": 10,
            "run.init": "perturbed",
            "run.delta": "0.1",
        },
    )
    res = harness.rate_study(cfg)
    # One gossip round reaches exact consensus: the error window ends at e_0.
    assert len(res.errors) == 1
    assert res.ratios.size == 0


def test_rate_study_ring(tmp_path):
    cfg = small_cfg(
        tmp_path,
        **{
            "problem.d": "10",
            "problem.r": "5",
            "graph.topology": "ring",
            "problem.n": "8",
            "algo.kind": "consensus",
            "run.K": 120,
            "run.init": "perturbed",
            "run.delta": "0.1",
        },
    )
    res = harness.rate_study(cfg)
    assert np.all(res.ratios <= res.rate_bound + 1e-6)
    assert res.sigma2 * 0.9 <= res.tail_rate <= 2.0 * res.sigma2


def test_rate_study_large_t_tail(tmp_path):
    g = build_graph("ring", 8)
    m = metropolis_weights(g)
    t_star = consensus_radius_t(m, 0.5, 2.0 * np.sqrt(5.0), 8)
    cfg = small_cfg(
        tmp_path,
        **{
            "problem.d": "10",
            "problem.r": "5",
            "graph.topology": "ring",
            "problem.n": "8",
            "algo.kind": "consensus",
            "algo.t": t_star,
            "run.K": 30,
            "run.init": "perturbed",
            "run.delta": "0.1",
        },
    )
    res = harness.rate_study(cfg)
    assert res.tail_rate <= m.sigma2**t_star * 1.05


def test_rate_study_requires_consensus(tmp_path):
    with pytest.raises(ConfigError):
        harness.rate_study(small_cfg(tmp_path))


def test_agent_dist_flag_reports_per_agent_mean(tmp_path):
    cfg = small_cfg(tmp_path, **{"metrics.agent_dist": "true", "run.K": 20})
    harness.run_experiment(cfg)
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "final.agent_dist_mean=" in manifest
    cfg2 = small_cfg(tmp_path, **{"run.K": 20})
    harness.run_experiment(cfg2)
    assert "final.agent_dist_mean" not in (tmp_path / "out" / "manifest.txt").read_text()


def test_save_points_writes_final_agent_states(tmp_path):
    cfg = small_cfg(tmp_path, **{"out.points": "true", "run.K": 15})
    harness.run_experiment(cfg)
    for i in range(4):
        x = np.loadtxt(tmp_path / "out" / f"points_{i}.csv", delimiter=",")
        assert x.shape == (6, 2)
        assert np.linalg.norm(x.T @ x - np.eye(2)) <= 1e-8

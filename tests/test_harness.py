import ast
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
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
out.dir={out}
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
                    "run.seed")
_VALUES = {
    int: st.integers(-10**9, 10**9).map(str),
    harness.seed: st.integers(0, 10**9).map(str),
    float: st.floats(allow_nan=False, allow_infinity=False).map(repr),
    str: st.text("abc/_.-0123456789", min_size=1),
}


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
            values = _VALUES[row.cast]
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
        if isinstance(row.default, (int, float, str)):
            assert any(f"default {row.default}" in line for line in lines), row.key


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
    # an unknown key is named before any missing required key
    with pytest.raises(ConfigError, match="^unknown config key run.eps$"):
        harness.resolve_config({"run.eps": "1e-10"})


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
            "algo.kind": "consensus", "run.K": "1", "run.seed": "1"}
    for key in ("problem.seed", "run.K", "run.seed"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ConfigError) as info:
            harness.resolve_config(broken)
        assert key in str(info.value)
    # out.dir is required only where files are written
    with pytest.raises(ConfigError, match="^missing required config key out.dir$"):
        harness.run_experiment(harness.resolve_config(base))
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
    harness.run_experiment(cfg)  # a second run overwrites the first


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = small_cfg(tmp_path)
    first = Path(harness.run_experiment(cfg)).read_bytes()
    second = Path(harness.run_experiment(cfg)).read_bytes()
    assert first == second


@pytest.mark.parametrize("name", sorted(golden.RUNS))
def test_golden_run_bytes(tmp_path, name):
    """A change that claims no behaviour change keeps these bytes (see
    tests/golden.py for the runs and how their digests are captured)."""
    kernel = golden.blas_kernel()
    assert kernel in golden.DIGESTS, (
        f"no golden digests for the BLAS kernel {kernel!r}; capture them from a trusted "
        f"commit with `{golden.CAPTURE}` and add them to tests/golden.py")
    assert golden.run(name, tmp_path)[0] == golden.DIGESTS[kernel][name]


@pytest.mark.parametrize("name", sorted(golden.VALUES))
def test_golden_run_values(tmp_path, name):
    # A change that moves bits on purpose must still meet the value pins.
    assert golden.finals_off_pin(name, golden.run(name, tmp_path)[1]) == {}


@pytest.fixture(scope="module")
def other_kernel_runs():
    # The other kernels' results rot unless they are checked too: rerun the
    # golden runs in a subprocess with OPENBLAS_CORETYPE set to each one.
    others = sorted(set(golden.DIGESTS) - {golden.blas_kernel()})
    return {kernel: golden.kernel_runs(kernel) for kernel in others}


def test_golden_run_bytes_under_other_blas_kernels(other_kernel_runs):
    for kernel, runs in other_kernel_runs.items():
        assert {name: got for name, (got, _) in runs.items()} == golden.DIGESTS[kernel], kernel


def test_golden_run_values_under_other_blas_kernels(other_kernel_runs):
    for kernel, runs in other_kernel_runs.items():
        off = {name: golden.finals_off_pin(name, runs[name][1]) for name in golden.VALUES}
        assert off == {name: {} for name in golden.VALUES}, kernel


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
    res1 = harness.sweep(cfg, betas, workers=1)
    res2 = harness.sweep(cfg, betas, workers=4)
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


def test_rate_study_needs_no_out_dir():
    # The rate study writes nothing, so its config may leave out.dir out.
    cfg = harness.resolve_config({
        "problem.kind": "pca", "problem.n": "4", "problem.d": "6", "problem.r": "2",
        "problem.m_i": "50", "problem.seed": "7", "graph.topology": "complete",
        "algo.kind": "consensus", "run.K": "10", "run.seed": "11", "run.init": "perturbed"})
    assert cfg.out_dir is None
    assert len(harness.rate_study(cfg).errors) == 1


def test_rate_study_requires_consensus(tmp_path):
    with pytest.raises(ConfigError):
        harness.rate_study(small_cfg(tmp_path))


def test_agent_dist_flag_reports_per_agent_mean(tmp_path, monkeypatch):
    # Every finished run reports the agents' mean distance to x*; an
    # aborted one has no final states to report.
    cfg = small_cfg(tmp_path, **{"run.K": 20})
    harness.run_experiment(cfg)
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "out" / "manifest.txt").read_text().splitlines())
    problem, truth, mixing, points, run_cfg = harness.build_run(cfg)
    points = algorithms.run(run_cfg, problem, mixing, points, truth).points
    dists = [metrics.subspace_distance(x, truth.x_star) for x in points]
    assert summary["final.agent_dist_mean"] == metrics.fmt_float(np.mean(dists))

    def boom(*args, **kwargs):
        err = TubeViolationError(3, 1)
        err.records = []
        raise err

    monkeypatch.setattr(algorithms, "run", boom)
    with pytest.raises(TubeViolationError):
        harness.run_experiment(cfg)
    assert "final.agent_dist_mean" not in (tmp_path / "out" / "manifest.txt").read_text()

import subprocess
import sys

import numpy as np
import pytest

from decmanopt import algorithms, problems
from decmanopt.cli import main
from decmanopt.errors import TubeViolationError


def write_cfg(tmp_path, **extra):
    keys = {
        "problem.kind": "pca",
        "problem.n": "4",
        "problem.d": "6",
        "problem.r": "2",
        "problem.m_i": "50",
        "problem.seed": "7",
        "graph.topology": "ring",
        "algo.kind": "dprgt",
        "algo.beta": "0.5",
        "run.K": "30",
        "run.seed": "11",
        "run.trace_every": "10",
        "out.dir": str(tmp_path / "out"),
    }
    keys.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_one_naming_token(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--bogus"])
    assert info.value.code == 1
    assert "--bogus" in capsys.readouterr().err


def test_help_exits_zero():
    for cmd in ("run", "sweep", "rate-study", "check"):
        with pytest.raises(SystemExit) as info:
            main([cmd, "--help"])
        assert info.value.code == 0


def test_run_success(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_run_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["run", "--config", str(missing)]) == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_run_nonpositive_beta_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"algo.beta": "-0.5"})
    assert main(["run", "--config", str(cfg)]) == 1
    assert "algo.beta" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_run_workers_flag_does_not_change_trace(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--workers", "1"]) == 0
    first = (tmp_path / "out" / "trace.csv").read_bytes()
    assert main(["run", "--config", str(cfg), "--workers", "8"]) == 0
    assert (tmp_path / "out" / "trace.csv").read_bytes() == first


def test_run_set_override_and_no_clobber(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", "run.K=10"]) == 0
    assert main(["run", "--config", str(cfg), "--no-clobber"]) == 1
    assert "no-clobber" in capsys.readouterr().err


def test_run_abort_exit_code(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)

    def boom(*args, **kwargs):
        err = TubeViolationError(2, 0)
        err.records = []
        raise err

    monkeypatch.setattr(algorithms, "run", boom)
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_overflow_aborts_with_partial_outputs(tmp_path, capsys):
    # The first step's B-polar gram overflows at this step size: the run
    # aborts like a tube violation, with no numpy warning, and still writes
    # its outputs.
    cfg = write_cfg(tmp_path, **{"problem.kind": "gevp", "algo.beta": "1e200", "run.K": "20"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "iteration 1, agent 0" in capsys.readouterr().err
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert {"status=aborted", "abort.iteration=1", "abort.agent=0"} <= set(manifest)
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in trace[1:]] == ["0"]


def test_run_nan_initial_gradient_aborts_at_iteration_0(tmp_path, monkeypatch, capsys):
    # DPRGT evaluates every agent's gradient before record 0, to start its
    # tracker; a non-finite one aborts there like any tube violation.
    local_grads = problems.GevpProblem.local_grads

    def nan_agent_2(self, xs):
        grads = local_grads(self, xs)
        grads[2] = np.nan
        return grads

    monkeypatch.setattr(problems.GevpProblem, "local_grads", nan_agent_2)
    cfg = write_cfg(tmp_path, **{"problem.kind": "gevp"})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "iteration 0, agent 2" in capsys.readouterr().err
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert {"status=aborted", "abort.iteration=0", "abort.agent=2"} <= set(manifest)
    assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize("r", ["5", "0"])
def test_run_lrmc_rank_out_of_range_names_m_and_r(tmp_path, capsys, r):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", "problem.kind=lrmc",
                 "--set", "problem.m=3", "--set", f"problem.r={r}"]) == 1
    assert capsys.readouterr().err == f"error: need 1 <= r <= m, got m=3, r={r}\n"


@pytest.mark.parametrize("sets, message", [
    (["problem.d=0", "problem.r=1"], "need 1 <= r <= d, got d=0, r=1"),
    (["problem.xi=2"], "xi must lie in (0, 1]"),
    (["problem.xi=0"], "xi must lie in (0, 1]"),
], ids=["d0", "xi2", "xi0"])
def test_run_gevp_rejects_bad_sizes_like_pca(tmp_path, capsys, sets, message):
    cfg = write_cfg(tmp_path)
    for kind in ("pca", "gevp"):
        args = ["run", "--config", str(cfg), "--set", f"problem.kind={kind}"]
        assert main(args + [a for s in sets for a in ("--set", s)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_dataset_bundles_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen-data", "--kind", "pca", "--out", str(tmp_path / "b")])
    assert info.value.code == 1
    capsys.readouterr()
    cfg = write_cfg(tmp_path, **{"problem.kind": "bundle"})
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: config key problem.kind: 'bundle'")


@pytest.mark.parametrize("key", ["metrics.agent_dist", "out.points"])
def test_removed_output_options_are_unknown_keys(tmp_path, capsys, key):
    cfg = write_cfg(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", f"{key}=true"]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key}\n"


def test_sweep_writes_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"run.K": 20})
    assert main(["sweep", "--config", str(cfg), "--betas", "0.2,0.5", "--workers", "2"]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert "best beta" in capsys.readouterr().err


def test_sweep_metric_objective_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"run.K": 5})
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(cfg), "--betas", "0.2", "--metric", "objective"])
    assert info.value.code == 1
    assert "invalid choice: 'objective'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_study_writes_rates(tmp_path):
    cfg = write_cfg(
        tmp_path,
        **{"algo.kind": "consensus", "run.init": "perturbed", "run.K": 50},
    )
    assert main(["rate-study", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "rates.csv").exists()


def test_check_stiefel(capsys):
    assert main(["check", "--manifold", "stiefel", "--d", "8", "--r", "3",
                 "--trials", "50"]) == 0
    err = capsys.readouterr().err
    assert "max_ratio_lip" in err and "max_ratio_quad" in err


def test_check_generalized(capsys):
    assert main(["check", "--manifold", "generalized-stiefel", "--d", "6", "--r", "2",
                 "--trials", "20"]) == 0
    assert "max_ratio_lip" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["-0.1", "0"])
def test_check_rejects_nonpositive_noise_scale(capsys, scale):
    assert main(["check", "--trials", "5", "--noise-scale", scale]) == 1
    assert "error: noise_scale" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["0", "-2"])
def test_check_generalized_rejects_nonpositive_size(d):
    proc = subprocess.run(
        [sys.executable, "-m", "decmanopt", "check", "--manifold", "generalized-stiefel",
         "--d", d, "--trials", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: need d >= 1")
    assert "Traceback" not in proc.stderr


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, **{"run.K": 5})
    proc = subprocess.run(
        [sys.executable, "-m", "decmanopt", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()
    assert proc.stdout == ""  # data goes to files, diagnostics to stderr


@pytest.mark.parametrize("args, named", [
    (["run", "--set", "problem.seed=-1"], "problem.seed"),
    (["run", "--set", "graph.topology=er", "--set", "graph.seed=-1"], "graph.seed"),
    (["run", "--set", "run.seed=-1"], "run.seed"),
    (["check", "--seed", "-1", "--trials", "5"], "--seed"),
    (["run", "--set", "out.dir=FILE"], "FILE"),
    (["run", "--set", "out.dir=FILE/out"], "FILE"),
], ids=["problem-seed", "graph-seed", "run-seed", "check-seed", "out-dir-file", "out-dir-under-file"])
def test_bad_invocations_give_one_error_line(tmp_path, args, named):
    cfg = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    args = [a.replace("FILE", str(blocker)) for a in args]
    if args[0] == "run":
        args[1:1] = ["--config", str(cfg)]
    proc = subprocess.run([sys.executable, "-m", "decmanopt", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and named.replace("FILE", str(blocker)) in errors[0]
    assert "Traceback" not in proc.stderr

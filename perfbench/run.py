"""decmanopt benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload gevp_bstiefel --seed 0 --seconds 45 --trace 0

Run from a checkout that holds ``src/decmanopt``.  Repetitions run one at a
time (the sweep workload runs its candidates on the CLI's own pool with
``--workers`` = nproc) until ``--seconds`` have passed, at least two
repetitions have run and, untraced, at least 100 iteration-time samples are
in.  Every repetition sets up from scratch (``resolve_config`` +
``build_run``), runs, and passes a correctness gate or counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics from the spans of the traced ones, which it also writes to
``.perfbench_out/spans_<workload>.csv``.  The last line of standard output
is the result object; the line before it holds the environment, sample
counts and gate failures.  ``--smoke`` runs with a small K and checks
everything except reaching the tolerance.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_SAMPLES = 100           # iteration intervals needed for the p90 on the detail line
MIN_REPS = 2
SETUP_REPEATS = 20          # extra set-ups per untraced run, for the setup_s median
HARD_LIMIT_S = 140.0        # stop adding repetitions after this, whatever is missing

# Direct children of algorithms.run that record metrics (an induced-mean
# projection, the consensus error, a full-data gradient at the mean and its
# tangent projection, and the distance to the truth).
RECORD_SPANS = ("metrics.induced_mean", "metrics.consensus_error", "metrics.subspace_distance",
                "problems.mean_value_and_gradient", "manifolds.tangent_project")
CALL_COUNTS = ("network.mix", "manifolds.project_stack", "manifolds.tangent_project_stack",
               "manifolds.project", "manifolds.tangent_project", "numerics.thin_svd",
               "numerics.sym_eig", "numerics.spd_inverse_sqrt", "numerics.lyapunov_solve",
               "problems.local_grads", "problems.mean_value_and_gradient", "metrics.induced_mean",
               "metrics.consensus_error", "metrics.subspace_distance", "algorithms.step",
               "harness.build_run")
SELF_TIMES = CALL_COUNTS + ("algorithms.run", "algorithms.init_system", "algorithms.init_tracker",
                            "harness.resolve_config", "cli.main")
# Per-layer metrics besides the call counts that must repeat exactly.
EXACT_LAYER_METRICS = ("network.mix.rounds_per_iter", "network.mix.bytes_computed",
                       "problems.grad_evals_per_agent_iter")


def load_library():
    """Import decmanopt from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "decmanopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {src / 'decmanopt'}")
    sys.path.insert(0, str(src))
    import decmanopt
    from decmanopt import algorithms, cli, errors, harness
    if Path(decmanopt.__file__).resolve().parent != (src / "decmanopt").resolve():
        sys.exit(f"perfbench: decmanopt imported from {decmanopt.__file__}, not from {src}")
    return algorithms, cli, errors, harness


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "MC_WORKERS")},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one repetition


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Bench:
    """Runs repetitions of one workload and gates each one."""

    def __init__(self, lib, workload, seed, smoke):
        self.algorithms, self.cli, self.errors, self.harness = lib
        self.workload = workload
        self.smoke = smoke
        self.nproc = len(os.sched_getaffinity(0))
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.raw = workload.raw_config(seed, smoke, str(self.out_dir))
        self.first_keys = None
        self.records_identical = True
        self.reference = self.reference_source = None
        if workload.is_sweep:
            recorded = json.loads((HERE / "sweep_reference.json").read_text())
            key = str(seed)
            if not smoke and key in recorded:
                self.reference, self.reference_source = recorded[key], "recorded"
            else:
                self.reference = self.serial_sweep(self.raw)
                self.reference_source = "serial library run"

    def setup(self, raw):
        start = time.perf_counter()
        cfg = self.harness.resolve_config(raw)
        built = self.harness.build_run(cfg)
        return time.perf_counter() - start, built

    def serial_sweep(self, raw):
        """The sweep's candidates run one after another through the library:
        the reference for seeds with no recorded one."""
        out = []
        for beta in self.workload.betas:
            _, (problem, truth, mixing, system, run_cfg) = self.setup({**raw, "algo.beta": beta})
            try:
                trace = self.algorithms.run(run_cfg, problem, mixing, system, truth)
                out.append({"beta": float(beta), "status": trace.status,
                            "score": float(trace.records[-1].grad_norm_sq)})
            except self.errors.TubeViolationError:
                out.append({"beta": float(beta), "status": "aborted", "score": math.inf})
        return out

    def repetition(self, raw, gate=True):
        """Set up, run, and gate once; returns a dict of timings and failures."""
        w = self.workload
        setup_s, built = self.setup(raw)
        if w.is_sweep:
            run_s, cpu_s, traces, failures, best = self._sweep(raw)
        else:
            problem, truth, mixing, system, run_cfg = built
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            trace = self.algorithms.run(run_cfg, problem, mixing, system, truth)
            run_s = time.perf_counter() - start
            cpu_s = _cpu_seconds() - cpu0
            traces, failures, best = {run_cfg.schedule.beta: trace}, [], trace
        rep = {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s, "failures": failures,
               "intervals_us": [], "loop_ns": 0, "loop_iters": 0, "tts_s": None,
               "iters_to_tol": None}
        if not gate:
            return rep
        converge = not self.smoke
        for beta, trace in sorted(traces.items()):
            failures += [f"beta {beta}: {f}" for f in
                         workloads.check_trace(w, trace, converge and not w.is_sweep)]
            recs = trace.records
            rep["intervals_us"] += [(b.wall_ns - a.wall_ns) / (b.iter - a.iter) / 1e3
                                    for a, b in zip(recs, recs[1:])]
            rep["loop_ns"] += recs[-1].wall_ns - recs[0].wall_ns
            rep["loop_iters"] += recs[-1].iter - recs[0].iter
        if best is not None:
            met = workloads.first_met(w, best)
            if met is None and converge:
                failures.append("the workload tolerance is never met")
            rep["tts_s"] = None if met is None else met.wall_ns / 1e9
            rep["iters_to_tol"] = (met or best.records[-1]).iter
            if w.is_sweep and converge and not w.met(best.records[-1], best.records[0]):
                failures.append("the best candidate's last record misses the tolerance")
        keys = {beta: [workloads.record_key(r) for r in t.records] for beta, t in traces.items()}
        if self.first_keys is None:
            self.first_keys = keys
        elif keys != self.first_keys:
            self.records_identical = False
            failures.append("records differ from the first repetition")
        return rep

    def _sweep(self, raw):
        """One in-process ``decmanopt sweep``; the runs it makes are kept
        (through a pass-through wrapper on algorithms.run) for the gate."""
        w = self.workload
        cfg_path = self.out_dir / "sweep.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        summary = self.out_dir / "sweep.csv"
        if summary.exists():
            summary.unlink()
        kept = []
        inner = self.algorithms.run

        def keep(*args, **kwargs):
            trace = inner(*args, **kwargs)
            kept.append(trace)
            return trace

        argv = ["sweep", "--config", str(cfg_path), "--betas", ",".join(w.betas),
                "--metric", "grad_norm_sq", "--workers", str(self.nproc)]
        self.algorithms.run = keep
        try:
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            code = self.cli.main(argv)
            run_s = time.perf_counter() - start
            cpu_s = _cpu_seconds() - cpu0
        finally:
            self.algorithms.run = inner
        failures = [] if code == 0 else [f"decmanopt sweep exited with {code}"]
        candidates = []
        if summary.exists():
            for line in summary.read_text().splitlines()[1:]:
                beta, status, score = line.split(",")[:3]
                candidates.append({"beta": float(beta), "status": status, "score": float(score)})
        if not candidates:
            return run_s, cpu_s, {}, failures + ["no sweep.csv written"], None
        failures += workloads.compare_sweep(candidates, self.reference)
        traces = {t.records[-1].step_size: t for t in kept}
        best = traces.get(workloads.best_candidate(candidates)["beta"])
        if len(traces) != len(w.betas) or best is None:
            failures.append(f"{len(kept)} runs kept for {len(w.betas)} candidates")
        return run_s, cpu_s, traces, failures, best


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_values(sp, iters, rounds_per_mix):
    """Per-layer metrics of each traced repetition, as {rep: {metric: value}}."""
    names = sp["name"]
    index = {name: i for i, name in enumerate(spans.SPAN_NAMES)}
    run_i = index["algorithms.run"]
    duration = sp["end"] - sp["start"]
    pos = {int(i): k for k, i in enumerate(sp["id"])}
    parent_is_run = np.zeros(len(names), dtype=bool)
    in_run = np.zeros(len(names), dtype=bool)
    for k in np.argsort(sp["id"]):
        q = pos.get(int(sp["parent"][k]))
        if q is not None:
            parent_is_run[k] = names[q] == run_i
            in_run[k] = parent_is_run[k] or in_run[q]
    record = np.isin(names, [index[n] for n in RECORD_SPANS]) & parent_is_run
    out = {}
    for rep in np.unique(sp["rep"]).tolist():
        mine = sp["rep"] == rep
        of = {name: mine & (names == i) for name, i in index.items()}
        runs = int(of["algorithms.run"].sum())
        total_iters = iters * runs
        vals = {}
        for name in CALL_COUNTS:
            vals[f"{name}.calls"] = int(of[name].sum())
        for name in SELF_TIMES:
            vals[f"{name}.self_s"] = float(sp["self"][of[name]].sum()) / 1e9
        mix_in_run = of["network.mix"] & in_run
        vals["network.mix.rounds_per_iter"] = int(mix_in_run.sum()) * rounds_per_mix / total_iters
        vals["network.mix.bytes_computed"] = float(sp["value"][mix_in_run].sum()) / total_iters
        vals["problems.grad_evals_per_agent_iter"] = (
            int((of["problems.local_grads"] & in_run).sum()) / total_iters)
        vals["metrics.record_share"] = (float(duration[mine & record].sum())
                                        / float(duration[of["algorithms.run"]].sum()))
        out[rep] = vals
    return out


# ---------------------------------------------------------------------------
# main


def _median(values):
    return statistics.median(values) if values else float("nan")


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(bench, seconds, traced_mode):
    """The timed loop; returns (repetitions, extra set-up times, tracer or None)."""
    w = bench.workload
    warm = {**bench.raw, "run.K": str(w.smoke_iters)}
    bench.repetition(warm, gate=False)
    reps = []
    setups = []
    if not traced_mode:
        setups = [bench.setup(bench.raw)[0] for _ in range(1 if bench.smoke else SETUP_REPEATS)]
    tracer = None
    if traced_mode:
        t = int(bench.raw.get("algo.t", "1"))
        tracer = spans.Tracer(values={
            "network.mix": lambda args, kwargs: 8 * t * (len(args[1]) ** 2 + 2 * args[1].size)})
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        now = time.perf_counter()
        samples = sum(len(r["intervals_us"]) for r in reps)
        enough = (len(reps) >= MIN_REPS and now >= deadline
                  and (bench.smoke or traced_mode or samples >= MIN_SAMPLES))
        if traced_mode:
            enough = enough and len(reps) % 2 == 0
        if enough or now - begin > HARD_LIMIT_S:
            break
        trace_this = traced_mode and len(reps) % 2 == 1
        if trace_this:
            tracer.rep = len(reps)
            tracer.install()
        try:
            rep = bench.repetition(bench.raw)
        finally:
            if trace_this:
                tracer.uninstall()
        rep["traced"] = trace_this
        reps.append(rep)
    return reps, setups, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small K; tolerances not required")
    args = parser.parse_args(argv)

    lib = load_library()
    spec = load_spec()
    w = workloads.WORKLOADS[args.workload]
    bench = Bench(lib, w, args.seed, args.smoke)
    traced_mode = bool(args.trace)
    reps, setups, tracer = measure(bench, args.seconds, traced_mode)

    failures = [f for r in reps for f in r["failures"]]
    failed = sum(1 for r in reps if r["failures"])
    plain = [r for r in reps if not r["traced"]]
    samples = {}
    values = {}
    extra = {}
    if not traced_mode:
        # This shared machine's speed drifts between a fast and a slow phase
        # every few seconds.  A median over repetitions or over iteration
        # intervals lands in whichever phase held the larger share of a run,
        # so it flips from run to run; a mean moves only with the share.  So
        # run_s and iter_us_mean are means.  The medians and the p90, whose
        # tail follows the slow episodes, go to the detail line.
        intervals = [x for r in plain for x in r["intervals_us"]]
        setup_all = setups + [r["setup_s"] for r in plain]
        tts = [r["tts_s"] for r in plain if r["tts_s"] is not None]
        loop_iters = sum(r["loop_iters"] for r in plain)
        loop_us = sum(r["loop_ns"] for r in plain) / 1e3
        values = {
            "setup_s": _median(setup_all),
            "run_s": statistics.mean(r["run_s"] for r in plain),
            "iter_us_mean": loop_us / loop_iters if loop_iters else float("nan"),
            "peak_rss_mb": _peak_rss_mb(),
        }
        samples = {"setup_s": len(setup_all), "run_s": len(plain), "iter_us_mean": loop_iters,
                   "peak_rss_mb": 1, "iter_us_p50": len(intervals), "iter_us_p90": len(intervals)}
        if len(intervals) < MIN_SAMPLES and not args.smoke:
            failures.append(f"only {len(intervals)} iteration samples, {MIN_SAMPLES} needed")
        extra = {
            "run_s_median": _median([r["run_s"] for r in plain]),
            "run_s_reps": [r["run_s"] for r in plain],
            "iter_us_p50": float(np.percentile(intervals, 50)) if intervals else None,
            "iter_us_p90": float(np.percentile(intervals, 90)) if intervals else None,
            "tts_s_median": _median(tts) if tts else None,
            "tts_s_samples": len(tts),
            "iters_to_tolerance": reps[0]["iters_to_tol"],
        }
    else:
        sp = tracer.spans()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{w.name}.csv"
        spans.write_spans(spans_path, sp, w.name)
        per_rep = layer_values(sp, int(bench.raw["run.K"]), int(bench.raw.get("algo.t", "1")))
        first = next(iter(per_rep.values()))
        for name in first:
            series = [v[name] for v in per_rep.values()]
            exact = name.endswith(".calls") or name in EXACT_LAYER_METRICS
            if exact and len(set(series)) != 1:
                failures.append(f"{name} differs across traced repetitions: {series}")
            values[name] = series[0] if exact else _median(series)
            samples[name] = len(series)
        traced_run = [r["run_s"] for r in reps if r["traced"]]
        values["algorithms.iters_to_tolerance"] = reps[0]["iters_to_tol"]
        samples["algorithms.iters_to_tolerance"] = len(reps)
        values["harness.cpu_per_wall"] = _median([r["cpu_s"] / r["run_s"] for r in plain])
        values["trace.overhead_ratio"] = _median(traced_run) / _median([r["run_s"] for r in plain])
        samples["harness.cpu_per_wall"] = len(plain)
        samples["trace.overhead_ratio"] = len(traced_run)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        extra["spans"] = int(len(sp["id"]))

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced_mode else "end_to_end"]}
    if set(declared) != set(values):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} are computed or "
                 "declared in BENCHMARK.json, not both")
    non_finite = [k for k, v in values.items() if not math.isfinite(v)]
    if non_finite:
        failures.append(f"metrics without a value: {non_finite}")
        values = {k: (v if math.isfinite(v) else 0.0) for k, v in values.items()}

    detail = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(), "repetitions": len(reps),
        "failed_repetitions": failed, "fail_rate": failed / len(reps),
        "records_identical": bench.records_identical, "samples": samples,
        "sweep_reference": bench.reference_source, "failures": failures,
        **extra,
    }
    print(json.dumps(detail))
    result = {
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

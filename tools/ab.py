"""In-process A/B timing of two decmanopt source trees.

Loads ``BASE/src/decmanopt`` and ``HEAD/src/decmanopt`` as two packages of
their own in one process, then times each workload below in alternating
pairs: the set-up (``resolve_config`` + ``build_run``) and the run, with the
side that goes first switching every pair.  One untimed run per side first
warms both trees and gives the outputs that are compared byte for byte.
Writes ``BENCH_<label>.json`` with, per workload and per time, each side's
median and quartiles, the median and quartiles of the paired ratio
head/base, and how many pairs the head side was faster in.

    python tools/ab.py BASE HEAD --label NAME [--pairs 31] [--iters K] [--out DIR]

``--iters`` overrides every workload's K (for a smoke run).
"""

import argparse
import ctypes
import dataclasses
import gc
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The benchmark's gevp_bstiefel instance and an n=16 LRMC DPRGT run on their
# seed-0 inputs, with each one's K.  Older trees require out.dir; no run writes.
_COMMON = {"problem.seed": "7", "graph.seed": "3", "run.seed": "11", "out.dir": "."}
WORKLOADS = {
    "gevp": ({**_COMMON, "problem.kind": "gevp", "problem.n": "8", "problem.d": "10",
              "problem.r": "5", "problem.m_i": "1000", "problem.xi": "0.8",
              "graph.topology": "er", "graph.p": "0.6", "algo.kind": "dprgt",
              "algo.beta": "2.0", "run.trace_every": "25"}, 2000),
    "lrmc16": ({**_COMMON, "problem.kind": "lrmc", "problem.n": "16", "problem.m": "100",
                "problem.T": "1000", "problem.r": "5", "graph.topology": "ring",
                "algo.kind": "dprgt", "algo.beta": "4.8e-4", "run.trace_every": "5"}, 50),
}
SIDES = ("base", "head")


def load(tree, name):
    """The ``harness`` and ``algorithms`` modules of ``tree`` as package ``name``."""
    pkg = Path(tree).resolve() / "src" / "decmanopt"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness"), importlib.import_module(f"{name}.algorithms")


def timed(side, raw):
    harness, algorithms = side
    gc.collect()
    t0 = time.perf_counter()
    problem, truth, mixing, points, run_cfg = harness.build_run(harness.resolve_config(raw))
    t1 = time.perf_counter()
    trace = algorithms.run(run_cfg, problem, mixing, points, truth)
    return t1 - t0, time.perf_counter() - t1, trace


def quartiles(xs):
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare(a, b):
    """Byte equality of records (without wall_ns), points, tracking gap and
    |s_hat|^2, and, when any differs, the largest relative deviation of the finals."""
    records = [repr([dataclasses.astuple(r)[:-1] for r in t.records]) for t in (a, b)]
    equal = {"records": records[0] == records[1]}
    for name in ("points", "tracking_gap", "s_hat_norm_sq"):
        x, y = (getattr(t, name) for t in (a, b))
        equal[name] = (x is None) == (y is None) and (x is None or x.tobytes() == y.tobytes())
    deviation = None
    if not all(equal.values()):
        finals = [dataclasses.astuple(t.records[-1])[1:-1] for t in (a, b)]
        deviation = max(abs(x - y) / max(abs(x), 1e-300)
                        for x, y in zip(*finals) if x is not None)
    return {"byte_equal": equal, "finals_max_rel_dev": deviation}


def bench(sides, raw, pairs):
    warm = [timed(side, raw)[2] for side in sides]
    times = {label: [] for label in SIDES}
    for p in range(pairs):
        for k in (0, 1) if p % 2 == 0 else (1, 0):
            times[SIDES[k]].append(timed(sides[k], raw)[:2])
    result = {}
    for j, metric in enumerate(("setup_s", "run_s")):
        base, head = (np.array([t[j] for t in times[label]]) for label in SIDES)
        result[metric] = {"base": quartiles(base), "head": quartiles(head),
                          "ratio": quartiles(head / base),
                          "head_faster": int(np.sum(head < base))}
    return {**result, **compare(*warm)}


def blas_kernel():
    """Name of the kernel numpy's bundled OpenBLAS runs, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def commit(tree):
    """``git describe`` of the tree, ``-dirty`` with local edits; None outside git."""
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=40"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=31)
    parser.add_argument("--iters", type=int, help="K of every workload")
    parser.add_argument("--out", default=".", help="directory of the JSON file")
    args = parser.parse_args(argv)
    trees = {"base": args.base, "head": args.head}
    sides = [load(trees[label], f"ab_{label}_decmanopt") for label in SIDES]
    result = {
        "label": args.label,
        "pairs": args.pairs,
        "commits": {label: commit(tree) for label, tree in trees.items()},
        "environment": {"kernel": blas_kernel(), "numpy": np.__version__,
                        "python": platform.python_version(), "cpu_count": os.cpu_count()},
        "workloads": {},
    }
    for name, (config, iters) in WORKLOADS.items():
        raw = {**config, "run.K": str(args.iters or iters)}
        result["workloads"][name] = {"config": raw, **bench(sides, raw, args.pairs)}
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(path)


if __name__ == "__main__":
    main()

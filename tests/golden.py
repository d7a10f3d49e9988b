"""Golden runs: small runs whose output bytes pin the library's arithmetic.

A change that claims no behaviour change keeps these bytes
(``tests/test_harness.py::test_golden_run_bytes``).  Rounding depends on
the kernel that numpy's bundled OpenBLAS selects for the CPU, so the
digests are kept per kernel name; ``OPENBLAS_CORETYPE`` selects another
kernel of the same library.  The digests were made with numpy 2.4.6 on
OpenBLAS 0.3.31 (scipy-openblas64, DYNAMIC_ARCH) on an x86-64 Xeon with
AVX-512, Python 3.11.7.  Another BLAS build may round differently; then
recapture them from a trusted commit on that machine: ``CAPTURE``, run
from the repository root, prints the digest set of the kernel in use
(``OPENBLAS_CORETYPE=<kernel>`` in front selects another) as a literal
for ``DIGESTS``.

Provenance: the ``lrmc_ring``, ``lrmc_uneven`` and ``pca_dprgd`` sets of
both kernels come from commit dd8c592.  The ``gevp_er`` and
``gevp_consensus`` sets come from the child of c9ab057 that forms the
B-Stiefel gram from the Cholesky factor of B and takes its inverse square
root by Newton–Schulz steps near I; that moved GEVP results by rounding
only (objective, grad^2 and distance to truth by at most 3.3e-15 relative).
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from decmanopt import algorithms, harness, metrics

CAPTURE = "PYTHONPATH=src python tests/golden.py"

# Settings shared by every golden run; a run's own keys override them.
_COMMON = {"problem.seed": "7", "algo.kind": "dprgt", "run.K": "200", "run.seed": "11",
           "run.trace_every": "10"}

RUNS = {
    "gevp_er": {"problem.kind": "gevp", "problem.n": "6", "problem.d": "8", "problem.r": "3",
                "problem.m_i": "60", "graph.topology": "er", "graph.p": "0.6",
                "graph.seed": "3", "algo.beta": "2.0"},
    "lrmc_ring": {"problem.kind": "lrmc", "problem.n": "4", "problem.m": "30", "problem.T": "80",
                  "problem.r": "3", "graph.topology": "ring", "algo.beta": "2e-3"},
    # Two block widths (14, 14, 13, 13, 13, 13), so two LRMC stacks.
    "lrmc_uneven": {"problem.kind": "lrmc", "problem.n": "6", "problem.m": "30",
                    "problem.T": "80", "problem.r": "3", "graph.topology": "ring",
                    "algo.beta": "2e-3"},
    "pca_dprgd": {"problem.kind": "pca", "problem.n": "6", "problem.d": "8", "problem.r": "3",
                  "problem.m_i": "60", "graph.topology": "er", "graph.p": "0.6",
                  "graph.seed": "3", "algo.kind": "dprgd", "algo.schedule": "diminishing",
                  "algo.t": "3", "algo.beta": "0.5", "run.init": "perturbed"},
    "gevp_consensus": {"problem.kind": "gevp", "problem.n": "6", "problem.d": "8",
                       "problem.r": "3", "problem.m_i": "60", "graph.topology": "ring",
                       "algo.kind": "consensus", "run.init": "perturbed"},
}

# Digests per kernel, each set captured with CAPTURE from the commit named in
# the module docstring; the Haswell set under OPENBLAS_CORETYPE=Haswell on
# the AVX-512 machine.
DIGESTS = {
    "SkylakeX": {
        "gevp_er": {
            "trace.csv": "c1866a49ccc7a4434b777d1c0cd6e8867c04f01a09c7ce0119f552f8cb91f9eb",
            "points": "71997801326aff3fdba2467b3c22ad1c91f96787bbbce863a21cf8273c1121da",
            "tracking_gap": "c8089f232b8758f14496e259b3bfff1a2c50e7dadc1334bb839964a7a557684f",
            "s_hat_norm_sq": "d51f78b27ff182d726db69a6e7bcbfaf9586eed1525411c8471ec1514222d082",
        },
        "lrmc_ring": {
            "trace.csv": "303e85e94d9189603e118c756b4b989e1cd88854a996d5150ee86d27343de098",
            "points": "0a00f24d5f9418d430eac003bc8bfa23b8cdc56cd1fd747a5c6ff869e615ebb4",
            "tracking_gap": "c71423f2821194f7350494e11f5ccf4c8aebfec67d6b8c2b32dd9ba8160701f6",
            "s_hat_norm_sq": "5d0e603ca3a4c1b6046db0630e8984b1ce98f9614a524258aaa742dc164fb1e7",
        },
        "lrmc_uneven": {
            "trace.csv": "826825aa61b51c20a5cd4ae96187baaa0bc517d67d9f1b92902d0e9f2539075d",
            "points": "4e4080b7a62d69334606775ebf68c50f606b1609a7e36de60dac402352e7913d",
            "tracking_gap": "fc95ca550bd89cfac0cf6f6269dbcea9f7a8f4919d9d13893f2479429bacf211",
            "s_hat_norm_sq": "d7c6fb538a42ee3743e198117756d7f3773c466f5ad8eb6c6d2d713616cb6b2f",
        },
        "pca_dprgd": {
            "trace.csv": "5fc0d2ad0318954c6d1ec8102cf4b894acdf8e9aace84ac039c376a785ee41ea",
            "points": "012100592bf4e88fc6eaeb5dd059f5e564e56ca6243479c492b6459cf83396dd",
        },
        "gevp_consensus": {
            "trace.csv": "684effd4b5239a06250f5ef39d762d85797e975299339e0ecf1fc1ffbc96b48b",
            "points": "7c9152391beba02a4a52cf03e77b1f289fbe6e4c9950b86e319fc7a494c11361",
        },
    },
    "Haswell": {
        "gevp_er": {
            "trace.csv": "b5acd1b69071605c5dba7da2511f97ac235e29ed9e7738d7946666857e147c1c",
            "points": "720ff87f046f631643dfeddafb9f94c8987e153917a086333576491d686ba72e",
            "tracking_gap": "7132404c183789190e4590990ec978ae5f1d62fec6c0ec4efd3075a0c0f89be9",
            "s_hat_norm_sq": "2a3692e15c6d456546393b33fc44bcbfe215976b0990c9c2f577738f92f54e66",
        },
        "lrmc_ring": {
            "trace.csv": "fb305e2907f3bb0b6b306b99afd8ed10a6592cbdaff0d9ae36b0557caffc0570",
            "points": "f88df33bc100c75969754176d089055295f07a7d3095176ed2393c0edd502784",
            "tracking_gap": "cb8d7b64e9ed7a62e1613dedd5b387958877d4364eccdc0a7dbc3e66c28c380b",
            "s_hat_norm_sq": "08a1e2864643cbb81935f0736b3c0b94cdf87fced6a5cf5993dcff545731fa8f",
        },
        "lrmc_uneven": {
            "trace.csv": "050beef046b4a4f3c37ea66f0e5a72c5f6efdea7ac8eb1dc3bde55503fe56a0b",
            "points": "1b2e16cfe7f156ab026630daa4400286e973aea7d001083b90077d75897a794f",
            "tracking_gap": "4a12bbcee838e35fa335db23bdc2cf4388125fa81330d54e78c1f62ceb7de2b1",
            "s_hat_norm_sq": "a3b85ff8ef04ac6dd7ddfa6dbb399a4edcc34873b555be9ed9429ec4e7c271c2",
        },
        "pca_dprgd": {
            "trace.csv": "7616be9b5ed896fc6016ecf440306681f75c53bbd1bc15817c4a732e26eb1ca4",
            "points": "b95828cbdd992c6a476eda5163b7e30c4e6c22bc709efa8368ac180123f52e89",
        },
        "gevp_consensus": {
            "trace.csv": "4c8ac9f18cb6373de64b35fb0ea4f4937d6a7a7ae27510ec1f4da2779bfbd4bd",
            "points": "c83616bb39cacc63b1ffbe9822e4e0c67ed4ba202c040dda0fcd4d59232bccfd",
        },
    },
}


def blas_kernel():
    """Name of the kernel numpy's bundled OpenBLAS runs, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def digests(name, out_dir):
    """sha256 of the golden run's trace.csv and final points, and for DPRGT
    of its tracking_gap and s_hat_norm_sq."""
    cfg = harness.resolve_config({**_COMMON, **RUNS[name], "out.dir": str(out_dir)})
    problem, truth, mixing, points, run_cfg = harness.build_run(cfg)
    trace = algorithms.run(run_cfg, problem, mixing, points, truth)
    path = Path(out_dir) / "trace.csv"
    metrics.write_trace(path, trace.records)
    got = {"trace.csv": path.read_bytes(), "points": trace.points.tobytes()}
    if trace.tracking_gap is not None:
        got["tracking_gap"] = trace.tracking_gap.tobytes()
        got["s_hat_norm_sq"] = trace.s_hat_norm_sq.tobytes()
    return {k: hashlib.sha256(b).hexdigest() for k, b in got.items()}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        found = {name: digests(name, tmp) for name in RUNS}
    json.dump({blas_kernel(): found}, sys.stdout, indent=4)
    print()


if __name__ == "__main__":
    main()

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

# Digests per kernel, each set captured with CAPTURE from commit dd8c592
# (before the step functions were folded into algorithms.run); the Haswell
# set under OPENBLAS_CORETYPE=Haswell on the AVX-512 machine.
DIGESTS = {
    "SkylakeX": {
        "gevp_er": {
            "trace.csv": "0ec808196cdf15ed3eee565cce069724ca5c47eead7a92c213e88b0397531a23",
            "points": "c0315aabf257486bdb1d1a72b850d52e9214ba75acd66a90774ef185d1dc239f",
            "tracking_gap": "c03d1ec2ba99e7bb9b28f22ba1d5977441b97a08b9e3de9185fbc1cd1f8d30aa",
            "s_hat_norm_sq": "a856ff85810d712e802ebb866e9896ca8ec874e98a0f8a90398b2b4dd8d5eab8",
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
            "trace.csv": "a23743f4b5aa19056b4d8c0d760a7bcc2606b296f490a539f1b54685ee5cebf5",
            "points": "2140a7d09a7ba36503c5dd614a1bf4acf02610d90115f15a771b348305b9d6b1",
        },
    },
    "Haswell": {
        "gevp_er": {
            "trace.csv": "a92ad867eb2ed885733b698943141f29d63ede27ae962443150f425589be42d8",
            "points": "8fcf51c9c6713a9771772a40e3155f1e8f156253be0bdbd56a46561a02dbc629",
            "tracking_gap": "2ba67027aa06b3e40bb23af8824df5efe6066f3dc83429dcada69ddfa7915256",
            "s_hat_norm_sq": "545c9a6d0b559dcd846597470223e90110ea662c7bb21d3b81659ea7828dc241",
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
            "trace.csv": "327fe95613dd243fd580f600548ca904d7cec0ae82924401fd6a2a575c5ebe4b",
            "points": "fff4ffa00bc0fd6c85aa61735dd54670f3f27d3ab7510b301f17ae89d1cca4fa",
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

"""Golden runs: small runs whose output bytes and final values pin the
library's arithmetic.

A change that claims no behaviour change keeps these bytes
(``tests/test_harness.py::test_golden_run_bytes``).  Rounding depends on
the kernel that numpy's bundled OpenBLAS selects for the CPU, so the
digests are kept per kernel name; ``OPENBLAS_CORETYPE`` selects another
kernel of the same library, and :func:`kernel_runs` runs the golden runs
under it in a subprocess.  The digests were made with numpy 2.4.6 on
OpenBLAS 0.3.31 (scipy-openblas64, DYNAMIC_ARCH) on an x86-64 Xeon with
AVX-512, Python 3.11.7.  Another BLAS build may round differently; then
recapture them from a trusted commit on that machine: ``CAPTURE``, run
from the repository root, prints the digest sets of the kernel in use and
of every other kernel in ``DIGESTS`` as a literal for ``DIGESTS``.

A change that moves bits on purpose re-captures digests; ``VALUES`` then
checks that the new numbers are the old ones to rounding
(``test_golden_run_values``).  It holds one kernel-independent set of
final values per PCA and GEVP run, which every kernel must meet within
``VALUE_RTOL`` and ``CONSENSUS_ATOL``.  The two LRMC runs have no value
pins: between the two kernels their final values differ by 6e-7 to 5e-3
relative, as a factor-1 LRMC run amplifies rounding.

Provenance: the ``lrmc_ring`` and ``lrmc_uneven`` sets of both kernels come
from commit dd8c592.  The ``pca_dprgd`` sets come from the child of a2cd076
that draws the PCA and GEVP data through the d-by-d gram of the Gaussian
draw instead of its thin SVD; that moved its final values by rounding
only.  The ``gevp_er`` and ``gevp_consensus`` sets come from the child of
36dde69 that runs GEVP in whitened coordinates z = Cx; against the finals
of 36dde69 that moved them by at most 5.4e-15 relative in grad^2, 4.8e-15
in d_s, 1.9e-16 in the objective and 1.6e-21 absolute in the consensus
error over both kernels.  Against ``VALUES``, the GEVP finals now lie
within 5.4e-14 relative (grad^2 of gevp_er under Haswell) and 4.6e-21
absolute in the consensus error.  ``VALUES`` is the SkylakeX final values
of a2cd076.
"""

import ctypes
import hashlib
import json
import os
import subprocess
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
            "trace.csv": "a88a971ec0e47ea133a18ce9a4264a52e2fdddf9fe6b3085b5081f6571012ed4",
            "points": "5fbf5c483332863cf612f2ef56063bd37156febc99bb2c3574471c57847231b0",
            "tracking_gap": "c361d1d58ba7f56537876176d4f4d85d3e7486a4d06200bfcc305f8516c9e39b",
            "s_hat_norm_sq": "5798b10a230b42d9479860d68b7a76d4bc6bf54eb96418d6a9f42e36bb4e1f21",
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
            "trace.csv": "0a94943bb3fe8ff426c0e05b41d5cc85c04acfde8206a09fc4a0a0ec148531b3",
            "points": "35bd58e4c27b72d3836bed3e47d1370103923c9fd11a2ac02b4a3f56c874504a",
        },
        "gevp_consensus": {
            "trace.csv": "088dc8ff37fceadf6ff081f182f2c09fea2ab2c4147112191c8bc4e041548903",
            "points": "71c0d8444f1ec72380c3c69716b5ded198829123f8d96cd0328700a475483478",
        },
    },
    "Haswell": {
        "gevp_er": {
            "trace.csv": "a3078d8401e68a1fa437508c076bc955ee4b5ba691417c32f45ded7b4951b796",
            "points": "bc5b4f3eaab48e85eb974759d57573661805536514c90bad6792ff0f765270b1",
            "tracking_gap": "117d49c2771b8d3b63673b54c9e2a4a933e7c6a4de8fe95b5f5503e866814e86",
            "s_hat_norm_sq": "54a28dad2a80cd1dd1dcecf294fbcb2f1f4d0715a0cd86435bd91e6291a2c1f0",
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
            "trace.csv": "f57d2e6bcbd6d53807ce2cb9503bdb9ddfe3185478125baaccba24c2f4c462e3",
            "points": "5aa1b4707ec667ff098d7e96916689c24d8a77667134fe916a008b5d553d9427",
        },
        "gevp_consensus": {
            "trace.csv": "64344d614058e97a2e049209c03bd05e74e360ea46ac1d089c0ac2aba78e447a",
            "points": "93a37531cabab9340a7e95577cbde4b947ddcde648aa66a4957bbe8945ef3d7d",
        },
    },
}


# The last trace record's fields that VALUES pins.
FINALS = ("objective_at_mean", "grad_norm_sq", "dist_to_truth", "consensus_error")

# Kernel-independent final values.  Objective, grad^2 and d_s must lie within
# VALUE_RTOL relative of them: between the SkylakeX and Haswell kernels they
# differ by up to 3.5e-14 relative (grad^2 of gevp_er), and the finals of the
# d-by-d gram data lie within 5.9e-14 of them on either kernel.  The
# consensus error, which is 1e-32 on an exact-consensus run, must lie within
# CONSENSUS_ATOL absolute: the kernels differ by up to 5.0e-20 (pca_dprgd, at
# 4.1e-7), and the gram data lies within 3.1e-21 (gevp_er, at 9.1e-9).
VALUE_RTOL = 1e-12
CONSENSUS_ATOL = 1e-18
VALUES = {
    "gevp_er": {"objective_at_mean": 0.009853890407362126,
                "grad_norm_sq": 2.8385322151724234e-06,
                "dist_to_truth": 0.28861565219410273,
                "consensus_error": 9.112969040838587e-09},
    "pca_dprgd": {"objective_at_mean": -0.07495916343100316,
                  "grad_norm_sq": 0.0024104680309356137,
                  "dist_to_truth": 1.3354622919156036,
                  "consensus_error": 4.112475953324991e-07},
    "gevp_consensus": {"objective_at_mean": 0.03585444065339475,
                       "grad_norm_sq": 0.0011817289538073204,
                       "dist_to_truth": 1.4588138546734535,
                       "consensus_error": 1.195358138749106e-32},
}


def finals_off_pin(name, finals):
    """The fields of ``finals`` that miss the run's VALUES pin, with the
    value, the pin and the tolerance of each."""
    off = {}
    for field, pin in VALUES[name].items():
        tol = CONSENSUS_ATOL if field == "consensus_error" else VALUE_RTOL * abs(pin)
        if not abs(finals[field] - pin) <= tol:
            off[field] = (finals[field], pin, tol)
    return off


def blas_kernel():
    """Name of the kernel numpy's bundled OpenBLAS runs, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def run(name, out_dir):
    """The golden run's digests and final values.

    The digests are the sha256 of its trace.csv and final points, and for
    DPRGT of its tracking_gap and s_hat_norm_sq; the final values are the
    ``FINALS`` fields of its last trace record.
    """
    cfg = harness.resolve_config({**_COMMON, **RUNS[name], "out.dir": str(out_dir)})
    problem, truth, mixing, points, run_cfg = harness.build_run(cfg)
    trace = algorithms.run(run_cfg, problem, mixing, points, truth)
    path = Path(out_dir) / "trace.csv"
    metrics.write_trace(path, trace.records)
    got = {"trace.csv": path.read_bytes(), "points": trace.points.tobytes()}
    if trace.tracking_gap is not None:
        got["tracking_gap"] = trace.tracking_gap.tobytes()
        got["s_hat_norm_sq"] = trace.s_hat_norm_sq.tobytes()
    last = trace.records[-1]
    return ({k: hashlib.sha256(b).hexdigest() for k, b in got.items()},
            {field: getattr(last, field) for field in FINALS})


def native_runs():
    """{name: (digests, finals)} of every golden run, in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run(name, tmp) for name in RUNS}


def _print_native_runs():
    json.dump([blas_kernel(), native_runs()], sys.stdout)


def kernel_runs(kernel):
    """:func:`native_runs` under another kernel of the same OpenBLAS, in a
    subprocess with ``OPENBLAS_CORETYPE=kernel``."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", "import golden; golden._print_native_runs()"],
                         env=env, check=True, capture_output=True, text=True).stdout
    reported, runs = json.loads(out)
    if reported != kernel:
        raise RuntimeError(f"OPENBLAS_CORETYPE={kernel} ran the {reported} kernel")
    return {name: tuple(result) for name, result in runs.items()}


def main():
    """Print the DIGESTS literal: the native kernel's set and that of every
    other kernel in DIGESTS."""
    native = blas_kernel()
    found = {native: native_runs()}
    for kernel in sorted(set(DIGESTS) - {native}):
        found[kernel] = kernel_runs(kernel)
    literal = {kernel: {name: got for name, (got, _) in runs.items()}
               for kernel, runs in found.items()}
    json.dump(literal, sys.stdout, indent=4)
    print()


if __name__ == "__main__":
    main()

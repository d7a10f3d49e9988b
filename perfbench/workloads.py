"""The benchmark's workloads, their inputs, and their correctness gates.

Every input comes from the workload seed: the problem, graph and
initialization seeds are 7 + seed, 3 + seed and 11 + seed, so seed 0 gives
the acceptance instances (problem 7, graph 3, init 11).  The library only
ever sees the generated config.
"""

import math
from dataclasses import dataclass

# Largest allowed ||mean(s) - mean(grad f_i(x_i))|| over a DPRGT run (the
# tracking identity of acceptance criterion 6).
TRACKING_GAP_TOL = 1e-10
# Largest allowed rise of the LRMC objective between records, as a share of
# its starting value (the slack of acceptance criterion 9).
LRMC_RISE_SLACK = 0.005
# Relative tolerance on sweep scores against the reference.
SWEEP_SCORE_RTOL = 1e-6


def _gevp_met(rec, first):
    return rec.grad_norm_sq <= 1e-10 and rec.consensus_error <= 1e-10


def _lrmc_met(rec, first):
    return rec.objective_at_mean <= 0.5 * first.objective_at_mean


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    ``iters`` is K; ``smoke_iters`` the K of the smoke mode, which checks
    everything except reaching the tolerance.  ``betas`` is set for the
    sweep workload only, which runs ``decmanopt sweep`` over them.
    """

    name: str
    config: dict
    iters: int
    smoke_iters: int
    met: object
    betas: tuple = ()

    @property
    def is_sweep(self):
        return bool(self.betas)

    @property
    def is_lrmc(self):
        return self.config["problem.kind"] == "lrmc"

    def raw_config(self, seed, smoke, out_dir):
        """The flat config the library receives for this seed."""
        raw = dict(self.config)
        raw.update({
            "problem.seed": str(7 + seed),
            "graph.seed": str(3 + seed),
            "run.seed": str(11 + seed),
            "run.K": str(self.smoke_iters if smoke else self.iters),
            "out.dir": out_dir,
        })
        return raw


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gevp_bstiefel",
        config={"problem.kind": "gevp", "problem.n": "8", "problem.d": "10", "problem.r": "5",
                "problem.m_i": "1000", "problem.xi": "0.8", "graph.topology": "er",
                "graph.p": "0.6", "algo.kind": "dprgt", "algo.beta": "2.0",
                "run.trace_every": "25"},
        iters=2000,
        smoke_iters=50,
        met=_gevp_met,
    ),
    Workload(
        name="sweep_lrmc16",
        config={"problem.kind": "lrmc", "problem.n": "16", "problem.m": "100", "problem.T": "1000",
                "problem.r": "5", "graph.topology": "ring", "algo.kind": "dprgt",
                "algo.beta": "9.6e-4", "run.trace_every": "5"},
        iters=50,
        smoke_iters=10,
        met=_lrmc_met,
        betas=("1.2e-4", "2.4e-4", "4.8e-4", "9.6e-4"),  # 16 * {0.75, 1.5, 3, 6}e-5
    ),
)}


def record_key(rec):
    """A record's deterministic fields: everything except wall_ns."""
    return (rec.iter, rec.step_size, rec.consensus_error, rec.objective_at_mean,
            rec.grad_norm_sq, rec.dist_to_truth)


def check_trace(workload, trace, converge):
    """Reasons this run fails its gate; empty when it passes.

    ``converge`` also requires the last record to meet the workload
    tolerance.
    """
    failures = []
    if trace.status != "completed":
        failures.append(f"status {trace.status!r}")
    recs = trace.records
    if converge and not workload.met(recs[-1], recs[0]):
        failures.append(f"last record (iter {recs[-1].iter}) misses the tolerance")
    gaps = trace.tracking_gap
    if gaps is None or not gaps.size:
        failures.append("no tracking gap recorded")
    elif not float(gaps.max()) <= TRACKING_GAP_TOL:
        failures.append(f"tracking gap {float(gaps.max()):.3e} above {TRACKING_GAP_TOL}")
    if workload.is_lrmc:
        objs = [rec.objective_at_mean for rec in recs]
        rise = max((b - a for a, b in zip(objs, objs[1:])), default=0.0)
        if not rise <= LRMC_RISE_SLACK * objs[0]:
            failures.append(f"objective rose by {rise:.6g} between records")
    return failures


def first_met(workload, trace):
    """The first record meeting the workload tolerance, or None."""
    first = trace.records[0]
    return next((rec for rec in trace.records if workload.met(rec, first)), None)


def best_candidate(candidates):
    """The sweep winner: smallest score, ties to the smaller step."""
    return min(candidates, key=lambda c: (c["score"], c["beta"]))


def compare_sweep(candidates, reference):
    """Reasons a sweep result disagrees with the reference; empty when it agrees.

    Statuses and the best step must match exactly, scores within
    SWEEP_SCORE_RTOL; bytes are not compared.
    """
    failures = []
    got = {c["beta"]: c for c in candidates}
    want = {c["beta"]: c for c in reference}
    if sorted(got) != sorted(want):
        return [f"sweep steps {sorted(got)} differ from the reference {sorted(want)}"]
    for beta, ref in want.items():
        c = got[beta]
        if c["status"] != ref["status"]:
            failures.append(f"beta {beta}: status {c['status']!r}, reference {ref['status']!r}")
        elif not (c["score"] == ref["score"] or math.isclose(c["score"], ref["score"],
                                                               rel_tol=SWEEP_SCORE_RTOL)):
            failures.append(f"beta {beta}: score {c['score']!r}, reference {ref['score']!r}")
    if best_candidate(candidates)["beta"] != best_candidate(reference)["beta"]:
        failures.append("best beta differs from the reference")
    return failures

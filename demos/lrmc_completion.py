"""Decentralized low-rank matrix completion over a ring of agents.

Each agent holds a column block of a partially observed rank-5 matrix and
fits the block coefficients by masked least squares at every evaluation;
the shared column-space frame is optimized with gradient tracking.

The completion objective falls from 170 to 11 over 1500 iterations, but
the frame stays far from the planted column space: the subspace distance
d_s goes 2.88, 2.27, 1.97 at iterations 0, 300, 1500 (at most sqrt(10) for
rank 5).  The generator observes each entry with probability
r (m + T - r) / (m T), 5.4% here, so the observed entries about equal the
r (m + T - r) degrees of freedom of a rank-5 matrix.  At this oversampling
factor of 1 the planted subspace need not be recoverable: the demo shows
the observed entries being fitted, not the matrix being completed.
"""

import decmanopt as dm


def main(n=16, iters=1500):
    problem, truth = dm.gen_lrmc_data(n, 100, 1000, 5, seed=7)
    observed = sum(int(mask.sum()) for _, mask in problem.data)
    print(f"n = {n} agents, 100 x 1000 matrix, rank 5, "
          f"{observed / (100 * 1000):.1%} of entries observed\n")
    mixing = dm.metropolis_weights(dm.build_graph("ring", n))
    system = dm.init_system(problem, "identical", seed=11)
    cfg = dm.RunConfig(algorithm="dprgt",
                       schedule=dm.StepSchedule("constant", n * 3e-5),
                       max_iters=iters, trace_every=100)
    trace = dm.run(cfg, problem, mixing, system, truth)

    print(f"{'iter':>5}  {'objective':>12}  {'consensus':>10}  {'d_s':>8}")
    for rec in trace.records:
        if rec.iter % 300 == 0:
            print(f"{rec.iter:5d}  {rec.objective_at_mean:12.4f}  "
                  f"{rec.consensus_error:10.2e}  {rec.dist_to_truth:8.4f}")


if __name__ == "__main__":
    main()

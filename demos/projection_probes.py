"""Numerical probes of the projection inequalities behind the analysis.

Two properties of the nearest-point projection onto the Stiefel manifold
drive the consensus rate and the descent lemmas:

* a 2-Lipschitz bound inside the half-radius tube, and
* second-order agreement with the tangent projection,
  ||P(x+u) - x - P_T(u)|| = O(||u||^2).

Both are measured on random samples, together with the quadratic gap
between the Euclidean mean of a cluster and its projection (the
induced-mean inequality).  The second-order agreement is also measured on
the generalized Stiefel manifold of the GEVP testbed, in its whitened
coordinates, where the Frobenius norm is the B-norm of ambient vectors.

The descent lemmas also use the Riemannian quadratic upper bound
f_i(y) <= f_i(x) + <grad f_i(x), y - x> + (L_i/2) ||y - x||^2, whose exact
per-agent constants the PCA and GEVP testbeds give as ``lipschitz()``.
For both, the demo prints max_i L_i, the largest ratio 2 gap / (L_i ||y - x||^2)
over random feasible pairs, and the ratio at an extremal pair: an extreme
eigenframe of agent 0 with its first column tilted toward the opposite
eigenvector, which comes close to 1.
"""

import numpy as np

import decmanopt as dm
from decmanopt.manifolds import check_projection_lipschitz
from decmanopt.problems import gevp_constraint


def bound_ratio(problem, i, x, y):
    """2 (f_i(y) - f_i(x) - <grad f_i(x), y - x>) / (L_i ||y - x||^2)."""
    spec = problem.spec
    diff = y - x
    g = spec.riemannian_gradient(x, problem.local_grad(i, x))
    gap = problem.local_value(i, y) - problem.local_value(i, x) - spec.inner(g, diff)
    return 2.0 * gap / (problem.lipschitz()[i] * spec.inner(diff, diff))


def extremal_pair(problem, i, eps):
    """Agent i's minimizing eigenframe x, top (PCA) or bottom (GEVP), and
    y = x with its first column turned by eps toward the opposite
    eigenvector.

    Eigenvectors of the signed gram of f_i, whitened on GEVP, come in that
    order, and both frames are feasible in the problem's coordinates.
    """
    _, v = np.linalg.eigh(problem.grams[i])
    x = v[:, :problem.spec.r]
    y = x.copy()
    y[:, 0] = np.cos(eps) * v[:, 0] + np.sin(eps) * v[:, -1]
    return x, y


def quad_ratios(spec):
    print("quadratic ratio over |u| in [s/2, s], shrinking s (should stay flat):")
    for scale in (1e-1, 1e-2, 1e-3, 1e-4):
        rep = check_projection_lipschitz(spec, trials=300, noise_scale=scale, seed=1)
        print(f"  s = {scale:7.0e}:  {rep.max_ratio_quad:.4f}")


def main():
    spec = dm.stiefel(10, 5)
    report = check_projection_lipschitz(spec, trials=1000, noise_scale=0.5, seed=0)
    print(f"perturbations of norm 0.25 to the tube radius 0.5 ({report.trials} trials):")
    print(f"  max Lipschitz ratio  {report.max_ratio_lip:.4f}   (provable bound 2)")
    print(f"  max quadratic ratio  {report.max_ratio_quad:.4f}\n")

    quad_ratios(spec)

    print("\ngeneralized Stiefel of the GEVP testbed, B-norm |u|_B = sqrt(tr(u'Bu)):")
    b = gevp_constraint(10, np.random.default_rng(0))
    quad_ratios(dm.generalized_stiefel(10, 5, b))

    print("\ninduced-mean gap ||xbar - xhat|| / mean squared scatter (quadratic order):")
    rng = np.random.default_rng(2)
    x0 = spec.random_point(rng)
    dirs = np.stack([spec.random_tangent(x0, rng, 1.0) for _ in range(8)])
    for delta in (0.2, 0.1, 0.05):
        points = spec.project_stack(x0 + delta * dirs)
        x_hat, x_bar = dm.induced_mean(spec, points)
        ratio = np.linalg.norm(x_bar - x_hat) / dm.consensus_error(points, x_bar)
        print(f"  scatter {delta:4.2f}:  {ratio:.4f}")

    print("\nRiemannian quadratic upper bound, ratio 2 gap / (L_i |y - x|^2) (at most 1):")
    for name, gen in (("PCA", dm.gen_pca_data), ("GEVP", dm.gen_gevp_data)):
        problem, _ = gen(8, 1000, 10, 5, 0.8, seed=7)
        spec = problem.spec
        rng = np.random.default_rng(3)
        sampled = 0.0
        for _ in range(1000):
            x = spec.random_point(rng)
            y = spec.project(x + spec.random_tangent(x, rng, 10 ** rng.uniform(-4, 0.3)))
            sampled = max(sampled, bound_ratio(problem, int(rng.integers(8)), x, y))
        print(f"  {name:4s}  max L_i {problem.lipschitz().max():.4f}   "
              f"random pairs {sampled:.3f}   extremal pair "
              f"{bound_ratio(problem, 0, *extremal_pair(problem, 0, 1e-3)):.3f}")


if __name__ == "__main__":
    main()

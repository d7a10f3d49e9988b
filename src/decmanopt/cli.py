"""Command-line entry point.

Subcommands mirror the harness: ``run`` executes one experiment from a
config file (any key overridable with ``--set key=value``), ``sweep``
grid-searches the step size, ``rate-study`` measures consensus
contraction, and ``check`` runs the projection inequality probes.

Exit codes: 0 on success, 1 on configuration or validation errors and on
unusable paths, 2 when a run aborts (a projection tube violation or a
non-finite state).
Diagnostics go to stderr; data only to files under the configured output
directory.
"""

import argparse
import os
import sys

import numpy as np

from . import harness, manifolds, problems
from .errors import ConfigError, InvalidInputError, TubeViolationError
from .metrics import fmt_float


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="decmanopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_run_flags(p):
        p.add_argument("--config", help="config file of flat dotted keys")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker threads for sweep candidates (results do not depend on it)")

    runp = sub.add_parser("run", help="run one experiment")
    add_run_flags(runp)
    runp.add_argument("--no-clobber", action="store_true", help="refuse to overwrite outputs")

    sweepp = sub.add_parser("sweep", help="grid-search the step-size coefficient")
    add_run_flags(sweepp)
    sweepp.add_argument("--betas", required=True, help="comma-separated candidate list")
    sweepp.add_argument("--metric", default="grad_norm_sq", choices=["grad_norm_sq"])

    ratep = sub.add_parser("rate-study", help="per-step consensus contraction ratios")
    add_run_flags(ratep)

    checkp = sub.add_parser("check", help="projection inequality probes")
    checkp.add_argument("--manifold", default="stiefel", choices=["stiefel", "generalized-stiefel"])
    checkp.add_argument("--d", type=int, default=10)
    checkp.add_argument("--r", type=int, default=5)
    checkp.add_argument("--trials", type=int, default=1000)
    checkp.add_argument("--noise-scale", type=float, default=None)
    checkp.add_argument("--seed", type=harness.seed, default=0)
    return parser


def _cmd_run(args):
    cfg = harness.load_config(args.config, args.set)
    trace_path = harness.run_experiment(cfg, no_clobber=args.no_clobber)
    print(f"trace written to {trace_path}", file=sys.stderr)
    return 0


def _cmd_sweep(args):
    cfg = harness.load_config(args.config, args.set)
    try:
        betas = [float(tok) for tok in args.betas.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --betas {args.betas!r}") from exc
    result = harness.sweep(cfg, betas, workers=args.workers)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary_path = os.path.join(cfg.out_dir, "sweep.csv")
    harness.write_sweep_summary(summary_path, result)
    print(f"best beta {result.best_beta!r} by grad_norm_sq; summary in {summary_path}",
          file=sys.stderr)
    return 0


def _cmd_rate_study(args):
    cfg = harness.load_config(args.config, args.set)
    result = harness.rate_study(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rates_path = os.path.join(cfg.out_dir, "rates.csv")
    with open(rates_path, "w") as fh:
        fh.write("k,error,ratio\n")
        for k, err in enumerate(result.errors):
            ratio = result.ratios[k - 1] if 1 <= k <= len(result.ratios) else None
            fh.write(f"{k},{fmt_float(err)},{fmt_float(ratio)}\n")
    print(
        f"sigma2={result.sigma2:.6f} t={result.t} bound={result.rate_bound:.6f} "
        f"tail_rate={result.tail_rate:.6f}; rates in {rates_path}",
        file=sys.stderr,
    )
    return 0


def _cmd_check(args):
    if args.manifold == "stiefel":
        spec = manifolds.stiefel(args.d, args.r)
    else:
        b = problems.gevp_constraint(args.d, np.random.default_rng(args.seed))
        spec = manifolds.generalized_stiefel(args.d, args.r, b)
    report = manifolds.check_projection_lipschitz(
        spec, args.trials, noise_scale=args.noise_scale, seed=args.seed
    )
    print(
        f"max_ratio_lip={report.max_ratio_lip:.6f} max_ratio_quad={report.max_ratio_quad:.6f} "
        f"trials={report.trials}",
        file=sys.stderr,
    )
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "rate-study": _cmd_rate_study,
        "check": _cmd_check,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubeViolationError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

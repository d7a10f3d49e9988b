"""Command-line entry point.

The subcommands run config-driven experiments: ``run`` executes one
experiment from a config file (any key overridable with ``--set
key=value``) and ``sweep`` grid-searches the step size.  The projection
probes and the consensus rate study are library calls
(:func:`decmanopt.manifolds.check_projection_lipschitz`,
:func:`decmanopt.harness.rate_study`).

Exit codes: 0 on success, 1 on configuration or validation errors and on
unusable paths, 2 when a run aborts (a projection tube violation or a
non-finite state).
Diagnostics go to stderr; data only to files under the configured output
directory.
"""

import argparse
import os
import sys

from . import harness
from .errors import ConfigError, InvalidInputError, TubeViolationError


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_run(args):
    cfg = harness.load_config(args.config, args.set)
    trace_path = harness.run_experiment(cfg)
    print(f"trace written to {trace_path}", file=sys.stderr)
    return 0


def _cmd_sweep(args):
    cfg = harness.load_config(args.config, args.set)
    summary_dir = harness.require_out_dir(cfg)
    try:
        betas = [float(tok) for tok in args.betas.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --betas {args.betas!r}") from exc
    result = harness.sweep(cfg, betas, workers=args.workers)
    os.makedirs(summary_dir, exist_ok=True)
    summary_path = os.path.join(summary_dir, "sweep.csv")
    harness.write_sweep_summary(summary_path, result)
    print(f"best beta {result.best_beta!r} by grad_norm_sq; summary in {summary_path}",
          file=sys.stderr)
    return 0


def _build_parser():
    """The top-level parser; ``parser.commands`` maps each subcommand to its parser."""
    parser = _Parser(prog="decmanopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    runp = sub.add_parser("run", help="run one experiment")
    runp.set_defaults(handler=_cmd_run)
    sweepp = sub.add_parser("sweep", help="grid-search the step-size coefficient")
    sweepp.set_defaults(handler=_cmd_sweep)
    for p, workers in ((runp, "accepted and ignored: a run is serial"),
                       (sweepp, "worker threads for sweep candidates (results do not depend on it)")):
        p.add_argument("--config", help="config file of flat dotted keys")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1, help=workers)
    sweepp.add_argument("--betas", required=True, help="comma-separated candidate list")
    sweepp.add_argument("--metric", default="grad_norm_sq", choices=["grad_norm_sq"])
    parser.commands = sub.choices
    return parser


def main(argv=None):
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if extra:
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except (ConfigError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TubeViolationError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for the benchmark experiments.

Subcommands map one-to-one onto the experiments of
:mod:`bbope.bench`; every run writes a CSV of aggregated rows, an
optional SVG chart, and a JSON manifest echoing the full configuration.
Precedence: desk-scale defaults < ``--paper-scale`` enlargements <
config-file keys < command-line flags.
"""

from __future__ import annotations

import argparse
import json
import os

from .bench import EXPERIMENTS, build_config, emit_outputs, run_experiment
from .envs import CONTROL_NAMES
from .version import VERSION

__all__ = ["main"]

_SUBCOMMAND_EXPERIMENT = {
    "modelwin": "modelwin_horizon",
    "control": "control_rmse",
    "sensitivity": "sensitivity",
    "bias-variance": "bias_variance",
    "theorem1": "theorem1_check",
}


def _add_common_flags(sp):
    sp.add_argument("--config", metavar="PATH", default=None,
                    help="JSON config file; command-line flags override its keys")
    sp.add_argument("--seed", type=int, default=None, help="base seed for every derived stream")
    sp.add_argument("--runs", type=int, default=None, help="Monte-Carlo runs per setting")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: $BBOPE_WORKERS, else 1)")
    sp.add_argument("--paper-scale", action="store_true",
                    help="use the published protocol sizes instead of desk-scale defaults")
    sp.add_argument("--svg", action="store_true", help="also emit an SVG line chart")
    sp.add_argument("--output-dir", default=None, help="directory for CSV/SVG/manifest")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bbope-bench",
        description="Off-policy average-reward estimation benchmarks (deterministic CSV output).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modelwin", help="fixed-budget horizon sweep on the three-state task")
    _add_common_flags(sp)
    sp = sub.add_parser("control", help="estimator RMSE vs trajectory count on a control task")
    sp.add_argument("env", choices=CONTROL_NAMES, help="environment name")
    _add_common_flags(sp)
    sp = sub.add_parser("sensitivity", help="estimator RMSE vs behavior-mixture coefficient")
    sp.add_argument("env", choices=CONTROL_NAMES, help="environment name")
    _add_common_flags(sp)
    sp = sub.add_parser("bias-variance", help="bias/spread decomposition on short trajectories")
    _add_common_flags(sp)
    sp = sub.add_parser("theorem1", help="numeric parity of the two discrepancy computations")
    _add_common_flags(sp)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    experiment = _SUBCOMMAND_EXPERIMENT[args.command]

    overrides = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        version = doc.pop("config_version", 1)
        if version != 1:
            raise SystemExit(f"unsupported config_version {version} in {args.config}")
        declared = doc.pop("experiment", None)
        if declared is not None and declared != experiment:
            raise SystemExit(
                f"config file is for experiment {declared!r} but the subcommand runs {experiment!r}"
            )
        overrides.update(doc)

    env_name = getattr(args, "env", None)
    if env_name is not None:
        overrides["env_name"] = env_name
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.runs is not None:
        overrides["monte_carlo_runs"] = args.runs
    if args.workers is not None:
        overrides["workers"] = args.workers
    elif "workers" not in overrides and os.environ.get("BBOPE_WORKERS"):
        overrides["workers"] = int(os.environ["BBOPE_WORKERS"])
    if args.svg:
        overrides["svg"] = True
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir

    config = build_config(experiment, overrides=overrides, paper_scale=args.paper_scale)
    rows, extras = run_experiment(config)
    paths = emit_outputs(rows, config, extras)

    if "ground_truth" in (extras or {}):
        print(f"ground truth: {extras['ground_truth']:.6g}")
    print(f"rows: {len(rows)}")
    print(f"csv: {paths['csv']}")
    if paths["svg"]:
        print(f"svg: {paths['svg']}")
    print(f"manifest: {paths['manifest']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

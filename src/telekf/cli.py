"""Command-line front end.

Commands: identify, validate, sweep, impair.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline
from .dataio import read_json
from .errors import ConfigError, DataError, NumericalError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, not argparse's 2 (the
    data-error code); its subparsers are made of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--dataset", help="identification dataset CSV")
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument("--seed", type=int, dest="master_seed",
                        help="master seed")
    common.add_argument("--metric", dest="metric_def",
                        help="accuracy metric definition")
    common.add_argument("--dt", type=float, help="sample period in seconds")
    common.add_argument("--block-rows", type=int, dest="block_rows",
                        help="Hankel block rows (default 20)")
    common.add_argument("--order", type=int, dest="fixed_order",
                        help="force a fixed model order")
    common.add_argument("--burn-in", type=int, dest="burn_in",
                        help="samples excluded from error metrics")

    parser = _Parser(
        prog="telekf",
        description="Identify teleoperator dynamics and estimate slave-side "
                    "positions through an impaired network channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("identify", parents=[common],
                   help="identify a state-space model")

    p = sub.add_parser("validate", parents=[common],
                       help="score a model on held-out data")
    p.add_argument("--validation-dataset", dest="validation_dataset",
                   help="validation dataset CSV")
    p.add_argument("--model", dest="model_path", help="saved model JSON")

    p = sub.add_parser("sweep", parents=[common],
                       help="run the network scenario sweep")
    p.add_argument("--model", dest="model_path", help="saved model JSON")
    p.add_argument("--scenarios", dest="scenarios_file",
                   help="scenario list JSON (default: canonical suite)")
    p.add_argument("--sample-delay-range", action="store_true",
                   dest="sample_delay_range",
                   help="draw ranged delays per sample instead of midpoint")

    p = sub.add_parser("impair", parents=[common],
                       help="channel-only dry run")
    p.add_argument("--scenario-index", type=int, default=0,
                   dest="scenario_index")
    p.add_argument("--scenarios", dest="scenarios_file",
                   help="scenario list JSON (default: canonical suite)")
    return parser


def config_from_args(args: argparse.Namespace) -> pipeline.ExperimentConfig:
    """The --config file (or the defaults), overridden by every given
    option whose dest names a config field."""
    config = pipeline.ExperimentConfig()
    if args.config:
        config = pipeline.ExperimentConfig.from_dict(
            read_json(args.config, "config"))
    fields = {f.name for f in dataclasses.fields(config)}
    updates = {name: value for name, value in vars(args).items()
               if name in fields and value is not None and value is not False}
    if getattr(args, "scenarios_file", None):
        updates["scenarios"] = read_json(args.scenarios_file, "scenarios")
    return dataclasses.replace(config, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "identify":
            result = pipeline.cmd_identify(config)
            print(f"order {result['model'].order}, model written to "
                  f"{result['path']}")
        elif args.command == "validate":
            result = pipeline.cmd_validate(config)
            report = result["report"]
            accs = ", ".join(f"{a:.2f}%" for a in report.accuracy_pct)
            print(f"validation accuracy: {accs} "
                  f"({report.metric_def}); report at "
                  f"{result['path']}")
        elif args.command == "sweep":
            result = pipeline.cmd_sweep(config)
            print(f"sweep summary written to {result['summary']}")
        elif args.command == "impair":
            result = pipeline.cmd_impair(
                config, scenario_index=args.scenario_index)
            print(f"impaired stream written to {result['path']}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

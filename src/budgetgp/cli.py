"""Command-line front end.

Subcommands: generate, train, reduce-sweep, accept-eval, online-eval,
threshold-sweep, bench.  Configuration comes from an optional JSON config
file plus kebab-case flag overrides; each subcommand takes only the flags
it reads.  Exit codes: 0 on success, 2 on configuration or data-file
errors and on a flag the subcommand does not take, 3 on numerical
failures.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import IngestionError, NormalizationError
from .gp import FactorizationError, NumericalError, OptimizationError
from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_accept_eval,
    cmd_bench,
    cmd_generate,
    cmd_online_eval,
    cmd_reduce_sweep,
    cmd_threshold_sweep,
    cmd_train,
    format_records,
)
from .systems import SimulationError

_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "reduce-sweep": cmd_reduce_sweep,
    "accept-eval": cmd_accept_eval,
    "online-eval": cmd_online_eval,
    "threshold-sweep": cmd_threshold_sweep,
    "bench": cmd_bench,
}


def _comma_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _comma_ints(text: str) -> tuple:
    return tuple(int(part) for part in _comma_list(text))


def _comma_floats(text: str) -> tuple:
    return tuple(float(part) for part in _comma_list(text))


# Flag definitions; each command takes ``--config``, its row of
# ``_COMMAND_FLAGS`` and ``--out``, and argparse rejects any other flag.
_FLAGS = {
    "--benchmark": dict(help="benchmark id (e.g. rastrigin, van-der-pol, csv)"),
    "--criterion": dict(type=_comma_list, dest="criteria",
                        help="comma list of criteria (prior-entropy, predictive-entropy, "
                             "mean-relevance, mll, lpd)"),
    "--budget": dict(type=int, help="datapoint budget N_max"),
    "--var-threshold": dict(type=float, help="variance insertion threshold"),
    "--err-threshold": dict(type=float, help="error insertion threshold"),
    "--seeds": dict(type=_comma_ints, help="comma list of seeds"),
    "--initial-train": dict(type=int, help="initial training sample size"),
    "--stream-size": dict(type=int, help="streamed point count override"),
    "--eval-size": dict(type=int, help="evaluation set size"),
    "--data-file": dict(help="CSV path for the csv benchmark"),
    "--target-column": dict(help="target column for the csv benchmark"),
    "--hyper-file": dict(help="persisted hyperparameter file to reuse"),
    "--train-restarts": dict(type=int, help="extra optimizer restarts"),
    "--train-iters": dict(type=int, dest="train_max_iters", help="optimizer iteration cap"),
    "--thresholds": dict(type=_comma_floats, dest="thresholds_grid",
                         help="comma list of error thresholds for threshold-sweep"),
    "--reduce-min-size": dict(type=int, help="stop size for reduce-sweep"),
    "--repeats": dict(type=int, dest="bench_repeats", help="timing repetitions for bench"),
    "--mr-reference": dict(choices=("model", "target"),
                           help="mean-relevance reference: model mean or stored target"),
    "--maps": dict(action="store_true", default=None,
                   help="emit spatial selection map CSVs (2-D function benchmarks)"),
    "--verify": dict(action="store_true", default=None,
                     help="enable the shadow-oracle verification in reduce-sweep"),
}

_DATA_FLAGS = ("--benchmark", "--seeds", "--initial-train", "--stream-size", "--eval-size",
               "--data-file", "--target-column")
_MODEL_FLAGS = _DATA_FLAGS + ("--criterion", "--budget", "--hyper-file", "--train-restarts",
                              "--train-iters")
_COMMAND_FLAGS = {
    "generate": _DATA_FLAGS,
    "train": _DATA_FLAGS + ("--train-restarts", "--train-iters"),
    "reduce-sweep": _MODEL_FLAGS + ("--reduce-min-size", "--mr-reference", "--verify"),
    "accept-eval": _MODEL_FLAGS + ("--maps",),
    "online-eval": _MODEL_FLAGS + ("--var-threshold", "--err-threshold"),
    "threshold-sweep": _MODEL_FLAGS + ("--thresholds",),
    "bench": ("--seeds", "--budget", "--repeats"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetgp",
        description="Budget-constrained online GP experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its values")
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", help="output path for results (.csv or .json)")
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.from_file(args.config)
        if args.config
        else ExperimentConfig()
    )
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        setattr(config, key, value)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        records = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IngestionError, NormalizationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (FactorizationError, NumericalError, OptimizationError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(format_records(records), end="")
    if config.out:
        print(f"results written to {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``isac-bench``: run seeded benchmark experiments from the command line.

Exit codes: 0 when every check passes, 1 when an experiment reports a
failed check, 2 for usage mistakes, 3 for unreadable or invalid configs
and for configs an experiment cannot honour, 4 when the output directory
or CSV cannot be written.
"""

import argparse
import sys

from .experiments import (
    KNOWN_KEYS,
    ConfigError,
    describe,
    experiment_names,
    load_config,
    run_experiment,
)


def non_negative_int(text):
    """argparse type for ``--seed``: numpy seeds cannot be negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isac-bench",
        description="Seeded sensing/communication benchmark experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and print its checks")
    p_run.add_argument("experiment", help="experiment name, see 'list'")
    p_run.add_argument("--seed", type=non_negative_int, default=0)
    p_run.add_argument("--config", help="flat 'key = value' override file")
    p_run.add_argument("--out", default=".", help="directory for CSV output")

    sub.add_parser("list", help="list experiment names")

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("config")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in experiment_names():
            print(f"{name:22s} {describe(name)}")
        return 0

    if args.command == "run" and args.experiment not in experiment_names():
        known = ", ".join(experiment_names())
        print(f"error: unknown experiment {args.experiment!r}; "
              f"known: {known}", file=sys.stderr)
        return 2

    try:
        values = {} if args.config is None else load_config(args.config)
        if args.command == "run":
            report = run_experiment(args.experiment, seed=args.seed,
                                    values=values, out_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output under {args.out!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 4

    if args.command == "validate":
        print(f"{args.config}: ok ({len(values)} key(s))")
        print("accepted keys:")
        for key, (_, want) in KNOWN_KEYS.items():
            print(f"  {key}  ({want.__name__})")
        return 0
    for line in report.lines:
        print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

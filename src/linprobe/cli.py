"""Experiment runner CLI.

    linprobe --experiment probe_cost --seed 42 --out probe.csv
    linprobe --experiment filter_fpr --config cfg.json --seed 7 \
        --out fpr.json --format json --threads 4
    linprobe --list

Identical (config, seed) produce byte-identical output files, regardless
of --threads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linprobe", description="linear-probing and signature-filter experiments"
    )
    parser.add_argument("--experiment", help="experiment name (see --list)")
    parser.add_argument("--config", help="JSON object of config fields; each field it leaves "
                                         "out takes the experiment's default")
    parser.add_argument("--seed", type=int,
                        help="root seed (default: the config file's seed, else 0)")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="run every trial in one pool of at most min(N, CPUs) worker "
                             "processes; N >= 1, and the default 1 starts none; "
                             "the rows do not depend on it")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if not args.experiment:
        parser.print_usage(sys.stderr)
        print("error: --experiment is required (or use --list)", file=sys.stderr)
        return 2
    if not args.out:
        parser.print_usage(sys.stderr)
        print("error: --out is required", file=sys.stderr)
        return 2
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2

    try:
        raw = {}
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        seed = {} if args.seed is None else {"seed": args.seed}
        config = ExperimentConfig.from_dict({**raw, "experiment": args.experiment, **seed})
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    rows = run_experiment(config, threads=args.threads)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

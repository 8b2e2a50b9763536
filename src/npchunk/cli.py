"""Command-line interface: gen, run, stats, replay."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    _fmt,
    gen_corpus_cmd,
    load_config,
    replay_resample,
    run_experiment,
    stats_cmd,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npchunk",
        description=(
            "Train base-NP chunkers on bootstrap/CV resamples and compute "
            "recall-distribution statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic IOB2 corpus")
    gen.add_argument("grammar", help="built-in grammar name (wsj-like, atis-like)")
    gen.add_argument("n_sentences", type=int)
    gen.add_argument("seed", type=int)
    gen.add_argument("out", help="output IOB2 file path")

    run = sub.add_parser("run", help="run a full resampling experiment")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument(
        "overrides", nargs="*", metavar="key=value",
        help="config overrides, e.g. workers=4",
    )

    stats = sub.add_parser("stats", help="statistics over saved recall sample files")
    stats.add_argument("files", nargs="+", help="resample_id<TAB>recall files")

    replay = sub.add_parser("replay", help="re-run one resample from its plan")
    replay.add_argument("--config", required=True)
    replay.add_argument("--resample-id", type=int, required=True)
    replay.add_argument(
        "overrides", nargs="*", metavar="key=value", help="config overrides"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            corpus = gen_corpus_cmd(args.grammar, args.n_sentences, args.seed, args.out)
            print(
                f"wrote {len(corpus)} sentences, "
                f"{corpus.instance_count()} base-NP instances to {args.out}"
            )
        elif args.command == "run":
            config = load_config(args.config, args.overrides)
            report = run_experiment(config)
            print(f"config_hash={report.config_hash}")
            for (system, test), summary in sorted(report.summaries.items()):
                print(
                    f"{system}\t{test}\tn={summary.n}\tmean={_fmt(summary.mean)}"
                    f"\tstd={_fmt(summary.std)}\te_full={_fmt(report.e_full[(system, test)])}"
                )
            print(f"reports written to {config.output_dir}")
        elif args.command == "stats":
            sys.stdout.write(stats_cmd(args.files))
        elif args.command == "replay":
            config = load_config(args.config, args.overrides)
            for system, test, metrics in replay_resample(config, args.resample_id):
                print(f"{system}\t{test}\trecall={_fmt(metrics.recall)}"
                      f"\tprecision={_fmt(metrics.precision)}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

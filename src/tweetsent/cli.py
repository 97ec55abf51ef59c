"""Command-line front end.

Subcommands: ingest, ngrams, sentiment, report, scenario, run, synth.
Exit codes: 0 success, 2 configuration error (bad flags, paths, parameter
ranges), 3 data error (schema violations, empty corpora, ties), 4 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytics, scenario
from .corpus import BotPolicy, load_corpus, write_corpus_jsonl
from .errors import (
    ConfigError,
    EmptyCorpusError,
    EmptyInputError,
    InvalidNError,
    InvalidRangeError,
    PipelineStageError,
    SchemaError,
    TiedTrendError,
)
from .exports import (
    daily_series_to_csv,
    device_report_to_csv,
    distribution_to_csv,
    ngram_table_to_csv,
    ranked_table_to_csv,
    scores_to_csv,
    write_json,
)
from .pipeline import (
    Analysis, RunConfig, check_files, check_filters, check_output, gc_paused, load_filtered, run_pipeline,
)

# a directory given where a file is expected is a configuration error, as a missing file is
_CONFIG_ERRORS = (ConfigError, FileNotFoundError, IsADirectoryError, InvalidRangeError, InvalidNError)
_DATA_ERRORS = (SchemaError, EmptyCorpusError, EmptyInputError, TiedTrendError)


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="corpus file (CSV or JSONL)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")


def _add_filter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", dest="start_date", help="inclusive start date YYYY-MM-DD")
    p.add_argument("--end", dest="end_date", help="inclusive end date YYYY-MM-DD")
    p.add_argument("--keyword", help="keep records containing this keyword")
    p.add_argument("--country", help="keep records tagged with this country code")


def cmd_ingest(args) -> None:
    chain = check_filters(args.start_date, args.end_date, args.keyword, args.country)
    # the bot flags' dests are BotPolicy field names; an unset flag keeps its default
    knobs = {name: getattr(args, name) for name in BotPolicy.__dataclass_fields__}
    policy = BotPolicy(**{name: value for name, value in knobs.items() if value is not None})
    corpus = load_filtered(args.input, args.format, chain, policy if args.bots else None)
    write_corpus_jsonl(corpus, args.output)
    if args.provenance:
        prov_path = Path(args.output).with_suffix(".provenance.json")
        write_json(corpus.provenance._asdict(), prov_path)
        print(f"wrote {args.output} and {prov_path}")
    else:
        print(f"wrote {args.output}")
    print(f"records: {len(corpus.records)}")


def _analysis(args) -> Analysis:
    """The text analysis of the whole input, once its input and lexicon
    files pass `run`'s check."""
    check_files(vars(args))
    return Analysis(load_corpus(args.input, args.format), args)


def cmd_ngrams(args) -> None:
    table = _analysis(args).ngram_table(args.n, args.top)
    if args.output:
        if args.export == "csv":
            ngram_table_to_csv(table, args.output)
        else:
            rows = [{"rank": r, "gram": gram, "count": c} for r, (gram, c) in enumerate(table, 1)]
            write_json(rows, args.output)
        print(f"wrote {args.output}")
    else:
        for rank, (gram, count) in enumerate(table, 1):
            print(f"{rank}\t{gram}\t{count}")


def cmd_sentiment(args) -> None:
    analysis = _analysis(args)
    scores = analysis.scores
    dist = analytics.polarity_distribution(scores)
    scores_to_csv(analysis.corpus, scores, args.output, analysis.profiles)
    print(f"wrote {args.output}")
    print(
        f"shares positive={dist['positive_share']:.4f} negative={dist['negative_share']:.4f} "
        f"neutral={dist['neutral_share']:.4f}"
    )


def cmd_report(args) -> None:
    analysis = _analysis(args)
    corpus, what = analysis.corpus, args.what
    # a report is the JSON value it is written as, and `to_csv` flattens it;
    # masking changes only the text, so the rankings read the masked corpus
    if what == "mentions":
        report, to_csv = analytics.rank_mentions(corpus, args.top), ranked_table_to_csv
    elif what == "hashtags":
        report, to_csv = analytics.rank_hashtags(corpus, args.top), ranked_table_to_csv
    elif what == "locations":
        report, to_csv = analytics.rank_locations(corpus, args.top, args.field), ranked_table_to_csv
    elif what == "devices":
        report, to_csv = analytics.device_group_report(corpus, analysis.cleaned), device_report_to_csv
    elif what == "daily":
        report, to_csv = analytics.daily_emotion_series(corpus, analysis.profiles), daily_series_to_csv
    elif args.export == "csv":  # the CSV writes no emotion totals, so it classifies no text
        report, to_csv = analytics.polarity_distribution(analysis.scores), distribution_to_csv
    else:
        report = analysis.distribution()
    (to_csv if args.export == "csv" else write_json)(report, args.output)
    print(f"wrote {args.output}")


def cmd_scenario(args) -> None:
    trend = scenario.load_trend(args.input)
    payload = scenario.classify_scenario(trend, args.timing)
    if args.output:
        write_json(payload, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_run(args) -> None:
    cfg = RunConfig.load(args.config, vars(args))  # the flags' dests are RunConfig field names
    manifest = run_pipeline(cfg)
    print(f"wrote {Path(cfg.output_dir) / 'manifest.json'}")
    prov = manifest.stages["provenance"]
    print(
        f"parsed={prov['parsed']} skipped={prov['skipped']} "
        f"final={manifest.stages['records_final']}"
    )


def cmd_synth(args) -> None:
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    if args.ledger is not None:
        check_output(args.ledger, "--ledger")
    from .synth import write_synthetic_corpus  # no other command needs the generator

    ledger = write_synthetic_corpus(
        args.output,
        seed=args.seed,
        n=args.n,
        format=args.format,
        ledger_path=args.ledger,
    )
    print(f"wrote {args.output} ({args.n} records)")
    if args.ledger:
        print(f"wrote {args.ledger}")
    counts = ledger["counts"]
    print(
        f"planted duplicates={counts['duplicates']} burst={counts['burst_records']} "
        f"low_token={counts['low_token']}"
    )


def _add_lexicon_args(p: argparse.ArgumentParser, text_only: bool = False) -> None:
    """The lexicon flags; `text_only` keeps the two that text preparation reads."""
    p.add_argument("--stopwords", dest="stopwords_path", help="stopword list path (default: bundled)")
    p.add_argument("--abusive-lexicon", dest="abusive_lexicon_path", help="abusive word list path")
    if text_only:
        return
    p.add_argument("--emotion-lexicon", dest="emotion_lexicon_path", help="emotion lexicon TSV path")
    p.add_argument("--polarity-lexicon", dest="polarity_lexicon_path", help="polarity lexicon CSV path")
    p.add_argument("--shifter-lexicon", dest="shifter_lexicon_path", help="shifter lexicon CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tweetsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, filter, and export a corpus")
    _add_corpus_args(p)
    _add_filter_args(p)
    p.add_argument("--bots", action="store_true", help="apply bot/duplicate removal")
    p.add_argument("--dup-window", dest="dup_window_seconds", type=float)
    p.add_argument("--burst-per-minute", dest="burst_per_minute", type=int)
    p.add_argument("--min-distinct-tokens", dest="min_distinct_tokens", type=int)
    p.add_argument("--output", required=True, help="filtered corpus JSONL path")
    p.add_argument("--provenance", action="store_true", help="also write provenance JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ngrams", help="ranked n-gram frequency table")
    _add_corpus_args(p)
    p.add_argument("--n", type=int, required=True, help="gram order, 1..4")
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--export", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write table here instead of stdout")
    _add_lexicon_args(p, text_only=True)
    p.set_defaults(func=cmd_ngrams)

    p = sub.add_parser("sentiment", help="per-record emotion and polarity scores")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument("--output", required=True, help="per-record scores CSV path")
    p.set_defaults(func=cmd_sentiment)

    p = sub.add_parser("report", help="descriptive and distribution reports")
    _add_corpus_args(p)
    _add_lexicon_args(p)
    p.add_argument(
        "--what",
        required=True,
        choices=["mentions", "hashtags", "locations", "devices", "daily", "distribution"],
    )
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--field", choices=["tagged", "stated"], default="stated")
    p.add_argument("--export", choices=["csv", "json"], default="json")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("scenario", help="map sentiment trend and timing to a scenario")
    p.add_argument("--input", required=True, help="distribution report JSON")
    p.add_argument("--timing", required=True, choices=["now", "later"])
    p.add_argument("--output", help="write scenario JSON here instead of stdout")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", help="flat JSON config; flags override its values")
    p.add_argument("--input")
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--output-dir", dest="output_dir")
    _add_filter_args(p)
    _add_lexicon_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="deterministic synthetic corpus generator")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--ledger", help="write the planting ledger JSON here")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with gc_paused():
            if getattr(args, "output", None) is not None:
                check_output(args.output, "--output")
            args.func(args)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        staged = isinstance(exc, PipelineStageError)
        cause = exc.cause if staged else exc
        if isinstance(cause, _CONFIG_ERRORS):
            code = 2
        elif isinstance(cause, _DATA_ERRORS):
            code = 3
        else:
            code = 4
        kind = "internal error" if code == 4 and not staged else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: commands return their files, `main` publishes them;
`report --what` writes one entry of `pipeline.Analysis.reports`.

Subcommands: ingest, ngrams, sentiment, report, scenario, run, synth.
Exit codes: 0 success, 2 configuration error (bad flags, paths, parameter
ranges), 3 data error (schema violations, empty corpora, ties), 4 internal
error. An error class takes its code from its base in `tweetsent.errors`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import redirect_stdout, suppress
from functools import partial
from pathlib import Path

from . import analytics, ngrams, scenario
from .corpus import BotPolicy, load_corpus, write_corpus_jsonl
from .errors import ConfigError, DataError, InvalidRangeError, PipelineStageError
from .exports import ngram_table_to_csv, scores_to_csv, write_json
from .pipeline import (
    Analysis, RunConfig, check_files, check_filters, check_output, check_path, gc_paused, group, load_filtered,
    publish, run_pipeline,
)


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="corpus file (CSV or JSONL)")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")


def _add_filter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", dest="start_date", help="inclusive start date YYYY-MM-DD")
    p.add_argument("--end", dest="end_date", help="inclusive end date YYYY-MM-DD")
    p.add_argument("--keyword", help="keep records containing this keyword")
    p.add_argument("--country", help="keep records tagged with this country code")


def cmd_ingest(args) -> dict:
    chain = check_filters(args.start_date, args.end_date, args.keyword, args.country)
    check_files({"input": args.input})
    prov_path = Path(args.output).with_suffix(".provenance.json")
    if args.provenance:  # written beside --output: beside a device, it would go into /dev
        if Path(args.output).exists() and not Path(args.output).is_file():
            raise ConfigError(f"--provenance needs a regular file as --output, not {args.output}")
        check_output(prov_path, "--provenance")
    policy = group(BotPolicy, args)  # the bot flags' dests are BotPolicy field names
    corpus = load_filtered(args.input, args.format, chain, policy if args.bots else None)
    print(f"records: {len(corpus.records)}")
    provenance = {prov_path: partial(write_json, corpus.provenance._asdict())} if args.provenance else {}
    return {args.output: partial(write_corpus_jsonl, corpus), **provenance}


def _analysis(args) -> Analysis:
    """The text analysis of the whole input, once its input and lexicon
    files pass `run`'s check."""
    check_files(vars(args))
    return Analysis(load_corpus(args.input, args.format), args)


def cmd_ngrams(args) -> dict | None:
    ngrams.build_table([], args.n)  # refuses a bad --n, and the check below a bad --top, before the load
    if args.top < 1:
        raise InvalidRangeError(f"top must be >= 1, got {args.top}")
    table = _analysis(args).ngram_table(args.n, args.top)
    if args.output:
        if args.export == "json":
            table = [{"rank": r, "gram": gram, "count": c} for r, (gram, c) in enumerate(table, 1)]
        return {args.output: partial(ngram_table_to_csv if args.export == "csv" else write_json, table)}
    for rank, (gram, count) in enumerate(table, 1):
        print(f"{rank}\t{gram}\t{count}")


def cmd_sentiment(args) -> dict:
    analysis = _analysis(args)
    shares = analytics.polarity_shares(analysis.scores)  # not the histogram, which sentiment never writes
    print(
        f"shares positive={shares['positive_share']:.4f} negative={shares['negative_share']:.4f} "
        f"neutral={shares['neutral_share']:.4f}"
    )
    return {args.output: partial(scores_to_csv, analysis.corpus, analysis.scores, profiles=analysis.profiles)}


# each --what's file name in `Analysis.reports`
_REPORTS = {"mentions": "mentions.csv", "hashtags": "hashtags.csv", "locations": "locations_{field}.csv",
            "devices": "devices.json", "daily": "emotion_daily.csv", "distribution": "distribution.json"}


def cmd_report(args) -> dict:
    if args.top < 1 and args.what in ("mentions", "hashtags", "locations"):  # the ranking's check, before the load
        raise InvalidRangeError("k must be >= 1")
    analysis = _analysis(args)
    _, build, to_csv = analysis.reports(args.top)[_REPORTS[args.what].format(field=args.field)]
    # a distribution's CSV form holds no emotion totals, so it classifies no text
    if args.what == "distribution" and args.export == "csv":
        build = partial(analytics.polarity_distribution, analysis.scores)
    return {args.output: partial(to_csv if args.export == "csv" else write_json, build())}


def cmd_scenario(args) -> dict | None:
    check_path(args.input, "--input")
    payload = scenario.classify_scenario(scenario.load_trend(args.input), args.timing)
    if args.output:
        return {args.output: partial(write_json, payload)}
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


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
    p.add_argument("--what", required=True, choices=_REPORTS)
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
    printed = io.StringIO()  # the command's stdout, written once it has finished
    try:
        with gc_paused(), redirect_stdout(printed):
            for name, value in vars(args).items():
                if value == []:  # argparse before Python 3.13 reads `--flag=--` as [], not "--"
                    raise ConfigError(f"{name} was given no value")
            if getattr(args, "output", None) is not None:
                check_output(args.output, "--output")
            files = args.func(args) or {}  # a command returns each file it writes, with its writer
            wrote = f"wrote {' and '.join(map(str, files))}\n" if files else ""
            with publish(*files) as paths:
                for path, target in zip(paths, list(files)):
                    files.pop(target)(path)  # a writer and its data go once written, before the collector resumes
        try:  # a broken pipe here is stdout's; an output file's is an OSError, exit 2
            sys.stdout.write(wrote + printed.getvalue())
            sys.stdout.flush()  # so a closed stdout raises here, not at interpreter exit
        except BrokenPipeError:
            # the reader has gone (`| head`): end quietly, as Unix filters do, with
            # stdout on devnull so that the flush at exit has somewhere to go
            with suppress(OSError, ValueError):  # a stdout with no file descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        staged = isinstance(exc, PipelineStageError)
        cause = exc.cause if staged else exc
        # an OS error on a path given (missing, a directory, through a file, not permitted) is bad config
        code = 2 if isinstance(cause, (ConfigError, OSError)) else 3 if isinstance(cause, DataError) else 4
        kind = "internal error" if code == 4 and not staged else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

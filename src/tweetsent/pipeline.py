"""End-to-end run: ingest, filter, mask, tokenize, analyze, write reports.

Stage order: load, with date_range -> keyword -> country tested on each row
as it is read -> bot/duplicate removal -> abusive masking -> tokenization ->
stopword removal -> n-gram tables, emotion profiles, polarity scores,
descriptive reports, and the scenario-ready sentiment summary.

Stream policy: unigram/bigram tables and emotion classification use the
stopword-removed streams; trigram/quadgram tables and polarity scoring use
the full streams, since function words carry both the longer word sequences
and the valence shifters.

`load_filtered` loads through the filters for `run` and for the CLI's `ingest`;
`Analysis` composes the text stages, masking to polarity, for `run` and for
the CLI's `ngrams`, `sentiment` and `report`, once `check_files` has checked
their files as `run`'s; `run` writes each report of its table `reports`, and
`report --what` one.

A run writes every report plus a manifest (stage counts, config echo,
sha256 per output), all computed first, then staged in output_dir and moved
into place by `publish`, manifest last: a failed run leaves output_dir as it
was. Identical config and input produce byte-identical outputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import stat
import tempfile
from collections import Counter, namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from datetime import date
from functools import cached_property, partial
from pathlib import Path

from . import __version__, analytics, emotion, ngrams, polarity, textprep
from .corpus import (
    BotPolicy,
    Corpus,
    filter_bots_and_duplicates,
    load_corpus,
    write_corpus_jsonl,
)
from .errors import ConfigError, EmptyCorpusError, PipelineStageError
from .exports import (
    daily_series_to_csv, device_report_to_csv, distribution_to_csv, ngram_table_to_csv, ranked_table_to_csv,
    scores_to_csv, write_json,
)
from .polarity import ScoringParams

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_KEYWORD_RE = re.compile(r"[a-z0-9' ]+")


def parse_date(value: str) -> date:
    """Strict YYYY-MM-DD: ASCII digits and a valid calendar date. The layout is
    checked first, because `date.fromisoformat` takes more from Python 3.11 on."""
    if isinstance(value, str) and _DATE_RE.fullmatch(value):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    raise ConfigError(f"bad date {value!r}: expected YYYY-MM-DD")


def check_filters(
    start_date: str | None, end_date: str | None, keyword: str | None, country: str | None
) -> list:
    """Check the date, keyword and country filter values, where None turns a
    filter off, and return the chain of (stage name, row test) of the filters
    that are on, in that order, for `load_filtered`. A row test takes a valid
    row's UTC `created_at`, `text` and `country_code` and passes a row whose
    UTC calendar date lies in [start, end], whose case-folded text contains
    the case-folded keyword, and whose country tag is the code in any case:
    untagged tweets from the country cannot be recovered, so they fail."""
    chain = []
    if start_date is not None or end_date is not None:
        if start_date is None or end_date is None:
            raise ConfigError("start_date and end_date must be given together")
        start, end = parse_date(start_date), parse_date(end_date)
        if start > end:
            raise ConfigError(f"start_date {start_date} after end_date {end_date}")
        chain.append(("date_range", lambda at, text, code: start <= at.date() <= end))
    if keyword is not None:
        if not (isinstance(keyword, str) and keyword):
            raise ConfigError("keyword must be non-empty")
        needle = keyword.casefold()
        chain.append(("keyword", lambda at, text, code: needle in text.casefold()))
    if country is not None:
        if not (isinstance(country, str) and len(country) == 2 and country.isascii() and country.isalpha()):
            raise ConfigError(f"country must be a two-letter code, got {country!r}")
        wanted = country.upper()
        chain.append(("country", lambda at, text, code: code is not None and code.upper() == wanted))
    return chain


def check_path(path, label: str) -> None:
    """Refuse a path holding NUL, which no file system takes; the message shows it escaped."""
    if "\0" in str(path):
        raise ConfigError(f"{label} holds a NUL character: {str(path)!r}")


def check_files(values: dict) -> None:
    """Refuse a missing file or a directory given for `input` or any lexicon
    path (a key ending in `_path`) of `values`; None means the bundled file."""
    for label, value in values.items():
        if value is None or not (label == "input" or label.endswith("_path")):
            continue
        check_path(value, label)
        if not Path(value).exists():
            raise ConfigError(f"{'input file' if label == 'input' else label} not found: {value}")
        # a directory would fail only at its own stage; a device such as /dev/null is read
        if Path(value).is_dir():
            raise ConfigError(f"{label}: Is a directory: {value}")


def check_output(path: str, label: str, directory: bool = False) -> None:
    """Refuse an output path that runs through a regular file; a `directory`
    may not be one, and a file output may not be an existing directory nor
    lie in a missing one (a `directory` is created with its parents)."""
    check_path(path, label)
    path = Path(path)
    for part in [path, *path.parents] if directory else path.parents:
        if part.is_file():
            raise ConfigError(f"{label} {path} needs a directory where the file {part} is")
    if not directory and path.is_dir():
        raise ConfigError(f"{label}: Is a directory: {path}")
    if not (directory or path.parent.is_dir()):
        raise ConfigError(f"{label} directory not found: {path.parent}")


@contextmanager
def publish(*targets):
    """Yield the paths at which to write `targets`, which lie in one directory:
    files in a staging directory there (`.tweetsent-` and a random suffix),
    moved into place in order by `os.replace` as the block ends, so a failure
    leaves the directory as it was. A target that exists and is no regular file
    (a device, FIFO, symlink or directory) is written in place, not replaced."""
    targets = [Path(t) for t in targets]
    in_place = [os.path.lexists(t) and not stat.S_ISREG(os.lstat(t).st_mode) for t in targets]
    if all(in_place):  # no staging directory, in a directory such as /dev that may refuse one
        yield targets
        return
    with tempfile.TemporaryDirectory(dir=targets[0].parent, prefix=".tweetsent-") as staging:
        paths = [t if kept else Path(staging, t.name) for t, kept in zip(targets, in_place)]
        yield paths
        for target, path in zip(targets, paths):
            if path is not target:
                os.replace(path, target)


# the accepted Python types and the description of each scalar annotation of
# RunConfig; bool, a subclass of int, is refused separately
_FIELD_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


@dataclass
class RunConfig:
    """Flat run configuration; unset lexicon paths fall back to bundled data."""

    input: str
    format: str = "csv"
    start_date: str = "2020-04-30"
    end_date: str = "2020-05-08"
    keyword: str = "reopen"
    country: str = "US"
    stopwords_path: str | None = None
    abusive_lexicon_path: str | None = None
    emotion_lexicon_path: str | None = None
    polarity_lexicon_path: str | None = None
    shifter_lexicon_path: str | None = None
    window_before: int = ScoringParams.window_before
    window_after: int = ScoringParams.window_after
    amplifier_weight: float = ScoringParams.amplifier_weight
    adversative_weight: float = ScoringParams.adversative_weight
    dup_window_seconds: float = BotPolicy.dup_window_seconds
    burst_per_minute: int = BotPolicy.burst_per_minute
    min_distinct_tokens: int = BotPolicy.min_distinct_tokens
    ngram_top: int = 100
    wordcloud_top: int = 100
    rank_top: int = 10
    device_categories: dict[str, list[str]] | None = None
    output_dir: str = "out"

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        """The config in the JSON file at `path` (none if None) with every
        entry of `overrides` that names a field and is not None put over it."""
        values = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    values = json.load(fh)
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}") from None
            except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
                raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
            if not isinstance(values, dict):
                raise ConfigError("config file must hold a flat JSON object")
        values.update(
            {k: v for k, v in overrides.items() if k in cls.__dataclass_fields__ and v is not None}
        )
        if unknown := values.keys() - cls.__dataclass_fields__.keys():
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "input" not in values:
            raise ConfigError("config requires 'input'")
        return cls(**values)

    def validate(self) -> tuple[list, BotPolicy]:
        """Check every field; return the filter chain and the bot policy that
        the checks build."""
        # a JSON config can give any field any type; each is checked before a
        # comparison or a file open could meet the wrong one
        for f in fields(self):
            kinds = _FIELD_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds[0])):
                raise ConfigError(f"{f.name} must be {kinds[1]}, got {value!r}")
        categories = self.device_categories
        if categories is not None and not (isinstance(categories, dict) and categories):
            raise ConfigError(f"device_categories must be a non-empty object, got {categories!r}")
        for name, words in (categories or {}).items():
            # a cleaned text holds only these characters, single-spaced: no other keyword matches
            if not (isinstance(words, list) and words
                    and all(isinstance(w, str) and _KEYWORD_RE.fullmatch(w) and "  " not in w for w in words)):
                raise ConfigError(f"device_categories must be non-empty lists of keywords of a-z, 0-9, ' "
                                  f"and single spaces; {name!r} maps to {words!r}")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv or jsonl, got {self.format!r}")
        check_files(vars(self))
        chain = check_filters(self.start_date, self.end_date, self.keyword, self.country)
        check_output(self.output_dir, "output_dir", directory=True)
        if min(self.ngram_top, self.wordcloud_top, self.rank_top) < 1:
            raise ConfigError("top-k values must be >= 1")
        group(ScoringParams, self)  # each parameter group checks its own fields
        return chain, group(BotPolicy, self)


def group(cls, options):
    """The parameter group `cls` built from the attributes of `options` (a
    `RunConfig` or a command's parsed flags) that name its fields; an absent
    or None attribute keeps the group's default."""
    values = {name: getattr(options, name, None) for name in cls.__dataclass_fields__}
    return cls(**{name: value for name, value in values.items() if value is not None})


# what manifest.json holds: the config echo, the stage counts, each output's sha256
RunManifest = namedtuple("RunManifest", "config stages outputs version")


@contextmanager
def stage(name: str):
    """Name the stage of a failure in the block: any exception raised in it
    is re-raised as a `PipelineStageError` of stage `name`."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def load_filtered(path, format: str, chain=(), policy: BotPolicy | None = None) -> Corpus:
    """Load the corpus at `path` through the date, keyword and country filters
    of `chain` (see `check_filters`), which test each row as it is read, and
    then through the bot filter if `policy` is given. Stop at the load if no
    row is valid, or at the first filter that leaves no record, before any
    analysis runs."""
    with stage("load"):
        corpus = load_corpus(path, format, chain)
    left = corpus.provenance.parsed - corpus.provenance.skipped
    for name, removed in corpus.provenance.filtered.items():
        left -= removed
        if not left:
            with stage(name):
                raise EmptyCorpusError(f"the {name} filter left no records")
    if policy is not None:
        with stage("bots"):
            corpus = filter_bots_and_duplicates(corpus, policy)
            if not corpus.records:
                raise EmptyCorpusError("the bots filter left no records")
    return corpus


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for the block.

    A run allocates many objects and frees them by reference count; the
    collector's passes over them find no garbage. On exit the collector
    is re-enabled only if it was on at entry, so nested blocks and callers
    that keep it off are left as they were, also when the block raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Analysis:
    """The text analysis of a corpus: per distinct input text its record
    count (`weights`), then, from its masked text, its prepared text
    (`distinct_full`), stopword-filtered text (`distinct_stopped`) and
    emotion profile (`distinct_profiles`); per record its masked record
    (`corpus`), cleaned text (`cleaned`), emotion profile (`profiles`) and
    polarity score (`scores`); over all records the emotion totals (`totals`)
    and the distribution report (`distribution`). Two input texts that mask
    alike keep two slots with equal results, so the reports count the same.

    Lexicon paths and the scoring parameters are read from `options`, a
    `RunConfig` or a command's parsed flags: an absent or `None` path means
    the bundled file, and the parameters are built by `group`.

    Each field is computed once, on first use; a per-record field expands
    the results of the distinct texts, which nothing mutates, to the records.
    The prepared texts are built with one vocabulary, so each distinct token
    is one string object, shared by every sentence that holds it.
    """

    def __init__(self, corpus: Corpus, options) -> None:
        self._options = options
        self._params = group(ScoringParams, options)
        self.masks: dict[str, str] = {}  # each masked word's mask, in order of first hit
        self.occurrences = 0  # the masked hits over all records
        pattern = textprep.mask_pattern(textprep.load_abusive_lexicon(self._path("abusive_lexicon_path")))
        records = corpus.records
        n_records = Counter(r.text for r in records)
        self.weights = list(n_records.values())
        slot_of = dict(zip(n_records, range(len(n_records))))
        # each record's place in `_texts`, the masked input texts
        self._slots = [slot_of[r.text] for r in records]
        texts = self._texts = []
        for raw, n in n_records.items():
            text, hits = textprep.mask_text(raw, pattern, self.masks)
            texts.append(text)
            self.occurrences += hits * n
        masked = [r if (t := texts[s]) == r.text else replace(r, text=t) for r, s in zip(records, self._slots)]
        self.corpus = corpus._replace(records=masked)

    def _path(self, name: str) -> str | None:
        return getattr(self._options, name, None)

    def _expand(self, values: list) -> list:
        return list(map(values.__getitem__, self._slots))

    @cached_property
    def distinct_full(self) -> list[textprep.Sentences]:
        vocab: dict[str, str] = {}
        return [textprep.prepare(t, vocab) for t in self._texts]

    @cached_property
    def distinct_stopped(self) -> list[textprep.Sentences]:
        stoplist = textprep.load_stoplist(self._path("stopwords_path"))
        return [textprep.remove_stopwords(ts, stoplist) for ts in self.distinct_full]

    @cached_property
    def distinct_profiles(self) -> list[emotion.EmotionProfile]:
        lex = emotion.load_emotion_lexicon(self._path("emotion_lexicon_path"))
        return [emotion.classify(ts, lex) for ts in self.distinct_stopped]

    @cached_property
    def cleaned(self) -> list[str]:
        return self._expand([" ".join(map(" ".join, ts)) for ts in self.distinct_full])

    @cached_property
    def profiles(self) -> list[emotion.EmotionProfile]:
        return self._expand(self.distinct_profiles)

    @cached_property
    def totals(self) -> dict:
        """The summed emotion profiles as `emotion_totals.json` holds them."""
        *counts, token_total = emotion.aggregate_profiles(self.distinct_profiles, self.weights)
        return {"counts": dict(zip(emotion.ALL_CATEGORIES, counts)), "token_total": token_total}

    def ngram_table(self, n: int, top: int) -> list[tuple[str, int]]:
        """The first `top` >= 1 rows of the n-gram table: over the
        stopword-filtered texts for n <= 2, over the full texts for n >= 3."""
        streams = self.distinct_stopped if n <= 2 else self.distinct_full
        return ngrams.build_table(streams, n, top, self.weights)

    @cached_property
    def scores(self) -> list[polarity.PolarityScore]:
        lex = polarity.load_polarity_lexicon(
            self._path("polarity_lexicon_path"), self._path("shifter_lexicon_path")
        )
        return self._expand(
            [polarity.score_text(ts, lex, self._params) for ts in self.distinct_full]
        )

    def distribution(self) -> dict:
        """The scenario-ready summary that `distribution.json` holds: the
        scores' distribution report with the emotion totals."""
        report = analytics.polarity_distribution(self.scores)
        report["emotion_totals"] = self.totals
        return report

    def reports(self, k: int, categories: dict | None = None) -> dict:
        """Each report by its run file name: (stage, build, to_csv), where `build()`
        returns the JSON value it is written as and `to_csv(value, path)` its
        CSV form; `k` is the rankings' length, `categories` the device groups'.
        Built at each call, so a writer or analytics function replaced is used."""
        c, rank = self.corpus, partial(analytics.rank_locations, self.corpus, k)
        return {
            "emotion_totals.json": ("emotion", lambda: self.totals, None),
            "polarity_scores.csv": ("polarity", lambda: self.scores, partial(scores_to_csv, c)),
            "mentions.csv": ("report", partial(analytics.rank_mentions, c, k), ranked_table_to_csv),
            "hashtags.csv": ("report", partial(analytics.rank_hashtags, c, k), ranked_table_to_csv),
            "locations_tagged.csv": ("report", partial(rank, "tagged"), ranked_table_to_csv),
            "locations_stated.csv": ("report", partial(rank, "stated"), ranked_table_to_csv),
            "devices.json": ("report", lambda: analytics.device_group_report(c, self.cleaned, categories),
                             device_report_to_csv),
            "emotion_daily.csv": ("report", lambda: analytics.daily_emotion_series(c, self.profiles),
                                  daily_series_to_csv),
            "distribution.json": ("distribution", self.distribution, distribution_to_csv),
        }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@gc_paused()  # the run's values die with its frame, before the collector resumes
def run_pipeline(cfg: RunConfig) -> RunManifest:
    chain, policy = cfg.validate()
    corpus = load_filtered(cfg.input, cfg.format, chain, policy)

    with stage("mask"):
        analysis = Analysis(corpus, cfg)
    corpus = analysis.corpus
    # each text stage computes the analysis field that it is named after
    with stage("tokenize"):
        analysis.distinct_full
    with stage("stopwords"):
        analysis.distinct_stopped

    tables = {}
    for n in (1, 2, 3, 4):
        # the unigram table also feeds the word cloud
        top = max(cfg.ngram_top, cfg.wordcloud_top) if n == 1 else cfg.ngram_top
        with stage(f"ngrams_{n}"):
            tables[n] = analysis.ngram_table(n, top)
    with stage("wordcloud"):
        cloud = ngrams.word_cloud_weights(tables[1], cfg.wordcloud_top)

    # the n-gram tables above are built before any profile or score exists; each
    # report is built in its stage, and written by its CSV writer under a .csv name
    reports = []
    for name, (stage_name, build, to_csv) in analysis.reports(cfg.rank_top, cfg.device_categories).items():
        with stage(stage_name):
            reports.append((name, partial(to_csv if name.endswith(".csv") else write_json, build())))

    provenance = corpus.provenance._asdict()
    stages = {
        "provenance": provenance,
        "records_final": len(corpus.records),
        "mask": {"distinct_terms": len(analysis.masks), "occurrences": analysis.occurrences},
    }

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # each output's file name and the writer that takes its path
    writers = [
        ("provenance.json", partial(write_json, provenance)),
        ("filtered_corpus.jsonl", partial(write_corpus_jsonl, corpus)),
        # the unigram table holds the word cloud's rows too
        *[(f"ngrams_{n}.csv", partial(ngram_table_to_csv, tables[n][: cfg.ngram_top])) for n in (1, 2, 3, 4)],
        ("wordcloud.json", partial(write_json, cloud)),
        *reports,
    ]
    # staged and hashed on output_dir's filesystem, then moved into place, the manifest last
    with stage("write"), publish(*[out_dir / name for name, _ in writers], out_dir / "manifest.json") as paths:
        for (_, write), path in zip(writers, paths):
            write(path)
        outputs = {name: _sha256(path) for (name, _), path in zip(writers, paths)}
        manifest = RunManifest(asdict(cfg), stages, outputs, __version__)
        with open(paths[-1], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest._asdict(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return manifest

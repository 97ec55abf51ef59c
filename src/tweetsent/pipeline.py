"""End-to-end run: ingest, filter, mask, tokenize, analyze, write reports.

Stage order: load -> date_range -> keyword -> country -> bot/duplicate
removal -> abusive masking -> tokenization -> stopword removal -> n-gram
tables, emotion profiles, polarity scores, descriptive reports, and the
scenario-ready sentiment summary.

Stream policy: unigram/bigram tables and emotion classification use the
stopword-removed streams; trigram/quadgram tables and polarity scoring use
the full streams, since function words carry both the longer word sequences
and the valence shifters.

`filter_corpus` composes the filters for `run` and for the CLI's `ingest`;
`Analysis` composes the text stages, masking to polarity, for `run` and for
the CLI's `ngrams`, `sentiment` and `report`, which read its fields.

A run writes every report plus a manifest (stage counts, config echo,
sha256 per output). Outputs are computed before anything is written and any
write failure removes the files already written, so a failed run leaves no
partial outputs. Identical config and input produce byte-identical outputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from functools import cached_property, partial
from pathlib import Path

from . import analytics, emotion, ngrams, polarity, textprep
from .corpus import (
    BotPolicy,
    Corpus,
    filter_bots_and_duplicates,
    filter_country,
    filter_date_range,
    filter_keyword,
    load_corpus,
    mask_corpus,
    write_corpus_jsonl,
)
from .errors import ConfigError, EmptyCorpusError, PipelineStageError
from .exports import (
    daily_series_to_csv,
    device_report_to_dict,
    distribution_to_dict,
    ngram_table_to_csv,
    ranked_table_to_csv,
    scores_to_csv,
    word_cloud_to_dict,
    write_json,
)

VERSION = "0.1.0"

_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


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
) -> tuple[date, date] | None:
    """Check the date, keyword and country filter values, where None turns a
    filter off, and return the date window."""
    window = None
    if start_date is not None or end_date is not None:
        if start_date is None or end_date is None:
            raise ConfigError("start_date and end_date must be given together")
        window = parse_date(start_date), parse_date(end_date)
        if window[0] > window[1]:
            raise ConfigError(f"start_date {start_date} after end_date {end_date}")
    if keyword is not None and not (isinstance(keyword, str) and keyword):
        raise ConfigError("keyword must be non-empty")
    if country is not None and not (
        isinstance(country, str) and len(country) == 2 and country.isalpha()
    ):
        raise ConfigError(f"country must be a two-letter code, got {country!r}")
    return window


# the accepted Python types and the description of each numeric annotation of
# RunConfig; bool, a subclass of int, is refused separately
_NUMBER_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number")}


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
    window_before: int = 4
    window_after: int = 2
    amplifier_weight: float = 0.8
    adversative_weight: float = 0.85
    dup_window_seconds: float = BotPolicy.dup_window_seconds
    burst_per_minute: int = BotPolicy.burst_per_minute
    min_distinct_tokens: int = BotPolicy.min_distinct_tokens
    ngram_top: int = 100
    wordcloud_top: int = 100
    rank_top: int = 10
    device_categories: dict[str, list[str]] | None = None
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "input" not in values:
            raise ConfigError("config requires 'input'")
        return cls(**values)

    def validate(self) -> None:
        # a JSON config can give any field any type; the numeric ones are
        # checked before a comparison could meet a string, a bool or null
        for f in fields(self):
            kinds = _NUMBER_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds[0])):
                raise ConfigError(f"{f.name} must be {kinds[1]}, got {value!r}")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv or jsonl, got {self.format!r}")
        if not Path(self.input).exists():
            raise ConfigError(f"input file not found: {self.input}")
        for label in [name for name in self.__dataclass_fields__ if name.endswith("_path")]:
            value = getattr(self, label)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{label} not found: {value}")
        if None in (self.start_date, self.end_date, self.keyword, self.country):
            raise ConfigError("start_date, end_date, keyword and country must be set")
        check_filters(self.start_date, self.end_date, self.keyword, self.country)
        if not 0 <= self.window_before <= 20 or not 0 <= self.window_after <= 20:
            raise ConfigError("context windows must be in 0..20")
        if not 0 <= self.amplifier_weight <= 2:
            raise ConfigError("amplifier_weight must be in [0, 2]")
        if not 0 <= self.adversative_weight <= 2:
            raise ConfigError("adversative_weight must be in [0, 2]")
        self.bot_policy()  # BotPolicy checks its own fields
        if min(self.ngram_top, self.wordcloud_top, self.rank_top) < 1:
            raise ConfigError("top-k values must be >= 1")

    def dates(self) -> tuple[date, date]:
        return parse_date(self.start_date), parse_date(self.end_date)

    def scoring_params(self) -> polarity.ScoringParams:
        return polarity.ScoringParams(
            window_before=self.window_before,
            window_after=self.window_after,
            amplifier_weight=self.amplifier_weight,
            adversative_weight=self.adversative_weight,
        )

    def bot_policy(self) -> BotPolicy:
        return BotPolicy(**{name: getattr(self, name) for name in BotPolicy.__dataclass_fields__})


@dataclass
class RunManifest:
    config: dict
    stages: dict
    outputs: dict[str, str] = field(default_factory=dict)
    version: str = VERSION

    def to_dict(self) -> dict:
        return asdict(self)


def _run_stage(stage: str, fn):
    try:
        return fn()
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


def require_records(corpus: Corpus, stage: str) -> None:
    """Stop at the filter that emptied the corpus, before any analysis runs."""
    if not corpus.records:
        raise PipelineStageError(stage, EmptyCorpusError(f"the {stage} filter left no records"))


def filter_corpus(
    corpus: Corpus,
    window: tuple[date, date] | None = None,
    keyword: str | None = None,
    country: str | None = None,
    policy: BotPolicy | None = None,
) -> Corpus:
    """Apply each filter that is given, in the order date range, keyword,
    country, bots; None turns a filter off. Stop at a filter that leaves no
    record. The values are checked by `check_filters` and `BotPolicy`."""
    for stage, value, keep in (
        ("date_range", window, lambda c: filter_date_range(c, *window)),
        ("keyword", keyword, lambda c: filter_keyword(c, keyword)),
        ("country", country, lambda c: filter_country(c, country)),
        ("bots", policy, lambda c: filter_bots_and_duplicates(c, policy)),
    ):
        if value is not None:
            corpus = _run_stage(stage, partial(keep, corpus))
            require_records(corpus, stage)
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
    """The text analysis of a corpus: masking, then per distinct masked text
    its prepared text (`distinct_full`), stopword-filtered text
    (`distinct_stopped`), emotion profile (`distinct_profiles`) and record
    count (`weights`); per record its cleaned text (`cleaned`), emotion
    profile (`profiles`) and polarity score (`scores`).

    Lexicon paths are read from `paths`, a `RunConfig` or the CLI's parsed
    arguments; an absent or `None` path means the bundled file. `params`
    defaults to `ScoringParams()`.

    Each field is computed once, on first use; a per-record field expands
    the results of the distinct texts, which nothing mutates, to the records.
    The prepared texts are built with one vocabulary, so each distinct token
    is one string object, shared by every sentence that holds it.
    """

    def __init__(self, corpus: Corpus, paths, params: polarity.ScoringParams | None = None) -> None:
        self._paths = paths
        self._params = params or polarity.ScoringParams()
        self.ledger = textprep.MaskLedger()
        abusive = textprep.load_abusive_lexicon(self._path("abusive_lexicon_path"))
        self.corpus = mask_corpus(corpus, abusive, self.ledger)
        n_records = Counter(r.text for r in self.corpus.records)
        self._texts, self.weights = list(n_records), list(n_records.values())
        slot_of = dict(zip(self._texts, range(len(self._texts))))
        # each record's place in `_texts`
        self._slots = [slot_of[r.text] for r in self.corpus.records]

    def _path(self, name: str) -> str | None:
        return getattr(self._paths, name, None)

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
    def scores(self) -> list[polarity.PolarityScore]:
        lex = polarity.load_polarity_lexicon(
            self._path("polarity_lexicon_path"), self._path("shifter_lexicon_path")
        )
        return self._expand(
            [polarity.score_text(ts, lex, self._params) for ts in self.distinct_full]
        )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pipeline(cfg: RunConfig) -> RunManifest:
    with gc_paused():
        cfg.validate()
        corpus = _run_stage("load", lambda: load_corpus(cfg.input, cfg.format))
        corpus = filter_corpus(corpus, cfg.dates(), cfg.keyword, cfg.country, cfg.bot_policy())

        analysis = _run_stage("mask", lambda: Analysis(corpus, cfg, cfg.scoring_params()))
        corpus = analysis.corpus
        full_streams = _run_stage("tokenize", lambda: analysis.distinct_full)
        stopped_streams = _run_stage("stopwords", lambda: analysis.distinct_stopped)
        weights = analysis.weights

        tables = {}
        for n in (1, 2, 3, 4):
            streams = stopped_streams if n <= 2 else full_streams
            # the unigram table also feeds the word cloud
            top = max(cfg.ngram_top, cfg.wordcloud_top) if n == 1 else cfg.ngram_top
            tables[n] = _run_stage(
                f"ngrams_{n}", lambda n=n, s=streams, k=top: ngrams.build_table(s, n, k, weights)
            )
        cloud = _run_stage(
            "wordcloud", lambda: ngrams.word_cloud_weights(tables[1], cfg.wordcloud_top)
        )

        # the n-gram tables above are built before any profile or score exists
        profiles = _run_stage("emotion", lambda: analysis.profiles)
        totals = _run_stage(
            "emotion", lambda: emotion.aggregate_profiles(analysis.distinct_profiles, weights)
        )
        scores = _run_stage("polarity", lambda: analysis.scores)

        mentions = _run_stage("report", lambda: analytics.rank_mentions(corpus, cfg.rank_top))
        hashtags = _run_stage("report", lambda: analytics.rank_hashtags(corpus, cfg.rank_top))
        loc_tagged = _run_stage(
            "report", lambda: analytics.rank_locations(corpus, cfg.rank_top, "tagged")
        )
        loc_stated = _run_stage(
            "report", lambda: analytics.rank_locations(corpus, cfg.rank_top, "stated")
        )
        devices = _run_stage(
            "report",
            lambda: analytics.device_group_report(corpus, analysis.cleaned, cfg.device_categories),
        )
        daily = _run_stage("report", lambda: analytics.daily_emotion_series(corpus, profiles))
        dist = _run_stage("distribution", lambda: analytics.polarity_distribution(scores))
        extreme_pair = _run_stage("distribution", lambda: polarity.extremes(scores))

        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []

        def emit(name: str, writer) -> None:
            path = out_dir / name
            writer(path)
            written.append(path)

        manifest = RunManifest(
            config=asdict(cfg),
            stages={
                "provenance": corpus.provenance.to_dict(),
                "records_final": len(corpus.records),
                "mask": {
                    "distinct_terms": analysis.ledger.counter,
                    "occurrences": analysis.ledger.occurrences,
                },
            },
        )

        manifest_path = out_dir / "manifest.json"
        try:
            emit("provenance.json", lambda p: write_json(corpus.provenance.to_dict(), p))
            emit("filtered_corpus.jsonl", lambda p: write_corpus_jsonl(corpus, p))
            for n in (1, 2, 3, 4):
                emit(f"ngrams_{n}.csv", lambda p, n=n: ngram_table_to_csv(tables[n], p, cfg.ngram_top))
            emit("wordcloud.json", lambda p: write_json(word_cloud_to_dict(cloud), p))
            emit("mentions.csv", lambda p: ranked_table_to_csv(mentions, p))
            emit("hashtags.csv", lambda p: ranked_table_to_csv(hashtags, p))
            emit("locations_tagged.csv", lambda p: ranked_table_to_csv(loc_tagged, p))
            emit("locations_stated.csv", lambda p: ranked_table_to_csv(loc_stated, p))
            emit("devices.json", lambda p: write_json(device_report_to_dict(devices), p))
            emit("emotion_totals.json", lambda p: write_json(totals.to_dict(), p))
            emit("emotion_daily.csv", lambda p: daily_series_to_csv(daily, p))
            emit("polarity_scores.csv", lambda p: scores_to_csv(corpus, scores, p))
            emit(
                "distribution.json",
                lambda p: write_json(distribution_to_dict(dist, totals, extreme_pair), p),
            )
            for path in written:
                manifest.outputs[path.name] = _sha256(path)
            with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except Exception as exc:
            for path in written:
                path.unlink(missing_ok=True)
            manifest_path.unlink(missing_ok=True)
            raise PipelineStageError("write", exc) from exc

        return manifest

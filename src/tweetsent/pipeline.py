"""End-to-end run: ingest, filter, mask, tokenize, analyze, write reports.

Stage order: load -> date_range -> keyword -> country -> bot/duplicate
removal -> abusive masking -> tokenization -> stopword removal -> n-gram
tables, emotion profiles, polarity scores, descriptive reports, and the
scenario-ready sentiment summary.

Stream policy: unigram/bigram tables and emotion classification use the
stopword-removed streams; trigram/quadgram tables and polarity scoring use
the full streams, since function words carry both the longer word sequences
and the valence shifters.

`Analysis` composes the text stages, masking to polarity, for `run` and for
the CLI's `ngrams`, `sentiment` and `report`, which read its fields.

A run writes every report plus a manifest (stage counts, config echo,
sha256 per output). Outputs are computed before anything is written and any
write failure removes the files already written, so a failed run leaves no
partial outputs. Identical config and input produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import date
from functools import cached_property
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
    word_cloud_to_dict,
    write_json,
)

VERSION = "0.1.0"


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
    dup_window_seconds: float = 3600.0
    burst_per_minute: int = 10
    min_distinct_tokens: int = 3
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
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv or jsonl, got {self.format!r}")
        if not Path(self.input).exists():
            raise ConfigError(f"input file not found: {self.input}")
        for label in (
            "stopwords_path",
            "abusive_lexicon_path",
            "emotion_lexicon_path",
            "polarity_lexicon_path",
            "shifter_lexicon_path",
        ):
            value = getattr(self, label)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"{label} not found: {value}")
        try:
            start, end = self.dates()
        except ValueError as exc:
            raise ConfigError(f"bad date: {exc}") from exc
        if start > end:
            raise ConfigError(f"start_date {start} after end_date {end}")
        if not self.keyword:
            raise ConfigError("keyword must be non-empty")
        if not (len(self.country) == 2 and self.country.isalpha()):
            raise ConfigError(f"country must be a two-letter code, got {self.country!r}")
        if not 0 <= self.window_before <= 20 or not 0 <= self.window_after <= 20:
            raise ConfigError("context windows must be in 0..20")
        if not 0 <= self.amplifier_weight <= 2:
            raise ConfigError("amplifier_weight must be in [0, 2]")
        if not 0 <= self.adversative_weight <= 2:
            raise ConfigError("adversative_weight must be in [0, 2]")
        if self.dup_window_seconds < 0:
            raise ConfigError("dup_window_seconds must be >= 0")
        if self.burst_per_minute < 1:
            raise ConfigError("burst_per_minute must be >= 1")
        if self.min_distinct_tokens < 0:
            raise ConfigError("min_distinct_tokens must be >= 0")
        if min(self.ngram_top, self.wordcloud_top, self.rank_top) < 1:
            raise ConfigError("top-k values must be >= 1")

    def dates(self) -> tuple[date, date]:
        return date.fromisoformat(self.start_date), date.fromisoformat(self.end_date)

    def scoring_params(self) -> polarity.ScoringParams:
        return polarity.ScoringParams(
            window_before=self.window_before,
            window_after=self.window_after,
            amplifier_weight=self.amplifier_weight,
            adversative_weight=self.adversative_weight,
        )

    def bot_policy(self) -> BotPolicy:
        return BotPolicy(
            dup_window_seconds=self.dup_window_seconds,
            burst_per_minute=self.burst_per_minute,
            min_distinct_tokens=self.min_distinct_tokens,
        )


@dataclass
class RunManifest:
    config: dict
    stages: dict
    outputs: dict[str, str] = field(default_factory=dict)
    version: str = VERSION

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "stages": self.stages,
            "outputs": self.outputs,
            "version": self.version,
        }


def _run_stage(stage: str, fn):
    try:
        return fn()
    except Exception as exc:
        raise PipelineStageError(stage, exc) from exc


def require_records(corpus: Corpus, stage: str) -> None:
    """Stop at the filter that emptied the corpus, before any analysis runs."""
    if not corpus.records:
        raise PipelineStageError(stage, EmptyCorpusError(f"the {stage} filter left no records"))


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
        return [textprep.prepare(t) for t in self._texts]

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
        start, end = cfg.dates()

        corpus = _run_stage("load", lambda: load_corpus(cfg.input, cfg.format))
        corpus = _run_stage("date_range", lambda: filter_date_range(corpus, start, end))
        require_records(corpus, "date_range")
        corpus = _run_stage("keyword", lambda: filter_keyword(corpus, cfg.keyword))
        require_records(corpus, "keyword")
        corpus = _run_stage("country", lambda: filter_country(corpus, cfg.country))
        require_records(corpus, "country")
        corpus = _run_stage(
            "bots", lambda: filter_bots_and_duplicates(corpus, cfg.bot_policy())
        )
        require_records(corpus, "bots")

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
            emit(
                "polarity_scores.csv",
                lambda p: _write_scores(corpus, scores, p),
            )
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


def _write_scores(corpus: Corpus, scores, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["status_id", "value", "n_sentences", "label"])
        for record, score in zip(corpus.records, scores):
            writer.writerow(
                [record.id, score.value, score.n_sentences, polarity.classify_polarity(score)]
            )

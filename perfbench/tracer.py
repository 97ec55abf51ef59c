"""Layer tracer that measures tweetsent from outside the package.

`Tracer.install()` replaces public functions with timing wrappers at the
module attribute where the pipeline and the CLI look them up (for example
`tweetsent.pipeline.load_corpus`, which pipeline.py imported by name, and
`tweetsent.textprep.prepare`, which it calls through the module). The stages
still run in the program's own order; the tracer composes nothing. A site
that no longer exists is listed as unmeasured and its metrics read 0.

Each call becomes a span (name, start, end, parent). Spans of functions
called once per record ("hot") are only summed into per-name totals; the
others are also kept in `spans` and can be written out. A span's self time
is its duration minus the time of its child spans. `run_root` adds one span
that encloses no function: `pipeline.teardown`, the freeing of the run's
working set as `run_pipeline` returns.
"""

from __future__ import annotations

import functools
import importlib
import weakref
import resource
from time import perf_counter
from collections import defaultdict


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _shape(ts) -> tuple[int, int]:
    """(sentences, tokens) of one prepared text: a TokenStream today, or a
    plain list of token sequences if the representation is simplified later."""
    if hasattr(ts, "sentence_boundaries"):
        return len(ts.sentence_boundaries), len(ts.tokens)
    return len(ts), sum(len(s) for s in ts)


# observers turn a call's arguments and result into counters
def _obs_load(counts, args, kwargs, corpus):
    counts["corpus.parsed"] += corpus.provenance.parsed
    counts["corpus.skipped"] += corpus.provenance.skipped
    counts["corpus.maxrss_mb"] = max(counts["corpus.maxrss_mb"], _maxrss_mb())


def _obs_filter(stage):
    def observe(counts, args, kwargs, corpus):
        counts[f"corpus.{stage}.out"] += len(corpus.records)
        if stage == "bots":
            for rule in ("duplicate", "burst", "low_token"):
                counts[f"corpus.bots.{rule}"] += corpus.provenance.filtered.get(rule, 0)

    return observe


def _obs_prepare(counts, args, kwargs, ts):
    sentences, tokens = _shape(ts)
    counts["textprep.sentences"] += sentences
    counts["textprep.tokens"] += tokens


def _obs_table(counts, args, kwargs, table):
    n = table.n
    counts[f"ngrams.n{n}.distinct"] += len(table.entries)
    counts[f"ngrams.n{n}.total"] += table.total_grams


def _obs_table_csv(counts, args, kwargs, _):
    table = args[0]
    top = args[2] if len(args) > 2 else kwargs.get("top")
    counts["ngrams.rows_written"] += len(table.entries) if top is None else min(top, len(table.entries))


def _obs_classify(counts, args, kwargs, profile):
    counts["emotion.hits"] += sum(profile.counts.values())


def _obs_score(counts, args, kwargs, score):
    counts["polarity.sentences"] += score.n_sentences


def _ngram_span(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return f"ngrams.n{n}"


P, C = "tweetsent.pipeline", "tweetsent.cli"

# (sites where the function is looked up, attribute, span name, hot, observer)
SITES = [
    ((P, C), "load_corpus", "corpus.load", False, _obs_load),
    ((P, C), "filter_date_range", "corpus.filter", False, _obs_filter("date_range")),
    ((P, C), "filter_keyword", "corpus.filter", False, _obs_filter("keyword")),
    ((P, C), "filter_country", "corpus.filter", False, _obs_filter("country")),
    ((P, C), "filter_bots_and_duplicates", "corpus.bots", False, _obs_filter("bots")),
    ((P, C), "mask_corpus", "corpus.mask", False, None),
    ((P, C), "write_corpus_jsonl", "corpus.write_jsonl", False, None),
    (("tweetsent.textprep",), "load_stoplist", "textprep.lexicon_load", False, None),
    (("tweetsent.textprep",), "load_abusive_lexicon", "textprep.lexicon_load", False, None),
    (("tweetsent.textprep",), "prepare", "textprep.prepare", True, _obs_prepare),
    (("tweetsent.textprep",), "remove_stopwords", "textprep.stopwords", True, None),
    (("tweetsent.ngrams",), "build_table", _ngram_span, False, _obs_table),
    (("tweetsent.ngrams",), "word_cloud_weights", "ngrams.wordcloud", False, None),
    (("tweetsent.emotion",), "load_emotion_lexicon", "emotion.lexicon_load", False, None),
    (("tweetsent.emotion",), "classify", "emotion.classify", True, _obs_classify),
    (("tweetsent.emotion",), "aggregate_profiles", "emotion.aggregate", False, None),
    (("tweetsent.polarity",), "load_polarity_lexicon", "polarity.lexicon_load", False, None),
    (("tweetsent.polarity",), "score_text", "polarity.score", True, _obs_score),
    (("tweetsent.polarity",), "extremes", "polarity.extremes", False, None),
    (("tweetsent.analytics",), "rank_mentions", "analytics.rank", False, None),
    (("tweetsent.analytics",), "rank_hashtags", "analytics.rank", False, None),
    (("tweetsent.analytics",), "rank_locations", "analytics.rank", False, None),
    (("tweetsent.analytics",), "device_group_report", "analytics.devices", False, None),
    (("tweetsent.analytics",), "daily_emotion_series", "analytics.daily", False, None),
    (("tweetsent.analytics",), "polarity_distribution", "analytics.distribution", False, None),
    ((P, C), "write_json", "exports.write", False, None),
    ((P, C), "ngram_table_to_csv", "exports.write", False, _obs_table_csv),
    ((P, C), "ranked_table_to_csv", "exports.write", False, None),
    ((P, C), "daily_series_to_csv", "exports.write", False, None),
    ((P,), "word_cloud_to_dict", "exports.write", False, None),
    ((P, C), "device_report_to_dict", "exports.write", False, None),
    ((P, C), "distribution_to_dict", "exports.write", False, None),
    # the pipeline's own writer of polarity_scores.csv; the one private site
    ((P,), "_write_scores", "exports.write", False, None),
    ((C,), "cmd_sentiment", "cli.sentiment", False, None),
]

# per-layer metrics, in BENCHMARK.json order: (name, unit)
_SPAN_METRICS = [
    ("corpus.load_s", "corpus.load"),
    ("corpus.filter_s", "corpus.filter"),
    ("corpus.bots_s", "corpus.bots"),
    ("corpus.mask_s", "corpus.mask"),
    ("corpus.write_jsonl_s", "corpus.write_jsonl"),
    ("textprep.prepare_s", "textprep.prepare"),
    ("textprep.stopwords_s", "textprep.stopwords"),
    ("textprep.lexicon_load_s", "textprep.lexicon_load"),
    ("ngrams.n1_s", "ngrams.n1"),
    ("ngrams.n2_s", "ngrams.n2"),
    ("ngrams.n3_s", "ngrams.n3"),
    ("ngrams.n4_s", "ngrams.n4"),
    ("ngrams.wordcloud_s", "ngrams.wordcloud"),
    ("emotion.lexicon_load_s", "emotion.lexicon_load"),
    ("emotion.classify_s", "emotion.classify"),
    ("emotion.aggregate_s", "emotion.aggregate"),
    ("polarity.lexicon_load_s", "polarity.lexicon_load"),
    ("polarity.score_s", "polarity.score"),
    ("polarity.extremes_s", "polarity.extremes"),
    ("analytics.rank_s", "analytics.rank"),
    ("analytics.devices_s", "analytics.devices"),
    ("analytics.daily_s", "analytics.daily"),
    ("analytics.distribution_s", "analytics.distribution"),
    ("exports.write_s", "exports.write"),
    ("cli.sentiment_s", "cli.sentiment"),
    ("pipeline.teardown_s", "pipeline.teardown"),
]
_OTHER_METRICS = [
    ("corpus.parsed", "count"),
    ("corpus.skipped", "count"),
    ("corpus.date_range.out", "count"),
    ("corpus.keyword.out", "count"),
    ("corpus.country.out", "count"),
    ("corpus.bots.out", "count"),
    ("corpus.bots.duplicate", "count"),
    ("corpus.bots.burst", "count"),
    ("corpus.bots.low_token", "count"),
    ("corpus.maxrss_mb", "MB"),
    ("textprep.prepare.calls", "count"),
    ("textprep.tokens", "count"),
    ("textprep.sentences", "count"),
    ("ngrams.n3.distinct", "count"),
    ("ngrams.n4.distinct", "count"),
    ("ngrams.n4.total", "count"),
    ("ngrams.top_share", "ratio"),
    ("emotion.hits", "count"),
    ("polarity.sentences", "count"),
    ("pipeline.self_s", "s"),
    ("cli.self_s", "s"),
    ("pipeline.coverage", "ratio"),
]
# filled in by the benchmark runner, not by the tracer
RUNNER_METRICS = [
    ("pipeline.output_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("run.wall_s", "s"),
    ("host.calibration_s", "s"),
]
PER_LAYER = [(name, "s") for name, _ in _SPAN_METRICS] + _OTHER_METRICS + RUNNER_METRICS


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [id, name, start, child_s]
        self._next_id = 0
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, float] = defaultdict(float)
        self.unmeasured: list[str] = []
        self._failed: set = set()

    def install(self) -> None:
        for modules, attr, span, hot, observe in SITES:
            for module_name in modules:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.unmeasured.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(fn, span, hot, observe))

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        span_id, name, start, child_s = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        return duration

    def _observe(self, observe, fn, args, kwargs, result) -> None:
        if observe is None or observe in self._failed:
            return
        try:
            observe(self.counts, args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            # the program's types changed: report, stop observing, keep running
            self._failed.add(observe)
            self.unmeasured.append(f"counters of {fn.__qualname__}")

    def _wrap(self, fn, span, hot, observe):
        if hot:
            # called once per record: no span records and no stack push; the
            # observer's time is booked to neither the layer nor its caller
            total = self.totals[span]
            stack = self._stack

            @functools.wraps(fn)
            def traced_hot(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                duration = perf_counter() - start
                total[0] += 1
                total[1] += duration
                total[2] += duration
                self._observe(observe, fn, args, kwargs, result)
                if stack:
                    stack[-1][3] += perf_counter() - start
                return result

            return traced_hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(span(args, kwargs) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            self._observe(observe, fn, args, kwargs, result)
            return result

        return traced

    def run_root(self, name: str, fn, make_arg):
        """Call fn(make_arg()) as the root span; returns (result, seconds).

        The argument is handed over without the tracer keeping a reference,
        so (on CPython 3.11 and later, which moves call arguments into the
        callee's frame) the root function's frame holds the last one and
        releases it first when it is torn down on return. A finalizer on the
        argument marks that moment; from there to the return is the
        `pipeline.teardown` span: freeing the run's working set, which no
        function of the program encloses.
        """
        box = [make_arg()]
        freed: list[float] = []
        try:
            weakref.finalize(box[0], lambda: freed.append(perf_counter()))
            watched = True
        except TypeError:  # not weak-referenceable, such as the CLI's argv list
            watched = False
        frame = self._open(name)
        try:
            result = fn(box.pop())
        finally:
            duration = self._close(frame)
        root_id, start = frame[0], frame[2]
        end = start + duration
        last_child = max((s[4] for s in self.spans if s[1] == root_id), default=start)
        if freed and last_child <= freed[0] <= end:
            teardown = end - freed[0]
            self.spans.append((self._next_id, root_id, "pipeline.teardown", freed[0], end))
            self.totals["pipeline.teardown"] = [1, teardown, teardown]
            self.totals[name][2] -= teardown
        elif watched:
            self.unmeasured.append("pipeline.teardown")
        return result, duration

    def metrics(self, root: str, run_s: float) -> dict[str, float]:
        """Per-layer values of one traced run whose root span is `root`."""

        def total(span: str, field: int = 1) -> float:  # field: 0 calls, 1 total, 2 self
            return float(self.totals[span][field]) if span in self.totals else 0.0

        values = {metric: total(span) for metric, span in _SPAN_METRICS}
        values.update({name: float(self.counts.get(name, 0)) for name, _ in _OTHER_METRICS})
        values["textprep.prepare.calls"] = total("textprep.prepare", 0)
        distinct = sum(self.counts.get(f"ngrams.n{n}.distinct", 0) for n in (1, 2, 3, 4))
        if distinct:
            values["ngrams.top_share"] = self.counts.get("ngrams.rows_written", 0) / distinct
        root_self = total(root, 2)
        if root == "pipeline.run":
            values["pipeline.self_s"] = root_self
        else:
            values["cli.self_s"] = root_self + total("cli.sentiment", 2)
        values["pipeline.coverage"] = (run_s - root_self) / run_s
        return values

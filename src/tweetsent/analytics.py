"""Descriptive, grouped, and temporal aggregations over a filtered corpus.

Covers mention/hashtag/location rankings, device-grouped keyword ratios
(normalized within each device group so unequal group sizes stay
comparable), the daily emotion-share series, and the signed-score
distribution with its positive/negative/neutral split. Each report is the
JSON value that `run` and `report` write; `exports` flattens it to CSV.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import date
from itertools import chain, compress, repeat
from operator import contains

from .corpus import Corpus
from .emotion import EMOTION_CLASSES, EmotionProfile
from .errors import EmptyInputError, InvalidRangeError, SchemaError
from .ngrams import top_entries
from .polarity import PolarityScore, classify_polarity

DEVICE_CLASSES = ("Twitter for iPhone", "Twitter for Android")

# keyword groups behind the device-usage comparison; "abuvs" catches mask tokens
DEFAULT_DEVICE_CATEGORIES: dict[str, list[str]] = {
    "reopen": ["reopen"],
    "business": ["business"],
    "time": ["time"],
    "work": ["work"],
    "trump": ["trump"],
    "politics": ["politic"],
    "covid": ["covid"],
    "economy": ["econom"],
    "abusive": ["abuvs"],
}

HISTOGRAM_BIN_WIDTH = 0.25
MAX_HISTOGRAM_BINS = 2**20


def _ranked(label: str, counter: Counter, k: int) -> dict:
    """`{"label", "rows": [{"rank", "key", "count"}]}`: the `k` >= 1 largest
    counts, in `ngrams.top_entries` order."""
    if k < 1:
        raise InvalidRangeError("k must be >= 1")
    ordered = top_entries(counter, k)
    rows = [{"rank": rank, "key": key, "count": count} for rank, (key, count) in enumerate(ordered, start=1)]
    return {"label": label, "rows": rows}


def rank_mentions(c: Corpus, k: int) -> dict:
    return _ranked("mentions", Counter(chain.from_iterable(r.mentions for r in c.records)), k)


def rank_hashtags(c: Corpus, k: int) -> dict:
    return _ranked("hashtags", Counter(chain.from_iterable(r.hashtags for r in c.records)), k)


def rank_locations(c: Corpus, k: int, field: str = "stated") -> dict:
    """Rank user_location strings verbatim (they are unreliable; no cleanup).

    field="tagged" restricts to country-tagged records, field="stated" uses
    every record with a location string.
    """
    if field not in ("tagged", "stated"):
        raise ValueError(f"field must be 'tagged' or 'stated', got {field!r}")
    counter = Counter(
        r.user_location for r in c.records
        if r.user_location is not None and (field == "stated" or r.country_code is not None)
    )
    return _ranked(f"locations_{field}", counter, k)


def device_group_report(
    c: Corpus, cleaned: list[str], categories: dict[str, list[str]] | None = None
) -> dict:
    """Within-group share of records mentioning each keyword category:
    `{device: {"n_records", "category_ratios": {category: ratio}}}`.

    `cleaned` holds each record's cleaned text (its prepared tokens joined
    by spaces), aligned with the records. Only the two major device classes
    are reported; smaller classes are ignored. A record matches a category
    when its cleaned text contains any of the category's keywords.
    """
    categories = categories if categories is not None else DEFAULT_DEVICE_CATEGORIES
    if not categories:
        raise ValueError("categories must be non-empty")
    if len(cleaned) != len(c.records):
        raise ValueError("cleaned texts must align 1:1 with corpus records")
    per_device: dict[str, list[str]] = {d: [] for d in DEVICE_CLASSES}
    for record, text in zip(c.records, cleaned):
        texts = per_device.get(record.source_device)
        if texts is not None:
            texts.append(text)

    # each distinct text is scanned once for each keyword, in C; a text counts
    # once however many of a category's keywords it holds
    distinct = list(dict.fromkeys(chain.from_iterable(per_device.values())))
    hit_texts = {
        name: set().union(*[compress(distinct, map(contains, distinct, repeat(kw))) for kw in keywords])
        for name, keywords in categories.items()
    }
    groups = {}
    for device, texts in per_device.items():
        n = len(texts)
        ratios = {name: sum(map(hits.__contains__, texts)) / n if n else 0.0 for name, hits in hit_texts.items()}
        groups[device] = {"n_records": n, "category_ratios": ratios}
    return groups


def daily_emotion_series(c: Corpus, profiles: list[EmotionProfile]) -> dict:
    """Per-day share of each emotion class among that day's emotion hits:
    `{"days": [ISO date], "values": {class: [share per day]}}`.

    Days bucket on the UTC calendar date. A day whose records hit no emotion
    terms reports zero for every class.
    """
    if len(profiles) != len(c.records):
        raise ValueError("profiles must align 1:1 with corpus records")
    # one row of class counts per record (the eight classes lead a profile),
    # summed per day column by column
    per_day: dict[date, list[tuple[int, ...]]] = {}
    for record, profile in zip(c.records, profiles):
        per_day.setdefault(record.created_at.date(), []).append(profile[:8])

    days = sorted(per_day)
    values: dict[str, list[float]] = {cls: [] for cls in EMOTION_CLASSES}
    for day in days:
        sums = list(map(sum, zip(*per_day[day])))
        total = sum(sums)
        for cls, count in zip(EMOTION_CLASSES, sums):
            values[cls].append(count / total if total else 0.0)
    return {"days": [day.isoformat() for day in days], "values": values}


def polarity_shares(scores: list[PolarityScore]) -> dict:
    """`{"positive_share", "negative_share", "neutral_share"}` of `scores`, by
    `classify_polarity`."""
    if not scores:
        raise EmptyInputError("distribution over empty score list")
    labels = Counter(map(classify_polarity, scores))
    return {f"{label}_share": labels[label] / len(scores) for label in ("positive", "negative", "neutral")}


def polarity_distribution(scores: list[PolarityScore]) -> dict:
    """Positive/negative/neutral shares, a fixed-width score histogram and the
    extreme scores: `{"positive_share", "negative_share", "neutral_share",
    "histogram": {"lo", "width", "counts"}, "extremes": {"min", "max"}}`.

    Bins are 0.25 wide spanning [floor(min), ceil(max)]; a value equal to the
    upper edge lands in the last bin. More than MAX_HISTOGRAM_BINS bins is
    a `SchemaError`. Of tied extreme values the first is kept: an int 0 (a
    text without sentences) ahead of a float 0.0 writes as 0.
    """
    shares = polarity_shares(scores)
    values = [s.value for s in scores]
    low, high = min(values), max(values)
    lo = float(math.floor(low))
    hi = float(math.ceil(high))
    span = (hi - lo) / HISTOGRAM_BIN_WIDTH
    if span > MAX_HISTOGRAM_BINS:
        raise SchemaError(f"scores from {lo} to {hi} need more than {MAX_HISTOGRAM_BINS} histogram bins")
    n_bins = max(1, round(span))
    counts = [0] * n_bins
    for v in values:
        idx = min(int((v - lo) / HISTOGRAM_BIN_WIDTH), n_bins - 1)
        counts[idx] += 1

    return {
        **shares,
        "histogram": {"lo": lo, "width": HISTOGRAM_BIN_WIDTH, "counts": counts},
        "extremes": {"min": low, "max": high},
    }

"""Four-quadrant outcome mapping: sentiment trend direction x reopening timing.

Timing is an exogenous input (the analysis holds everything else equal);
the trend direction comes solely from comparing positive and negative
shares, with the dominant emotion classes attached as advisory metadata.
A trend is read from a distribution report (`trend_from_report`): the one
a run wrote, or the same dict from `pipeline.Analysis.distribution`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .emotion import ALL_CATEGORIES, EmotionProfile, dominant_classes
from .errors import SchemaError, TiedTrendError

TIMINGS = ("now", "later")


@dataclass
class SentimentTrend:
    direction: str  # "positive" | "negative"
    pos_share: float
    neg_share: float
    dominant_emotions: list[str]


_SCENARIOS = {
    ("positive", "now"): ("S1", "positive sentiment trend, reopen now", "a"),
    ("positive", "later"): ("S2", "positive sentiment trend, reopen later", "b"),
    ("negative", "now"): ("S3", "negative sentiment trend, reopen now", "c"),
    ("negative", "later"): ("S4", "negative sentiment trend, reopen later", "d"),
}


def trend_from_report(report) -> SentimentTrend:
    """The trend of a distribution report (`pipeline.Analysis.distribution`).
    The shares `positive_share`, `negative_share` and the optional
    `neutral_share` must be numbers, not bools; the optional
    `emotion_totals.counts` must map emotions to non-negative integers (keys
    that are no emotion are ignored, and null stands for an absent object).
    Anything else, or a positive or negative share outside [0, 1], is a
    `SchemaError`; equal shares are a `TiedTrendError`. The dominant emotions
    are the top two classes with at least one hit."""
    if not (isinstance(report, dict) and {"positive_share", "negative_share"} <= report.keys()):
        raise SchemaError("scenario input needs positive_share and negative_share")
    for key in ("positive_share", "negative_share", "neutral_share"):
        value = report.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"scenario input's {key} must be a number, got {value!r}")
    # an absent or null emotion_totals or counts holds no counts; an
    # emotion_totals that is no object is refused as its counts are
    totals = report.get("emotion_totals")
    counts = totals.get("counts") if isinstance(totals, dict) else totals
    counts = {} if counts is None else counts
    if not (isinstance(counts, dict) and all(type(v) is int and v >= 0 for v in counts.values())):
        raise SchemaError(
            "scenario input's emotion_totals.counts must map emotions to non-negative integers"
        )
    profile = EmotionProfile(**{c: v for c, v in counts.items() if c in ALL_CATEGORIES})
    pos_share, neg_share = report["positive_share"], report["negative_share"]
    for key, share in (("positive_share", pos_share), ("negative_share", neg_share)):
        if not 0.0 <= share <= 1.0:  # false for NaN too
            raise SchemaError(f"{key} must be a share in [0, 1], got {share}")
    if pos_share == neg_share:
        raise TiedTrendError(f"positive and negative shares tie at {pos_share}")
    return SentimentTrend(
        direction="positive" if pos_share > neg_share else "negative",
        pos_share=float(pos_share),
        neg_share=float(neg_share),
        dominant_emotions=[cls for cls, count in dominant_classes(profile, 2) if count > 0],
    )


def load_trend(path) -> SentimentTrend:
    """`trend_from_report` of the file at `path`; not UTF-8 JSON is a `SchemaError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise SchemaError(f"scenario input is not valid UTF-8 JSON: {exc}") from exc
    return trend_from_report(report)


def classify_scenario(trend: SentimentTrend, timing: str) -> dict:
    """The scenario of `trend` and `timing`, with the inputs it came from, as
    the `scenario` command prints it."""
    if timing not in TIMINGS:
        raise ValueError(f"timing must be one of {TIMINGS}, got {timing!r}")
    sid, label, key = _SCENARIOS[(trend.direction, timing)]
    inputs = {"pos_share": trend.pos_share, "neg_share": trend.neg_share, "timing": timing}
    inputs["dominant_emotions"] = trend.dominant_emotions
    return {"id": sid, "label": label, "narrative_key": key, "inputs": inputs}

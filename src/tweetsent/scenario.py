"""Four-quadrant outcome mapping: sentiment trend direction x reopening timing.

Timing is an exogenous input (the analysis holds everything else equal);
the trend direction comes solely from comparing positive and negative
shares, with the dominant emotion classes attached as advisory metadata.
A trend comes from a run's analysis (`derive_trend`) or from the
distribution report the run wrote (`trend_from_report`); both agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .analytics import PolarityDistribution
from .emotion import ALL_CATEGORIES, EmotionProfile, dominant_classes
from .errors import SchemaError, TiedTrendError

TIMINGS = ("now", "later")


@dataclass
class SentimentTrend:
    direction: str  # "positive" | "negative"
    pos_share: float
    neg_share: float
    dominant_emotions: list[str]


@dataclass
class ScenarioOutcome:
    id: str
    label: str
    narrative_key: str


_SCENARIOS = {
    ("positive", "now"): ("S1", "positive sentiment trend, reopen now", "a"),
    ("positive", "later"): ("S2", "positive sentiment trend, reopen later", "b"),
    ("negative", "now"): ("S3", "negative sentiment trend, reopen now", "c"),
    ("negative", "later"): ("S4", "negative sentiment trend, reopen later", "d"),
}


def derive_trend(dist: PolarityDistribution, agg: EmotionProfile) -> SentimentTrend:
    """Trend direction from the share comparison: equal shares are a `TiedTrendError`
    and a positive or negative share outside [0, 1] a `SchemaError`. The
    dominant emotions are the top two classes with at least one hit."""
    return _trend(dist.pos_share, dist.neg_share, agg)


def _trend(pos_share: float, neg_share: float, agg: EmotionProfile, names=("pos_share", "neg_share")) -> SentimentTrend:
    for name, share in zip(names, (pos_share, neg_share)):
        if not 0.0 <= share <= 1.0:  # false for NaN too
            raise SchemaError(f"{name} must be a share in [0, 1], got {share}")
    if pos_share == neg_share:
        raise TiedTrendError(f"positive and negative shares tie at {pos_share}")
    return SentimentTrend(
        direction="positive" if pos_share > neg_share else "negative",
        pos_share=float(pos_share),
        neg_share=float(neg_share),
        dominant_emotions=[cls for cls, count in dominant_classes(agg, 2) if count > 0],
    )


def trend_from_report(report) -> SentimentTrend:
    """The trend of a report made by `exports.distribution_to_dict`. The
    shares `positive_share`, `negative_share` and the optional `neutral_share`
    must be numbers, not bools; the optional `emotion_totals.counts` must map
    emotions to non-negative integers (keys that are no emotion are ignored).
    Anything else is a `SchemaError`."""
    if not (isinstance(report, dict) and {"positive_share", "negative_share"} <= report.keys()):
        raise SchemaError("scenario input needs positive_share and negative_share")
    for key in ("positive_share", "negative_share", "neutral_share"):
        value = report.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"scenario input's {key} must be a number, got {value!r}")
    totals = report.get("emotion_totals") or {}
    counts = (totals.get("counts") or {}) if isinstance(totals, dict) else None
    if not (isinstance(counts, dict) and all(type(v) is int and v >= 0 for v in counts.values())):
        raise SchemaError(
            "scenario input's emotion_totals.counts must map emotions to non-negative integers"
        )
    profile = EmotionProfile(**{c: v for c, v in counts.items() if c in ALL_CATEGORIES})
    keys = "positive_share", "negative_share"
    return _trend(report[keys[0]], report[keys[1]], profile, keys)


def load_trend(path) -> SentimentTrend:
    """`trend_from_report` of the file at `path`; not UTF-8 JSON is a `SchemaError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise SchemaError(f"scenario input is not valid UTF-8 JSON: {exc}") from exc
    return trend_from_report(report)


def classify_scenario(trend: SentimentTrend, timing: str) -> ScenarioOutcome:
    if timing not in TIMINGS:
        raise ValueError(f"timing must be one of {TIMINGS}, got {timing!r}")
    sid, label, key = _SCENARIOS[(trend.direction, timing)]
    return ScenarioOutcome(id=sid, label=label, narrative_key=key)

"""Four-quadrant outcome mapping: sentiment trend direction x reopening timing.

Timing is an exogenous input (the analysis holds everything else equal);
the trend direction comes solely from comparing positive and negative
shares, with the dominant emotion classes attached as advisory metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import PolarityDistribution
from .emotion import EmotionProfile, dominant_classes
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
    """Trend direction from the share comparison; equal shares are an error
    the caller must resolve, and a positive or negative share outside
    [0, 1] is refused.

    The dominant emotions are the top two classes with at least one hit.
    """
    for name in ("pos_share", "neg_share"):
        share = getattr(dist, name)
        if not 0.0 <= share <= 1.0:  # false for NaN too
            raise SchemaError(f"{name} must be a share in [0, 1], got {share}")
    if dist.pos_share == dist.neg_share:
        raise TiedTrendError(
            f"positive and negative shares tie at {dist.pos_share}"
        )
    direction = "positive" if dist.pos_share > dist.neg_share else "negative"
    dominant = [cls for cls, count in dominant_classes(agg, 2) if count > 0]
    return SentimentTrend(
        direction=direction,
        pos_share=dist.pos_share,
        neg_share=dist.neg_share,
        dominant_emotions=dominant,
    )


def classify_scenario(trend: SentimentTrend, timing: str) -> ScenarioOutcome:
    if timing not in TIMINGS:
        raise ValueError(f"timing must be one of {TIMINGS}, got {timing!r}")
    sid, label, key = _SCENARIOS[(trend.direction, timing)]
    return ScenarioOutcome(id=sid, label=label, narrative_key=key)

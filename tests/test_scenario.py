from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent.analytics import Histogram, PolarityDistribution
from tweetsent.emotion import ALL_CATEGORIES, EmotionProfile
from tweetsent.errors import SchemaError, TiedTrendError
from tweetsent.exports import distribution_to_dict
from tweetsent.polarity import PolarityScore
from tweetsent.scenario import SentimentTrend, classify_scenario, derive_trend, trend_from_report


def _dist(pos, neg):
    return PolarityDistribution(
        pos_share=pos,
        neg_share=neg,
        neu_share=1.0 - pos - neg,
        histogram=Histogram(lo=0.0, width=0.25, counts=[]),
    )


def _trust_anticipation_profile():
    return EmotionProfile(trust=40, anticipation=30, fear=10)


def test_positive_trend_with_dominant_emotions():
    trend = derive_trend(_dist(0.4827, 0.3682), _trust_anticipation_profile())
    assert trend.direction == "positive"
    assert trend.dominant_emotions == ["trust", "anticipation"]
    assert trend.pos_share == 0.4827


def test_negative_trend():
    assert derive_trend(_dist(0.2, 0.5), EmotionProfile()).direction == "negative"


def test_tied_trend_raises():
    with pytest.raises(TiedTrendError):
        derive_trend(_dist(0.4, 0.4), EmotionProfile())


@pytest.mark.parametrize(
    "pos,neg", [(float("nan"), 0.3), (0.3, float("nan")), (-0.5, 0.3), (0.3, 1.5), (float("inf"), 0.0)]
)
def test_share_outside_unit_interval_rejected(pos, neg):
    with pytest.raises(SchemaError):
        derive_trend(_dist(pos, neg), EmotionProfile())


def test_out_of_range_share_is_named_by_its_field():
    # derive_trend names the distribution's field, trend_from_report the report's key
    with pytest.raises(SchemaError, match=r"^pos_share must be a share in \[0, 1\], got 1.5$"):
        derive_trend(_dist(1.5, 0.3), EmotionProfile())
    with pytest.raises(SchemaError, match=r"^negative_share must be a share in \[0, 1\], got -0.5$"):
        trend_from_report({"positive_share": 0.3, "negative_share": -0.5})


def test_no_dominant_emotions_without_hits():
    assert derive_trend(_dist(0.5, 0.3), EmotionProfile()).dominant_emotions == []


def test_dominant_emotions_skip_classes_without_hits():
    p = EmotionProfile(fear=2)
    assert derive_trend(_dist(0.2, 0.5), p).dominant_emotions == ["fear"]


def test_direction_depends_only_on_ordering():
    base = derive_trend(_dist(0.3, 0.2), EmotionProfile())
    scaled = derive_trend(_dist(0.6, 0.4), EmotionProfile())
    assert base.direction == scaled.direction == "positive"


@pytest.mark.parametrize(
    "direction,timing,sid,key",
    [
        ("positive", "now", "S1", "a"),
        ("positive", "later", "S2", "b"),
        ("negative", "now", "S3", "c"),
        ("negative", "later", "S4", "d"),
    ],
)
def test_scenario_quadrants(direction, timing, sid, key):
    trend = SentimentTrend(direction=direction, pos_share=0.5, neg_share=0.3, dominant_emotions=[])
    outcome = classify_scenario(trend, timing)
    assert outcome.id == sid
    assert outcome.narrative_key == key
    assert direction in outcome.label and timing in outcome.label


def test_mapping_is_bijective():
    seen = set()
    for direction in ("positive", "negative"):
        for timing in ("now", "later"):
            trend = SentimentTrend(direction, 0.5, 0.3, [])
            seen.add(classify_scenario(trend, timing).id)
    assert seen == {"S1", "S2", "S3", "S4"}


def test_invalid_timing_rejected():
    trend = SentimentTrend("positive", 0.5, 0.3, [])
    with pytest.raises(ValueError):
        classify_scenario(trend, "whenever")


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from(["now", "later"]),
)
def test_classify_scenario_pure_and_total(pos, neg, timing):
    if pos == neg:
        with pytest.raises(TiedTrendError):
            derive_trend(_dist(pos, neg), EmotionProfile())
        return
    trend = derive_trend(_dist(pos, neg), EmotionProfile())
    first = classify_scenario(trend, timing)
    second = classify_scenario(trend, timing)
    assert first == second
    assert first.id in {"S1", "S2", "S3", "S4"}


def _trend_or_error(derive, *args):
    try:
        return derive(*args)
    except (SchemaError, TiedTrendError) as exc:
        return type(exc), str(exc)


# shares on both sides of [0, 1], with NaN, and often equal
_SHARE = st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan])


@settings(max_examples=300, deadline=None)
@given(
    _SHARE,
    _SHARE,
    st.floats(allow_nan=True),
    st.lists(st.integers(min_value=0, max_value=50), min_size=10, max_size=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_trend_from_report_reads_back_the_trend_of_the_report(pos, neg, neu, counts, tokens):
    dist = PolarityDistribution(pos, neg, neu, Histogram(lo=-1.0, width=0.25, counts=[3, 0, 2]))
    totals = EmotionProfile(**dict(zip(ALL_CATEGORIES, counts)), token_total=tokens)
    low, high = PolarityScore(-0.5, 1), PolarityScore(0.75, 2)
    report = distribution_to_dict(dist, totals, (low, high))
    want = _trend_or_error(derive_trend, dist, totals)
    if isinstance(want, tuple):  # the report names a share by its own key
        kind, message = want
        keys = {"pos_share": "positive_share", "neg_share": "negative_share"}
        want = kind, re.sub(r"^(pos|neg)_share", lambda m: keys[m[0]], message)
    assert _trend_or_error(trend_from_report, report) == want


@pytest.mark.parametrize("report", [[0.6, 0.3], {"positive_share": 0.6}, "0.6"])
def test_trend_from_report_needs_an_object_with_both_shares(report):
    with pytest.raises(SchemaError, match="needs positive_share and negative_share"):
        trend_from_report(report)

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scenario_trend
from tweetsent.emotion import ALL_CATEGORIES, EMOTION_CLASSES
from tweetsent.errors import SchemaError, TiedTrendError
from tweetsent.scenario import SentimentTrend, classify_scenario, trend_from_report


def _report(pos, neg, **counts):
    return {"positive_share": pos, "negative_share": neg, "emotion_totals": {"counts": counts}}


def test_positive_trend_with_dominant_emotions():
    trend = trend_from_report(_report(0.4827, 0.3682, trust=40, anticipation=30, fear=10))
    assert trend.direction == "positive"
    assert trend.dominant_emotions == ["trust", "anticipation"]
    assert trend.pos_share == 0.4827


def test_negative_trend():
    assert trend_from_report(_report(0.2, 0.5)).direction == "negative"


def test_tied_trend_raises():
    with pytest.raises(TiedTrendError):
        trend_from_report(_report(0.4, 0.4))


@pytest.mark.parametrize(
    "pos,neg", [(float("nan"), 0.3), (0.3, float("nan")), (-0.5, 0.3), (0.3, 1.5), (float("inf"), 0.0)]
)
def test_share_outside_unit_interval_rejected(pos, neg):
    with pytest.raises(SchemaError):
        trend_from_report(_report(pos, neg))


def test_out_of_range_share_is_named_by_its_field():
    with pytest.raises(SchemaError, match=r"^positive_share must be a share in \[0, 1\], got 1.5$"):
        trend_from_report({"positive_share": 1.5, "negative_share": 0.3})
    with pytest.raises(SchemaError, match=r"^negative_share must be a share in \[0, 1\], got -0.5$"):
        trend_from_report({"positive_share": 0.3, "negative_share": -0.5})


def test_no_dominant_emotions_without_hits():
    assert trend_from_report(_report(0.5, 0.3)).dominant_emotions == []


def test_dominant_emotions_skip_classes_without_hits():
    assert trend_from_report(_report(0.2, 0.5, fear=2)).dominant_emotions == ["fear"]


def test_direction_depends_only_on_ordering():
    base = trend_from_report(_report(0.3, 0.2))
    scaled = trend_from_report(_report(0.6, 0.4))
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
    assert outcome["id"] == sid
    assert outcome["narrative_key"] == key
    assert direction in outcome["label"] and timing in outcome["label"]


def test_mapping_is_bijective():
    seen = set()
    for direction in ("positive", "negative"):
        for timing in ("now", "later"):
            trend = SentimentTrend(direction, 0.5, 0.3, [])
            seen.add(classify_scenario(trend, timing)["id"])
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
            trend_from_report(_report(pos, neg))
        return
    trend = trend_from_report(_report(pos, neg))
    first = classify_scenario(trend, timing)
    second = classify_scenario(trend, timing)
    assert first == second
    assert first["id"] in {"S1", "S2", "S3", "S4"}


def _trend_or_error(report):
    try:
        trend = trend_from_report(report)
    except (SchemaError, TiedTrendError) as exc:
        return type(exc).__name__, str(exc)
    return trend.direction, trend.pos_share, trend.neg_share, trend.dominant_emotions


# shares on both sides of [0, 1], with NaN, and often equal
_SHARE = st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan])


@settings(max_examples=300, deadline=None)
@given(
    _SHARE,
    _SHARE,
    st.floats(allow_nan=True),
    st.dictionaries(
        st.sampled_from(ALL_CATEGORIES + ("other",)), st.integers(min_value=0, max_value=50)
    ),
    st.integers(min_value=0, max_value=10_000),
)
def test_trend_from_report_reads_back_the_trend_of_the_report(pos, neg, neu, counts, tokens):
    # a report in the layout of distribution.json
    report = {
        "positive_share": pos,
        "negative_share": neg,
        "neutral_share": neu,
        "histogram": {"lo": -1.0, "width": 0.25, "counts": [3, 0, 2]},
        "emotion_totals": {"counts": counts, "token_total": tokens},
        "extremes": {"min": -0.5, "max": 0.75},
    }
    assert _trend_or_error(report) == scenario_trend(pos, neg, counts, EMOTION_CLASSES)


@pytest.mark.parametrize("report", [[0.6, 0.3], {"positive_share": 0.6}, "0.6"])
def test_trend_from_report_needs_an_object_with_both_shares(report):
    with pytest.raises(SchemaError, match="needs positive_share and negative_share"):
        trend_from_report(report)


@pytest.mark.parametrize("totals", [None, {"counts": None}, {}])
def test_null_or_absent_emotion_counts_hold_no_counts(totals):
    trend = trend_from_report({"positive_share": 0.6, "negative_share": 0.3, "emotion_totals": totals})
    assert (trend.direction, trend.dominant_emotions) == ("positive", [])

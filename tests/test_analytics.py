from __future__ import annotations

import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_record
from oracles import clean_chunk, count_items, daily_shares, device_ratios
from tweetsent.analytics import (
    DEFAULT_DEVICE_CATEGORIES,
    DEVICE_CLASSES,
    daily_emotion_series,
    device_group_report,
    polarity_distribution,
    rank_hashtags,
    rank_locations,
    rank_mentions,
)
from tweetsent.emotion import EMOTION_CLASSES, EmotionProfile, classify
from tweetsent.errors import EmptyInputError, SchemaError
from tweetsent.polarity import PolarityScore
from tweetsent.textprep import prepare, remove_stopwords


def _scores(values):
    return [PolarityScore(v, 1) for v in values]


def _cleaned(text):
    return " ".join(token for sentence in prepare(text) for token in sentence)


def _devices(corpus, categories=None):
    return device_group_report(corpus, [_cleaned(r.text) for r in corpus.records], categories)


def _rows(table):
    """A ranking's rows as (key, count, rank)."""
    return [(row["key"], row["count"], row["rank"]) for row in table["rows"]]


# ---------------------------------------------------------------------------
# rankings


def test_rank_mentions_counts_and_ranks():
    c = make_corpus(
        [
            make_record(rid="1", mentions=["a"]),
            make_record(rid="2", mentions=["a"]),
            make_record(rid="3", mentions=["b"]),
        ]
    )
    assert rank_mentions(c, 2) == {
        "label": "mentions",
        "rows": [{"rank": 1, "key": "a", "count": 2}, {"rank": 2, "key": "b", "count": 1}],
    }


def test_rank_mentions_empty():
    c = make_corpus([make_record(rid="1")])
    assert rank_mentions(c, 5) == {"label": "mentions", "rows": []}


def test_rank_hashtags_two_tags():
    c = make_corpus(
        [
            make_record(rid="1", hashtags=["covid19", "reopen"]),
            make_record(rid="2", hashtags=["covid19"]),
        ]
    )
    assert _rows(rank_hashtags(c, 5)) == [("covid19", 2, 1), ("reopen", 1, 2)]


def test_rank_ties_break_lexicographically():
    c = make_corpus(
        [
            make_record(rid="1", hashtags=["zeta"]),
            make_record(rid="2", hashtags=["alpha"]),
        ]
    )
    assert _rows(rank_hashtags(c, 5)) == [("alpha", 1, 1), ("zeta", 1, 2)]


def test_rank_locations_variants():
    c = make_corpus(
        [
            make_record(rid="1", location="Austin, TX", country="US"),
            make_record(rid="2", location="Austin, TX", country=None),
            make_record(rid="3", location=None, country="US"),
        ]
    )
    stated = rank_locations(c, 5, "stated")
    tagged = rank_locations(c, 5, "tagged")
    assert (stated["label"], _rows(stated)) == ("locations_stated", [("Austin, TX", 2, 1)])
    assert (tagged["label"], _rows(tagged)) == ("locations_tagged", [("Austin, TX", 1, 1)])


@pytest.mark.parametrize("k", [0, -2])
@pytest.mark.parametrize(
    "rank",
    [rank_mentions, rank_hashtags, lambda c, k: rank_locations(c, k, "tagged"), rank_locations],
    ids=["mentions", "hashtags", "locations_tagged", "locations_stated"],
)
def test_rankings_refuse_k_below_1(rank, k):
    # a slice [:k] would keep none of the three rows, or the first one
    c = make_corpus(
        [
            make_record(rid=str(i), location=f"L{i}", hashtags=[f"h{i}"], mentions=[f"m{i}"])
            for i in range(3)
        ]
    )
    with pytest.raises(ValueError, match="k must be >= 1"):
        rank(c, k)


def test_rank_locations_all_absent():
    c = make_corpus([make_record(rid="1", location=None)])
    assert rank_locations(c, 5, "stated")["rows"] == []


def test_rank_locations_bad_field():
    c = make_corpus([make_record(rid="1")])
    with pytest.raises(ValueError):
        rank_locations(c, 5, "geocoded")


def test_rankings_match_count_oracle(synth_corpus):
    mention_counts = count_items([r.mentions for r in synth_corpus.records])
    hashtag_counts = count_items([r.hashtags for r in synth_corpus.records])
    for table, expected in (
        (rank_mentions(synth_corpus, 10_000), mention_counts),
        (rank_hashtags(synth_corpus, 10_000), hashtag_counts),
    ):
        rows = _rows(table)
        assert {key: count for key, count, _ in rows} == expected
        counts = [count for _, count, _ in rows]
        assert counts == sorted(counts, reverse=True)
        assert [rank for *_, rank in rows] == list(range(1, len(rows) + 1))

    location_counts = count_items(
        [[r.user_location] for r in synth_corpus.records if r.user_location is not None]
    )
    table = rank_locations(synth_corpus, 10_000, "stated")
    assert {key: count for key, count, _ in _rows(table)} == location_counts


# pools of four keys, so that ties across the k-th row are frequent; "B" sorts
# before "a", and "a" before "ab"
_TAGS = st.lists(st.sampled_from(["a", "ab", "B", "b"]), max_size=4)
_LOCATIONS = st.none() | st.sampled_from(["Austin, TX", "austin", "Boston", "NYC"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TAGS, _TAGS, _LOCATIONS, st.sampled_from([None, "US"])), max_size=12), st.data())
def test_rankings_cut_at_k_as_the_sorted_count_oracle(rows, data):
    records = [
        make_record(rid=str(i), hashtags=tags, mentions=mentions, location=location, country=country)
        for i, (tags, mentions, location, country) in enumerate(rows)
    ]
    c = make_corpus(records)
    located = [r for r in records if r.user_location is not None]
    cases = [
        (rank_mentions, [r.mentions for r in records]),
        (rank_hashtags, [r.hashtags for r in records]),
        (lambda c, k: rank_locations(c, k, "stated"), [[r.user_location] for r in located]),
        (lambda c, k: rank_locations(c, k, "tagged"), [[r.user_location] for r in located if r.country_code]),
    ]
    for rank, lists in cases:
        counts = count_items(lists)
        k = data.draw(st.integers(1, len(counts) + 1))
        expected = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:k]
        assert [(key, count) for key, count, _ in _rows(rank(c, k))] == expected


# ---------------------------------------------------------------------------
# device grouping


def test_device_ratio_normalized_within_group():
    records = [
        make_record(rid="1", text="reopen the economy", device="Twitter for iPhone"),
        make_record(rid="2", text="the economy matters", device="Twitter for iPhone"),
        make_record(rid="3", text="stay home", device="Twitter for iPhone"),
        make_record(rid="4", text="nothing here", device="Twitter for iPhone"),
        make_record(rid="5", text="reopen now", device="Twitter Web App"),
    ]
    report = _devices(make_corpus(records), {"economy": ["econom"]})
    assert report["Twitter for iPhone"] == {"n_records": 4, "category_ratios": {"economy": 0.5}}
    assert "Twitter Web App" not in report  # smaller classes ignored


def test_device_zero_matches_zero_ratio():
    records = [make_record(rid="1", text="stay home", device="Twitter for Android")]
    report = _devices(make_corpus(records), {"trump": ["trump"]})
    assert report["Twitter for Android"]["category_ratios"]["trump"] == 0.0


def test_device_report_requires_aligned_texts():
    corpus = make_corpus([make_record(rid="1"), make_record(rid="2")])
    with pytest.raises(ValueError):
        device_group_report(corpus, ["reopen now"])


def test_device_report_matches_bruteforce(synth_corpus):
    report = _devices(synth_corpus, DEFAULT_DEVICE_CATEGORIES)
    for device in ("Twitter for iPhone", "Twitter for Android"):
        group = [r for r in synth_corpus.records if r.source_device == device]
        n, ratios = report[device]["n_records"], report[device]["category_ratios"]
        assert n == len(group)
        for name, keywords in DEFAULT_DEVICE_CATEGORIES.items():
            hits = 0
            for r in group:
                cleaned = clean_chunk(r.text)
                if any(kw in cleaned for kw in keywords):
                    hits += 1
            assert ratios[name] == (hits / n if n else 0.0)


def test_device_ratios_invariant_under_group_duplication():
    records = [
        make_record(rid="1", text="reopen the economy", device="Twitter for iPhone"),
        make_record(rid="2", text="stay home", device="Twitter for iPhone"),
    ]
    doubled = records + [
        make_record(rid="3", text="reopen the economy", device="Twitter for iPhone"),
        make_record(rid="4", text="stay home", device="Twitter for iPhone"),
    ]
    categories = {"reopen": ["reopen"]}
    once = _devices(make_corpus(records), categories)
    twice = _devices(make_corpus(doubled), categories)
    assert once["Twitter for iPhone"]["category_ratios"] == twice["Twitter for iPhone"]["category_ratios"]


# ---------------------------------------------------------------------------
# daily series


def test_daily_proportions():
    c = make_corpus(
        [
            make_record(rid="1", created="2020-05-02T01:00:00+00:00"),
            make_record(rid="2", created="2020-05-02T23:00:00+00:00"),
        ]
    )
    series = daily_emotion_series(c, [EmotionProfile(trust=3), EmotionProfile(fear=1)])
    assert series["days"] == ["2020-05-02"]
    assert series["values"]["trust"] == [0.75]
    assert series["values"]["fear"] == [0.25]


def test_daily_zero_hit_day_emits_zeros():
    c = make_corpus([make_record(rid="1", created="2020-05-02T01:00:00+00:00")])
    series = daily_emotion_series(c, [EmotionProfile()])
    assert all(series["values"][cls] == [0.0] for cls in EMOTION_CLASSES)


def test_daily_alignment_required():
    c = make_corpus([make_record(rid="1")])
    with pytest.raises(ValueError):
        daily_emotion_series(c, [])


def test_daily_series_matches_recount(synth_corpus, emo_lex, stoplist):
    profiles = [
        classify(remove_stopwords(prepare(r.text), stoplist), emo_lex)
        for r in synth_corpus.records
    ]
    series = daily_emotion_series(synth_corpus, profiles)
    assert series["days"] == sorted(series["days"])
    assert len(series["days"]) == 9

    # independent recount per day
    by_day = {}
    for record, profile in zip(synth_corpus.records, profiles):
        day = record.created_at.date().isoformat()
        bucket = by_day.setdefault(day, {cls: 0 for cls in EMOTION_CLASSES})
        for cls in EMOTION_CLASSES:
            bucket[cls] += getattr(profile, cls)
    for i, day in enumerate(series["days"]):
        total = sum(by_day[day].values())
        for cls in EMOTION_CLASSES:
            want = by_day[day][cls] / total if total else 0.0
            assert series["values"][cls][i] == want
        if total:
            assert sum(series["values"][cls][i] for cls in EMOTION_CLASSES) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# polarity distribution


def _shares(dist):
    return dist["positive_share"], dist["negative_share"], dist["neutral_share"]


def test_distribution_thirds():
    dist = polarity_distribution(_scores([1.0, -1.0, 0.0]))
    assert dist["positive_share"] == pytest.approx(1 / 3)
    assert dist["negative_share"] == pytest.approx(1 / 3)
    assert dist["neutral_share"] == pytest.approx(1 / 3)


def test_distribution_all_positive():
    dist = polarity_distribution(_scores([0.5, 1.5]))
    assert _shares(dist) == (1.0, 0.0, 0.0)


def test_distribution_empty():
    with pytest.raises(EmptyInputError):
        polarity_distribution([])


def test_histogram_refuses_more_than_2_pow_20_bins_before_allocating():
    # [0, 2**18 + 1] holds 2**20 + 4 quarter-wide bins
    with pytest.raises(SchemaError, match="histogram bins"):
        polarity_distribution(_scores([0.0, 2.0**18 + 0.5]))
    # a span too wide for a float is refused too
    with pytest.raises(SchemaError, match="histogram bins"):
        polarity_distribution(_scores([-1e308, 1e308]))


def test_histogram_of_exactly_2_pow_20_bins():
    dist = polarity_distribution(_scores([0.0, 2.0**18]))
    counts = dist["histogram"]["counts"]
    assert len(counts) == 2**20
    assert (counts[0], counts[-1]) == (1, 1)


def test_distribution_matches_counting_oracle():
    rng = random.Random(11)
    values = [rng.choice([-1.2, -0.3, 0.0, 0.4, 1.1]) for _ in range(500)]
    dist = polarity_distribution(_scores(values))
    n_pos = sum(1 for v in values if v > 0)
    n_neg = sum(1 for v in values if v < 0)
    n_neu = sum(1 for v in values if v == 0)
    assert _shares(dist) == (n_pos / 500, n_neg / 500, n_neu / 500)
    assert abs(sum(_shares(dist)) - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=60),
    st.randoms(use_true_random=False),
)
def test_distribution_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    a = polarity_distribution(_scores(values))
    b = polarity_distribution(_scores(shuffled))
    assert _shares(a) == _shares(b)
    assert a["histogram"]["counts"] == b["histogram"]["counts"]
    assert abs(sum(_shares(a)) - 1.0) < 1e-9


def test_histogram_bins_quarter_width():
    dist = polarity_distribution(_scores([-0.9, -0.1, 0.3, 1.0]))
    hist = dist["histogram"]
    assert hist["lo"] == -1.0
    assert hist["width"] == 0.25
    assert len(hist["counts"]) == 8  # [-1, 1] in 0.25 steps
    assert sum(hist["counts"]) == 4
    assert hist["counts"][-1] == 1  # the value at the top edge lands in the last bin


def test_histogram_degenerate_all_zero():
    dist = polarity_distribution(_scores([0.0, 0.0]))
    assert dist["histogram"]["counts"] == [2]


# ---------------------------------------------------------------------------
# reports against brute-force recounts on random corpora

_WORDS = ["reopen", "reopening", "business", "time", "work", "trump", "economy", "abuvs1", "home", "now"]
_DEVICES = list(DEVICE_CLASSES) + ["Twitter Web App"]


@st.composite
def _device_corpora(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(tuple), max_size=3),
                st.sampled_from(_DEVICES),
            ),
            max_size=15,
        )
    )
    categories = draw(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.lists(st.sampled_from(["reopen", "econom", "work", "time", "abuvs", "zzz", "n ec"]), max_size=3),
            min_size=1,
        )
    )
    records = [make_record(rid=str(i), device=device) for i, (_, device) in enumerate(rows)]
    return make_corpus(records), [sentences for sentences, _ in rows], categories


@settings(max_examples=150, deadline=None)
@given(_device_corpora())
def test_device_report_matches_recount_property(spec):
    # single- and multi-keyword categories, empty keyword lists, empty groups
    corpus, prepared, categories = spec
    texts = [" ".join(" ".join(s) for s in sentences) for sentences in prepared]
    report = device_group_report(corpus, texts, categories)
    assert report == device_ratios(corpus.records, texts, categories, DEVICE_CLASSES)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4 * 24 * 3600),
            st.lists(st.integers(min_value=0, max_value=3), min_size=len(EMOTION_CLASSES), max_size=len(EMOTION_CLASSES)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_daily_series_matches_recount_property(rows):
    records, profiles = [], []
    for i, (offset, counts) in enumerate(rows):
        record = make_record(rid=str(i), created="2020-05-01T00:00:00+00:00")
        record.created_at += timedelta(seconds=offset)
        records.append(record)
        profiles.append(EmotionProfile(**dict(zip(EMOTION_CLASSES, counts))))
    series = daily_emotion_series(make_corpus(records), profiles)
    want = daily_shares(records, profiles, EMOTION_CLASSES)
    assert series["days"] == [day.isoformat() for day in sorted(want)]
    for i, day in enumerate(sorted(want)):
        assert {cls: series["values"][cls][i] for cls in EMOTION_CLASSES} == want[day]

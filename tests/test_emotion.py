from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import emotion_counts
from tweetsent.emotion import (
    ALL_CATEGORIES,
    EMOTION_CLASSES,
    EmotionProfile,
    aggregate_profiles,
    classify,
    dominant_classes,
    load_emotion_lexicon,
)
from tweetsent.errors import SchemaError
from tweetsent.textprep import prepare, remove_stopwords


def _ts(tokens):
    return [tuple(tokens)] if tokens else []


def test_loader_fixture_is_well_formed(emo_lex):
    assert len(emo_lex) >= 150
    assert all(cats for cats in emo_lex.values())
    assert "hope" in emo_lex
    assert emo_lex["hope"] == frozenset({"anticipation", "positive"})


def test_loader_rejects_unknown_category(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("word\tboredom\t1\n")
    with pytest.raises(SchemaError):
        load_emotion_lexicon(path)


def test_loader_rejects_bad_flag(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("word\tjoy\t2\n")
    with pytest.raises(SchemaError):
        load_emotion_lexicon(path)


def test_loader_flag_zero_is_not_membership(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("word\tjoy\t0\nword\ttrust\t1\n")
    lex = load_emotion_lexicon(path)
    assert lex["word"] == frozenset({"trust"})


# ---------------------------------------------------------------------------
# classification


def test_classify_unit_sum(emo_lex):
    profile = classify(_ts(["hope"]), emo_lex)
    assert profile.anticipation == 1
    assert profile.positive == 1
    assert profile.token_total == 1
    assert sum(getattr(profile, c) for c in ALL_CATEGORIES) == 2


def test_classify_mixed_positive_negative(emo_lex):
    # complex enough text scores positive 2 and negative 1 simultaneously
    profile = classify(_ts(["good", "benefit", "bad"]), emo_lex)
    assert profile.positive == 2
    assert profile.negative == 1


def test_classify_no_hits_all_zero(emo_lex):
    profile = classify(_ts(["zzz", "qqq"]), emo_lex)
    assert all(getattr(profile, c) == 0 for c in ALL_CATEGORIES)
    assert profile.token_total == 2
    assert profile._fields == ALL_CATEGORIES + ("token_total",)


def test_classify_repeated_token_counts_occurrences(emo_lex):
    profile = classify(_ts(["fear", "fear"]), emo_lex)
    assert profile.fear == 2
    assert profile.negative == 2


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_sums():
    a = EmotionProfile(trust=1)
    b = EmotionProfile(trust=1)
    total = aggregate_profiles([a, b])
    assert total.trust == 2


def test_aggregate_empty_is_zero():
    total = aggregate_profiles([])
    assert all(getattr(total, c) == 0 for c in ALL_CATEGORIES)
    assert total.token_total == 0


def test_aggregate_matches_column_sum(synth_corpus, emo_lex, stoplist):
    streams = [remove_stopwords(prepare(r.text), stoplist) for r in synth_corpus.records[:100]]
    profiles = [classify(ts, emo_lex) for ts in streams]
    total = aggregate_profiles(profiles)
    for category in ALL_CATEGORIES:
        assert getattr(total, category) == sum(getattr(p, category) for p in profiles)
    assert total.token_total == sum(p.token_total for p in profiles)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 4), min_size=len(ALL_CATEGORIES), max_size=len(ALL_CATEGORIES)),
            st.integers(0, 30),
            st.integers(1, 6),
        ),
        max_size=10,
    )
)
def test_weighted_aggregate_equals_the_expanded_profiles(rows):
    profiles, weights = [], []
    for counts, token_total, weight in rows:
        profile = EmotionProfile(**dict(zip(ALL_CATEGORIES, counts)), token_total=token_total)
        profiles.append(profile)
        weights.append(weight)
    expanded = [p for p, w in zip(profiles, weights) for _ in range(w)]
    total = aggregate_profiles(profiles, weights)
    assert total == aggregate_profiles(expanded)
    for category in ALL_CATEGORIES:
        assert getattr(total, category) == sum(getattr(p, category) for p in expanded)
    assert total.token_total == sum(p.token_total for p in expanded)


def test_aggregate_weights_must_align():
    with pytest.raises(ValueError):
        aggregate_profiles([EmotionProfile(), EmotionProfile()], [1])


def test_classify_matches_bruteforce_per_record(synth_corpus, emo_lex, stoplist):
    for record in synth_corpus.records[:200]:
        sentences = remove_stopwords(prepare(record.text), stoplist)
        profile = classify(sentences, emo_lex)
        tokens = [t for s in sentences for t in s]
        expected = emotion_counts(tokens, emo_lex, ALL_CATEGORIES)
        assert profile == EmotionProfile(**expected, token_total=len(tokens))


# ---------------------------------------------------------------------------
# dominant classes


def test_dominant_top2():
    p = EmotionProfile(trust=5, fear=3)
    assert dominant_classes(p, 2) == [("trust", 5), ("fear", 3)]


def test_dominant_all_zero_tiebreak():
    assert dominant_classes(EmotionProfile(), 1) == [("anger", 0)]


def test_dominant_k8_returns_all_classes():
    p = EmotionProfile(joy=2)
    out = dominant_classes(p, 8)
    assert len(out) == 8
    assert out[0] == ("joy", 2)
    assert {c for c, _ in out} == set(EMOTION_CLASSES)


def test_dominant_excludes_valence_counts():
    p = EmotionProfile(positive=99, trust=1)
    assert dominant_classes(p, 1) == [("trust", 1)]


@pytest.mark.parametrize("k", [0, 9, 10])
def test_dominant_k_outside_the_eight_classes_is_refused(k):
    with pytest.raises(ValueError, match=r"k must be in 1\.\.8"):
        dominant_classes(EmotionProfile(trust=1), k)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=len(ALL_CATEGORIES) + 1, max_size=len(ALL_CATEGORIES) + 1),
    st.integers(1, len(EMOTION_CLASSES)),
)
def test_dominant_classes_rank_by_count_then_class_order(row, k):
    p = EmotionProfile(*row)
    by_key = sorted(
        ((c, getattr(p, c)) for c in EMOTION_CLASSES),
        key=lambda item: (-item[1], EMOTION_CLASSES.index(item[0])),
    )
    assert dominant_classes(p, k) == by_key[:k]


# ---------------------------------------------------------------------------
# properties

_words = st.sampled_from(["hope", "fear", "good", "bad", "zzz", "trust", "the"])


@settings(max_examples=150, deadline=None)
@given(st.lists(_words, max_size=20), st.lists(_words, max_size=20))
def test_classify_additive_over_concatenation(emo_lex, a, b):
    left = classify(_ts(a), emo_lex)
    right = classify(_ts(b), emo_lex)
    merged = classify(_ts(a + b), emo_lex)
    for category in ALL_CATEGORIES:
        assert getattr(merged, category) == getattr(left, category) + getattr(right, category)
    assert merged.token_total == left.token_total + right.token_total


@settings(max_examples=150, deadline=None)
@given(st.lists(_words, max_size=20), st.randoms(use_true_random=False))
def test_classify_permutation_invariant(emo_lex, tokens, rng):
    shuffled = list(tokens)
    rng.shuffle(shuffled)
    assert classify(_ts(tokens), emo_lex) == classify(_ts(shuffled), emo_lex)


@settings(max_examples=150, deadline=None)
@given(st.lists(_words, max_size=20))
def test_removing_non_lexicon_token_is_noop(emo_lex, tokens):
    with_junk = tokens + ["qwxyz"]
    assert classify(_ts(with_junk), emo_lex)[:-1] == classify(_ts(tokens), emo_lex)[:-1]

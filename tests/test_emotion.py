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
    assert len(emo_lex.entries) >= 150
    assert all(cats for cats in emo_lex.entries.values())
    assert "hope" in emo_lex
    assert emo_lex.entries["hope"] == frozenset({"anticipation", "positive"})


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
    assert lex.entries["word"] == frozenset({"trust"})


# ---------------------------------------------------------------------------
# classification


def test_classify_unit_sum(emo_lex):
    profile = classify(_ts(["hope"]), emo_lex)
    assert profile.counts["anticipation"] == 1
    assert profile.counts["positive"] == 1
    assert profile.token_total == 1
    assert sum(profile.counts[c] for c in ALL_CATEGORIES) == 2


def test_classify_mixed_positive_negative(emo_lex):
    # complex enough text scores positive 2 and negative 1 simultaneously
    profile = classify(_ts(["good", "benefit", "bad"]), emo_lex)
    assert profile.counts["positive"] == 2
    assert profile.counts["negative"] == 1


def test_classify_no_hits_all_zero(emo_lex):
    profile = classify(_ts(["zzz", "qqq"]), emo_lex)
    assert all(v == 0 for v in profile.counts.values())
    assert profile.token_total == 2
    assert set(profile.counts) == set(ALL_CATEGORIES)


def test_classify_repeated_token_counts_occurrences(emo_lex):
    profile = classify(_ts(["fear", "fear"]), emo_lex)
    assert profile.counts["fear"] == 2
    assert profile.counts["negative"] == 2


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_sums():
    a = EmotionProfile()
    a.counts["trust"] = 1
    b = EmotionProfile()
    b.counts["trust"] = 1
    total = aggregate_profiles([a, b])
    assert total.counts["trust"] == 2


def test_aggregate_empty_is_zero():
    total = aggregate_profiles([])
    assert all(v == 0 for v in total.counts.values())
    assert total.token_total == 0


def test_aggregate_matches_column_sum(synth_corpus, emo_lex, stoplist):
    streams = [remove_stopwords(prepare(r.text), stoplist) for r in synth_corpus.records[:100]]
    profiles = [classify(ts, emo_lex) for ts in streams]
    total = aggregate_profiles(profiles)
    for category in ALL_CATEGORIES:
        assert total.counts[category] == sum(p.counts[category] for p in profiles)
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
        profile = EmotionProfile(token_total=token_total)
        profile.counts.update(zip(ALL_CATEGORIES, counts))
        profiles.append(profile)
        weights.append(weight)
    expanded = [p for p, w in zip(profiles, weights) for _ in range(w)]
    total = aggregate_profiles(profiles, weights)
    assert total == aggregate_profiles(expanded)
    for category in ALL_CATEGORIES:
        assert total.counts[category] == sum(p.counts[category] for p in expanded)
    assert total.token_total == sum(p.token_total for p in expanded)


def test_aggregate_weights_must_align():
    with pytest.raises(ValueError):
        aggregate_profiles([EmotionProfile(), EmotionProfile()], [1])


def test_classify_matches_bruteforce_per_record(synth_corpus, emo_lex, stoplist):
    for record in synth_corpus.records[:200]:
        sentences = remove_stopwords(prepare(record.text), stoplist)
        profile = classify(sentences, emo_lex)
        tokens = [t for s in sentences for t in s]
        expected = emotion_counts(tokens, emo_lex.entries, ALL_CATEGORIES)
        assert profile.counts == expected


# ---------------------------------------------------------------------------
# dominant classes


def test_dominant_top2():
    p = EmotionProfile()
    p.counts["trust"] = 5
    p.counts["fear"] = 3
    assert dominant_classes(p, 2) == [("trust", 5), ("fear", 3)]


def test_dominant_all_zero_tiebreak():
    assert dominant_classes(EmotionProfile(), 1) == [("anger", 0)]


def test_dominant_k8_returns_all_classes():
    p = EmotionProfile()
    p.counts["joy"] = 2
    out = dominant_classes(p, 8)
    assert len(out) == 8
    assert out[0] == ("joy", 2)
    assert {c for c, _ in out} == set(EMOTION_CLASSES)


def test_dominant_excludes_valence_counts():
    p = EmotionProfile()
    p.counts["positive"] = 99
    p.counts["trust"] = 1
    assert dominant_classes(p, 1) == [("trust", 1)]


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
        assert merged.counts[category] == left.counts[category] + right.counts[category]
    assert merged.token_total == left.token_total + right.token_total


@settings(max_examples=150, deadline=None)
@given(st.lists(_words, max_size=20), st.randoms(use_true_random=False))
def test_classify_permutation_invariant(emo_lex, tokens, rng):
    shuffled = list(tokens)
    rng.shuffle(shuffled)
    assert classify(_ts(tokens), emo_lex).counts == classify(_ts(shuffled), emo_lex).counts


@settings(max_examples=150, deadline=None)
@given(st.lists(_words, max_size=20))
def test_removing_non_lexicon_token_is_noop(emo_lex, tokens):
    with_junk = tokens + ["qwxyz"]
    assert classify(_ts(with_junk), emo_lex).counts == classify(_ts(tokens), emo_lex).counts

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ngram_counts, ranked_ngrams
from tweetsent.errors import InvalidNError
from tweetsent.ngrams import build_table, word_cloud_weights
from tweetsent.textprep import prepare, remove_stopwords


def _text(*sentences):
    return [tuple(s) for s in sentences]


def _grams(sentences, n):
    return dict(build_table([sentences], n))


def _total(table):
    """The number of grams an untruncated table counts."""
    return sum(count for _, count in table)


def test_extract_bigrams_single_sentence():
    assert _grams(_text(["a", "b", "c"]), 2) == {"a b": 1, "b c": 1}


def test_extract_does_not_cross_boundaries():
    assert _grams(_text(["a", "b"], ["c", "d"]), 2) == {"a b": 1, "c d": 1}


def test_extract_short_sentence_empty():
    assert build_table([_text(["a"])], 3) == []


@pytest.mark.parametrize("n", [0, 5, -1])
def test_extract_invalid_n(n):
    with pytest.raises(InvalidNError):
        build_table([_text(["a", "b"])], n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
        min_size=0,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_extract_count_law(sentences, n):
    sentences = [s for s in sentences if s]
    expected = sum(len(s) - n + 1 for s in sentences if len(s) >= n)
    assert _total(build_table([_text(*sentences)], n)) == expected


def test_build_table_counts_and_total():
    table = build_table([_text(["a", "b"]), _text(["a", "b"])], 2)
    assert table == [("a b", 2)]
    assert _total(table) == 2


def test_build_table_lexicographic_tiebreak():
    table = build_table([_text(["a", "b"]), _text(["a", "a"])], 2)
    assert table == [("a a", 1), ("a b", 1)]


def test_build_table_matches_oracle_on_synth(synth_corpus, stoplist):
    full = [prepare(r.text) for r in synth_corpus.records]
    stopped = [remove_stopwords(sentences, stoplist) for sentences in full]
    for n in (1, 2, 3, 4):
        streams = stopped if n <= 2 else full
        table = build_table(streams, n)
        expected = ngram_counts(streams, n)
        assert dict(table) == expected
        assert _total(table) == sum(expected.values())


def test_build_table_deterministic(synth_corpus):
    streams = [prepare(r.text) for r in synth_corpus.records]
    t1 = build_table(streams, 2)
    t2 = build_table(streams, 2)
    assert t1 == t2


def test_unigram_total_equals_token_count(synth_corpus):
    streams = [prepare(r.text) for r in synth_corpus.records]
    table = build_table(streams, 1)
    assert _total(table) == sum(len(s) for sentences in streams for s in sentences)


def test_table_ordering_invariant(synth_corpus):
    streams = [prepare(r.text) for r in synth_corpus.records]
    table = build_table(streams, 2)
    keys = [(-count, gram) for gram, count in table]
    assert keys == sorted(keys)
    assert all(len(gram.split(" ")) == 2 for gram, _ in table)


# ---------------------------------------------------------------------------
# top-k selection


# a small vocabulary so that equal counts, and ties at the cut-off, are common
_TEXT = st.lists(st.lists(st.sampled_from(["a", "b", "c", "ab", "d"]), max_size=7), max_size=3)
_CORPORA = st.lists(_TEXT, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_CORPORA, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=40))
def test_top_k_is_prefix_of_full_order(corpus, n, k):
    texts = [_text(*(s for s in text if s)) for text in corpus]
    full = ngram_counts(texts, n)
    assert build_table(texts, n, top=k) == ranked_ngrams(full, k)
    assert _total(build_table(texts, n)) == sum(full.values())


# distinct texts with record counts; a record count above 1 stands for a
# shared text, so a cut-off often falls inside a tie of weighted counts
_WEIGHTED = st.lists(st.tuples(_TEXT, st.integers(min_value=1, max_value=5)), max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    _WEIGHTED,
    st.integers(min_value=1, max_value=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    st.randoms(use_true_random=False),
)
def test_weighted_table_equals_the_expanded_corpus(weighted, n, top, rng):
    distinct = [_text(*(s for s in text if s)) for text, _ in weighted]
    weights = [w for _, w in weighted]
    records = [text for text, w in zip(distinct, weights) for _ in range(w)]
    rng.shuffle(records)
    table = build_table(distinct, n, top, weights)
    assert table == build_table(records, n, top)
    full = ngram_counts(records, n)
    assert table == ranked_ngrams(full, top)
    assert _total(build_table(distinct, n, None, weights)) == sum(full.values())


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_one_pass_count_equals_the_oracle(n, data):
    # sentences of 0..n+1 tokens, so texts of only short sentences, empty
    # sentences and empty texts are common, and windows that would cross a
    # sentence end are many
    sentence = st.lists(st.sampled_from(["a", "b", "ab", "c"]), max_size=n + 1).map(tuple)
    texts = data.draw(st.lists(st.lists(sentence, max_size=4), max_size=8))
    weights = data.draw(st.lists(st.integers(1, 5), min_size=len(texts), max_size=len(texts)))
    counts = ngram_counts([text for text, w in zip(texts, weights) for _ in range(w)], n)
    full = ranked_ngrams(counts)
    # a cut between two equal counts, when the table has one
    ties = [i for i in range(1, len(full)) if full[i - 1][1] == full[i][1]]
    cuts = st.sampled_from(ties) if ties else st.integers(1, len(full) + 1)
    top = data.draw(st.one_of(st.none(), st.just(0), cuts))
    table = build_table(texts, n, top, weights)
    assert table == full[:top]
    assert _total(build_table(texts, n, None, weights)) == sum(counts.values())
    # joined once ranked: n tokens, also for n = 1
    assert all(type(gram) is str and len(gram.split(" ")) == n for gram, _ in table)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=0x7F))))
def test_prepare_tokens_sort_above_the_space(raw):
    # build_table ranks ties by gram tuples; they sort as the space-joined
    # grams only when every token character sorts above U+0020
    for sentence in prepare(raw):
        assert all(re.fullmatch(r"[a-z0-9']+", token) for token in sentence)


def test_weights_must_align_with_texts():
    with pytest.raises(ValueError):
        build_table([_text(["a", "b"]), _text(["b"])], 1, weights=[2])


def test_top_k_cut_inside_a_tie():
    texts = [_text(["b"], ["a"], ["c"], ["c"])]
    assert build_table(texts, 1, top=2) == [("c", 2), ("a", 1)]


def test_top_none_keeps_every_entry(synth_corpus):
    texts = [prepare(r.text) for r in synth_corpus.records]
    for n in (1, 4):
        table = build_table(texts, n, top=None)
        full = ngram_counts(texts, n)
        assert dict(table) == full
        assert table == ranked_ngrams(full)


# ---------------------------------------------------------------------------
# word cloud weights


def test_word_cloud_normalization():
    table = build_table([_text(["reopen"] * 10 + ["economy"] * 5)], 1)
    assert word_cloud_weights(table, 2) == [
        {"word": "reopen", "weight": 1.0},
        {"word": "economy", "weight": 0.5},
    ]


def test_word_cloud_k_exceeds_vocabulary():
    table = build_table([_text(["a", "b"])], 1)
    assert len(word_cloud_weights(table, 99)) == 2


def test_word_cloud_single_word():
    table = build_table([_text(["reopen"])], 1)
    assert word_cloud_weights(table, 3) == [{"word": "reopen", "weight": 1.0}]


def test_word_cloud_rejects_non_unigram():
    table = build_table([_text(["a", "b"])], 2)
    with pytest.raises(InvalidNError):
        word_cloud_weights(table, 5)


def test_word_cloud_of_an_empty_table_is_empty():
    # an empty table shows no order, so an empty bigram table passes too
    assert word_cloud_weights(build_table([], 1), 5) == []
    assert word_cloud_weights(build_table([_text(["a"])], 2), 5) == []


def test_word_cloud_rejects_k_below_one():
    with pytest.raises(ValueError):
        word_cloud_weights(build_table([_text(["a"])], 1), 0)


def test_word_cloud_weights_in_unit_interval(synth_corpus, stoplist):
    streams = [remove_stopwords(prepare(r.text), stoplist) for r in synth_corpus.records]
    weights = [entry["weight"] for entry in word_cloud_weights(build_table(streams, 1), 100)]
    assert all(0 < w <= 1.0 for w in weights)
    assert weights == sorted(weights, reverse=True)

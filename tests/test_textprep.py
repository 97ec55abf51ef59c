from __future__ import annotations

import re
from functools import partial
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_corpus, make_record
from tweetsent.emotion import load_emotion_lexicon
from tweetsent.pipeline import Analysis
from tweetsent.polarity import load_polarity_lexicon
from tweetsent.synth import ABUSIVE_POOL
from tweetsent.textprep import (
    load_abusive_lexicon,
    load_stoplist,
    mask_pattern,
    mask_text,
    prepare,
    remove_stopwords,
)

# text built from the pieces that the cleaning rules treat specially: URLs
# (with dots), mentions, hashtags, edge and inner apostrophes, runs of
# terminal punctuation, and non-ASCII letters whose lowercase form differs
# in length or leaves combining marks (so the order of the rules shows)
_PIECES = st.sampled_from(
    [
        "https://t.co/ab.cd", "HTTP://X.co/a!b", "www.Example.org/x?y=1", "WwW.A.b", "www.", "ww.x",
        "@gov", "@İstanbul", "@a.b", "@#x", "#Reopen", "#@x", "#",
        "'", "''", "can't", "'quoted'", "x'", "'x", "rock'n'roll",
        ".", "!", "?", "...", "!?!", "..!", " ", "  ", "\n", "\t", "\u00a0",
        "İ", "İstanbul", "e\u0301", "\u0307", "\u212a", "ΑΣ", "ß", "ǅ", "❤️", "1.5",
        "Reopen", "NOW", "the", "economy", "2020", "_", "-", ",",
    ]
)
_TWEET = st.lists(st.one_of(_PIECES, st.text(max_size=3)), max_size=25).map("".join)


def clean(raw: str) -> str:
    """The cleaned words of a text: the tokens of `prepare`, joined."""
    return " ".join(token for sentence in prepare(raw) for token in sentence)


def mask(raw: str, lexicon: set[str], masks: dict[str, str]) -> tuple[str, int]:
    """Mask one text with the pattern of `lexicon`; `masks` is updated in place."""
    return mask_text(raw, mask_pattern(lexicon), masks)


# ---------------------------------------------------------------------------
# cleaning


def test_clean_url_mention_punctuation():
    assert clean("Reopen NOW!! https://t.co/x @gov") == "reopen now"


def test_clean_hash_strip():
    assert clean("#reopen the economy") == "reopen the economy"


def test_clean_empty():
    assert clean("") == ""


def test_clean_keeps_contractions():
    assert clean("It can't happen forever!") == "it can't happen forever"


def test_clean_drops_emoji_and_edge_quotes():
    assert clean("'great' day ❤️") == "great day"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_idempotent(raw):
    once = clean(raw)
    assert clean(once) == once


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_output_alphabet(raw):
    cleaned = clean(raw)
    assert re.fullmatch(r"[a-z0-9' ]*", cleaned)
    assert "  " not in cleaned


# ---------------------------------------------------------------------------
# sentence splitting and tokenization


def test_tokenize_single_sentence():
    assert prepare("reopen the economy") == [("reopen", "the", "economy")]


def test_tokenize_boundaries():
    assert prepare("open now. stay safe.") == [("open", "now"), ("stay", "safe")]


def test_tokenize_empty():
    assert prepare("") == []
    assert prepare("... !? @gov https://t.co/x") == []


def test_prepare_full_path():
    assert prepare("Reopen NOW!! Stay safe @gov https://t.co/ab.cd") == [
        ("reopen", "now"),
        ("stay", "safe"),
    ]


def test_prepare_url_dots_do_not_split_sentences():
    sentences = prepare("check https://x.co/a.b?q=1 reopen plans")
    assert sentences == [("check", "reopen", "plans")]


def test_sentences_view():
    # one token tuple per sentence, in order; empty sentences are dropped
    assert prepare("A b c?! . D") == [("a", "b", "c"), ("d",)]


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_prepare_invariants(raw):
    sentences = prepare(raw)
    assert all(type(s) is tuple and s for s in sentences)
    assert all(t and not re.search(r"\s", t) for s in sentences for t in s)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_TWEET, st.text(max_size=200)))
def test_prepare_matches_multipass_oracle(raw):
    assert prepare(raw) == oracles.prepare(raw)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_TWEET, st.text(max_size=200)), max_size=6))
def test_prepare_with_a_vocab_shares_one_object_per_token(raws):
    # one vocabulary across several texts, as in one analysis
    vocab: dict[str, str] = {}
    for raw in raws:
        sentences = prepare(raw, vocab)
        assert sentences == oracles.prepare(raw)
        assert all(token is vocab[token] for sentence in sentences for token in sentence)
    assert all(token is shared for token, shared in vocab.items())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TWEET, st.text(max_size=200)))
def test_clean_text_joins_prepared_tokens(raw):
    # `clean` joins the prepared tokens; cleaning the whole text at once
    # gives the same words as cleaning per sentence
    assert clean(raw) == oracles.clean_chunk(raw)


# ---------------------------------------------------------------------------
# stopwords


def test_remove_stopwords_basic():
    assert remove_stopwords([("reopen", "the", "economy")], {"the"}) == [("reopen", "economy")]


def test_remove_stopwords_all_gone():
    assert remove_stopwords([("the", "a", "an")], {"the", "a", "an"}) == []


def test_remove_stopwords_empty_stoplist_identity():
    sentences = prepare("open now. stay safe.")
    assert remove_stopwords(sentences, set()) == sentences


def test_remove_stopwords_reindexes_boundaries():
    # a sentence emptied by the stoplist disappears; the others keep their order
    out = remove_stopwords(prepare("the and. reopen now. the end"), {"the", "and"})
    assert out == [("reopen", "now"), ("end",)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(["reopen", "the", "now", "a", "economy"]), max_size=30),
    st.sets(st.sampled_from(["the", "a", "now"])),
)
def test_remove_stopwords_order_and_count(tokens, stoplist):
    out = remove_stopwords([tuple(tokens)] if tokens else [], stoplist)
    kept = [t for t in tokens if t not in stoplist]
    assert out == ([tuple(kept)] if kept else [])  # order preserved
    hits = sum(1 for t in tokens if t in stoplist)
    assert (sum(map(len, out)) == len(tokens)) == (hits == 0)


def test_stoplist_fixture_size(stoplist):
    assert len(stoplist) == 174


# ---------------------------------------------------------------------------
# masking


def test_mask_counter_starts_at_one():
    masks = {}
    masked, hits = mask("you badword01 loser", {"badword01"}, masks)
    assert masked == "you abuvs1 loser"
    assert masks == {"badword01": "abuvs1"}
    assert hits == 1


def test_mask_same_word_same_token():
    text = "badword01 again Badword01!"
    masks = {}
    masked, hits = mask(text, {"badword01"}, masks)
    assert masked == "abuvs1 again abuvs1!"
    assert masks == {"badword01": "abuvs1"}
    assert hits == 2


def test_mask_distinct_words_distinct_tokens():
    masks = {}
    masked, hits = mask("badword02 then badword01 then badword02", {"badword01", "badword02"}, masks)
    assert masked == "abuvs1 then abuvs2 then abuvs1"
    assert list(masks.items()) == [("badword02", "abuvs1"), ("badword01", "abuvs2")]
    assert hits == 3


def test_mask_no_hits_unchanged():
    masks = {}
    assert mask("nothing to see", {"badword01"}, masks) == ("nothing to see", 0)
    assert masks == {}


def test_mask_whole_word_only():
    assert mask("notbadword01here badword01", {"badword01"}, {}) == ("notbadword01here abuvs1", 1)


def test_masking_completeness_on_synthetic_corpus(synth_corpus):
    lexicon = set(ABUSIVE_POOL)
    assert len(lexicon) == 50
    masks = {}
    masked_texts, hits = zip(*(mask(record.text, lexicon, masks) for record in synth_corpus.records))
    scan = re.compile(r"\b(?:" + "|".join(sorted(lexicon)) + r")\b", re.IGNORECASE)
    assert not any(scan.search(t) for t in masked_texts)
    assert sum(hits) > 0  # the generator did plant some


# raw texts that several words of the lexicon hit, also more than once, and
# that differ only in the case of a hit, so two raw texts mask alike
_MASK_LEXICON = {"badword01", "badword02", "bad"}
_MASK_TEXTS = st.lists(
    st.sampled_from(["badword01", "BadWord01", "badword02", "BAD", "bad", "badword", "now", " ", "!"]),
    max_size=8,
).map(" ".join)


@pytest.fixture(scope="module")
def abusive_files(tmp_path_factory) -> dict[str, str]:
    """An abusive-lexicon file per name, written once for the module."""
    folder = tmp_path_factory.mktemp("abusive")
    files = {}
    for name, words in {"pool": ABUSIVE_POOL, "mask": _MASK_LEXICON, "empty": ()}.items():
        files[name] = str(folder / f"{name}.txt")
        Path(files[name]).write_text("".join(f"{word}\n" for word in sorted(words)), encoding="utf-8")
    return files


def analysis_masked(corpus, lexicon_path: str) -> Analysis:
    """An `Analysis` of `corpus` with the abusive lexicon at `lexicon_path`."""
    return Analysis(corpus, SimpleNamespace(abusive_lexicon_path=lexicon_path))


def test_analysis_masking_matches_per_record_masking(synth_corpus, abusive_files):
    lexicon = set(ABUSIVE_POOL)
    masks = {}
    expected, hits = zip(*(mask(r.text, lexicon, masks) for r in synth_corpus.records))
    analysis = analysis_masked(synth_corpus, abusive_files["pool"])
    assert [r.text for r in analysis.corpus.records] == list(expected)
    assert list(analysis.masks.items()) == list(masks.items())
    assert analysis.occurrences == sum(hits)


def test_analysis_masking_with_an_empty_lexicon_is_identity(abusive_files):
    corpus = make_corpus([make_record(rid="1", text="badword01 here")])
    analysis = analysis_masked(corpus, abusive_files["empty"])
    assert [r.text for r in analysis.corpus.records] == ["badword01 here"]
    assert analysis.masks == {}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_MASK_TEXTS, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), max_size=30),
    st.sampled_from(["mask", "empty"]),
)
def test_analysis_masks_each_text_as_a_record_by_record_pass_would(abusive_files, pool, picks, lexicon):
    # the records after them repeat texts of a small pool, in any order
    # the first two mask alike; each hits three words, one of them twice
    texts = ["badword01 badword02 BadWord01 bad", "BadWord01 badword02 badword01 BAD"]
    texts += [pool[i % len(pool)] for i in picks]
    corpus = make_corpus([make_record(rid=str(i), text=t) for i, t in enumerate(texts)])
    pattern = mask_pattern(_MASK_LEXICON if lexicon == "mask" else set())
    masks = {}
    expected, hits = zip(*(mask_text(t, pattern, masks) for t in texts))

    analysis = analysis_masked(corpus, abusive_files[lexicon])
    assert [r.text for r in analysis.corpus.records] == list(expected)
    assert [r.id for r in analysis.corpus.records] == [r.id for r in corpus.records]
    assert list(analysis.masks.items()) == list(masks.items())
    assert analysis.occurrences == sum(hits)


# every lexicon loader, with the bundled file it reads by default; the
# bundled abusive list is empty, so that loader gets the synthetic pool
_LOADERS = {
    "stopwords": (load_stoplist, "stopwords.txt"),
    "abusive": (load_abusive_lexicon, None),
    "emotion": (load_emotion_lexicon, "emotion_lexicon.tsv"),
    "polarity": (partial(load_polarity_lexicon, shifter_path=None), "polarity_lexicon.csv"),
    "shifters": (partial(load_polarity_lexicon, None), "shifters.csv"),
}


@pytest.mark.parametrize("load, bundled", _LOADERS.values(), ids=_LOADERS)
def test_lexicon_with_a_byte_order_mark_loads_as_without(tmp_path, load, bundled):
    if bundled is None:
        text = "".join(f"{word}\n" for word in sorted(ABUSIVE_POOL))
    else:
        text = (resources.files("tweetsent") / "data" / bundled).read_text("utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain)

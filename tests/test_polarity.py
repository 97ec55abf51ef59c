from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import min_max, score_sentence as oracle_score
from tweetsent.analytics import polarity_distribution
from tweetsent.errors import ConfigError, EmptyInputError, SchemaError
from tweetsent.polarity import (
    PolarityLexicon,
    PolarityScore,
    ScoringParams,
    classify_polarity,
    load_polarity_lexicon,
    score_sentence,
    score_text,
)

TINY = PolarityLexicon(
    entries={"good": 1.0, "bad": -1.0, "fine": 0.5},
    shifters={
        "not": "negator",
        "never": "negator",
        "really": "amplifier",
        "very": "amplifier",
        "barely": "deamplifier",
        "hardly": "deamplifier",
        "but": "adversative",
    },
)

NEUTRAL_FILLER = ["economy", "states", "plan", "open", "again", "work"]


# ---------------------------------------------------------------------------
# loading


def test_bundled_lexicon_loads(pol_lex):
    assert pol_lex.entries["good"] == 1.0
    assert pol_lex.shifters["not"] == "negator"
    assert pol_lex.shifters["but"] == "adversative"
    assert not set(pol_lex.entries) & set(pol_lex.shifters)


def test_loader_rejects_overlap(tmp_path):
    pol = tmp_path / "p.csv"
    pol.write_text("term,score\ngood,1\n")
    shift = tmp_path / "s.csv"
    shift.write_text("term,kind\ngood,1\n")
    with pytest.raises(SchemaError):
        load_polarity_lexicon(pol, shift)


def test_loader_rejects_zero_score(tmp_path):
    pol = tmp_path / "p.csv"
    pol.write_text("term,score\nmeh,0\n")
    shift = tmp_path / "s.csv"
    shift.write_text("term,kind\nnot,1\n")
    with pytest.raises(SchemaError):
        load_polarity_lexicon(pol, shift)


def test_loader_rejects_bad_kind(tmp_path):
    pol = tmp_path / "p.csv"
    pol.write_text("term,score\ngood,1\n")
    shift = tmp_path / "s.csv"
    shift.write_text("term,kind\nodd,7\n")
    with pytest.raises(SchemaError):
        load_polarity_lexicon(pol, shift)


def test_loader_rejects_empty_shifter_term(tmp_path):
    shift = tmp_path / "s.csv"
    shift.write_text("term,kind\n,1\nnot,1\n")
    with pytest.raises(SchemaError, match="^shifter lexicon: empty term$"):
        load_polarity_lexicon(None, shift)


# ---------------------------------------------------------------------------
# hand-traced scoring vectors


def test_single_positive_word():
    assert score_sentence(["good"], TINY) == pytest.approx(1.0, abs=1e-4)


def test_negated_word():
    assert score_sentence(["not", "good"], TINY) == pytest.approx(-0.7071, abs=1e-4)


def test_amplified_word():
    assert score_sentence(["really", "good"], TINY) == pytest.approx(1.2728, abs=1e-4)


def test_empty_sentence():
    assert score_sentence([], TINY) == 0.0


def test_double_negation_restores_sign():
    got = score_sentence(["not", "never", "good"], TINY)
    assert got == pytest.approx(1.0 / math.sqrt(3), abs=1e-12)
    assert got > 0


def test_negation_demotes_amplifier():
    # odd negation turns the amplifier into a deamplifier: (1 - 0.8) * -1
    got = score_sentence(["not", "really", "good"], TINY)
    assert got == pytest.approx(-0.2 / math.sqrt(3), abs=1e-12)


def test_deamplifier_floor():
    # three deamplifiers would give d = -2.4 but the floor is -1
    got = score_sentence(["barely", "hardly", "barely", "good"], TINY)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_adversative_before_and_after():
    before = score_sentence(["but", "good"], TINY)
    after = score_sentence(["good", "but"], TINY)
    assert before == pytest.approx((1 + 0.85 * 0.25) / math.sqrt(2), abs=1e-12)
    assert after == pytest.approx((1 - 0.85 * 0.25) / math.sqrt(2), abs=1e-12)


def test_window_clipping():
    # negator 5 tokens before the polarized word is outside window_before=4
    tokens = ["not", "x1", "x2", "x3", "x4", "good"]
    assert score_sentence(tokens, TINY) == pytest.approx(1 / math.sqrt(6), abs=1e-12)


def test_window_after_limit():
    # negator 3 tokens after the polarized word is outside window_after=2
    tokens = ["good", "x1", "x2", "not"]
    assert score_sentence(tokens, TINY) == pytest.approx(1 / math.sqrt(4), abs=1e-12)
    tokens = ["good", "x1", "not"]
    assert score_sentence(tokens, TINY) == pytest.approx(-1 / math.sqrt(3), abs=1e-12)


def test_custom_params():
    params = ScoringParams(window_before=1, window_after=0, amplifier_weight=0.5)
    assert score_sentence(["really", "good"], TINY, params) == pytest.approx(
        1.5 / math.sqrt(2), abs=1e-12
    )
    # negator now out of range
    assert score_sentence(["not", "x", "good"], TINY, params) == pytest.approx(
        1 / math.sqrt(3), abs=1e-12
    )


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"window_before": 21}, "context windows must be in 0..20"),
        ({"window_after": -1}, "context windows must be in 0..20"),
        ({"amplifier_weight": float("nan")}, "amplifier_weight must be in [0, 2]"),
        ({"adversative_weight": float("nan")}, "adversative_weight must be in [0, 2]"),
        ({"adversative_weight": 2.01}, "adversative_weight must be in [0, 2]"),
    ],
)
def test_scoring_params_refuse_values_out_of_range(knobs, message):
    with pytest.raises(ConfigError) as err:
        ScoringParams(**knobs)
    assert str(err.value) == message


def test_scoring_params_accept_their_bounds():
    ScoringParams(window_before=0, window_after=20, amplifier_weight=0, adversative_weight=2)
    ScoringParams(window_before=20, window_after=0, amplifier_weight=2.0, adversative_weight=0.0)


# ---------------------------------------------------------------------------
# oracle equivalence


def _random_sentence(rng):
    vocabulary = (
        list(TINY.entries) + list(TINY.shifters) + NEUTRAL_FILLER
    )
    return [rng.choice(vocabulary) for _ in range(rng.randint(1, 14))]


def test_score_matches_bruteforce_oracle_on_randomized_sentences():
    rng = random.Random(20200508)
    worst = 0.0
    for _ in range(1000):
        tokens = _random_sentence(rng)
        got = score_sentence(tokens, TINY)
        want = oracle_score(tokens, TINY.entries, TINY.shifters)
        worst = max(worst, abs(got - want))
    assert worst < 1e-12


def test_oracle_agreement_with_custom_params():
    rng = random.Random(7)
    params = ScoringParams(window_before=2, window_after=3, amplifier_weight=0.6, adversative_weight=0.3)
    for _ in range(300):
        tokens = _random_sentence(rng)
        got = score_sentence(tokens, TINY, params)
        want = oracle_score(
            tokens, TINY.entries, TINY.shifters,
            window_before=2, window_after=3, z=0.6, adversative_weight=0.3,
        )
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# negation properties


def test_negation_flip_and_double_negation_suite():
    rng = random.Random(1234)
    for _ in range(200):
        polarized = rng.choice(["good", "bad", "fine"])
        pad = [rng.choice(NEUTRAL_FILLER) for _ in range(rng.randint(0, 3))]
        base = pad + [polarized]
        negated = pad + ["not", polarized]
        double = pad + ["not", "never", polarized]

        s_base = score_sentence(base, TINY)
        s_neg = score_sentence(negated, TINY)
        s_double = score_sentence(double, TINY)

        assert s_base != 0
        assert (s_neg < 0) == (s_base > 0)  # sign flipped
        assert (s_double > 0) == (s_base > 0)  # sign restored
        # magnitude preserved up to the sqrt(n) renormalization
        assert abs(s_neg) * math.sqrt(len(negated)) == pytest.approx(
            abs(s_base) * math.sqrt(len(base)), abs=1e-12
        )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(NEUTRAL_FILLER + ["good", "bad", "not", "really"]), max_size=12))
def test_neutral_tokens_add_nothing_to_numerator(tokens):
    # tokens in neither lexicon map contribute no weighted polarity term
    numerator = score_sentence(tokens, TINY) * math.sqrt(max(1, len(tokens)))
    extended = tokens + ["zzznope"]
    extended_numerator = score_sentence(extended, TINY) * math.sqrt(len(extended))
    assert extended_numerator == pytest.approx(numerator, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(NEUTRAL_FILLER), max_size=10))
def test_all_neutral_scores_zero(tokens):
    assert score_sentence(tokens, TINY) == 0.0


def test_appending_positive_token_never_decreases_numerator():
    rng = random.Random(99)
    for _ in range(200):
        tokens = [rng.choice(NEUTRAL_FILLER + ["good", "bad", "not"]) for _ in range(rng.randint(1, 8))]
        numerator = score_sentence(tokens, TINY) * math.sqrt(len(tokens))
        # appended positive word with a neutral buffer so no shifter lands in range
        extended = tokens + ["economy"] * 4 + ["good"]
        extended_numerator = score_sentence(extended, TINY) * math.sqrt(len(extended))
        assert extended_numerator >= numerator - 1e-12


# ---------------------------------------------------------------------------
# text scoring and classification


def _stream(*sentences):
    return [tuple(s) for s in sentences]


def test_score_text_sums_sentences_beyond_one():
    lex = PolarityLexicon(entries={"up": 0.9, "ahead": 0.8}, shifters={})
    score = score_text(_stream(["up"], ["ahead"]), lex)
    assert score.value == pytest.approx(1.7, abs=1e-12)  # legal excursion past 1
    assert score.n_sentences == 2
    assert score.value == score_sentence(("up",), lex) + score_sentence(("ahead",), lex)


def test_score_text_single_sentence():
    score = score_text(_stream(["good"]), TINY)
    assert score.value == pytest.approx(1.0)
    assert score.n_sentences == 1


def test_score_text_all_neutral():
    score = score_text(_stream(["economy", "states"]), TINY)
    assert score.value == 0.0


def test_classify_polarity():
    assert classify_polarity(PolarityScore(0.5, 1)) == "positive"
    assert classify_polarity(PolarityScore(-0.1, 1)) == "negative"
    assert classify_polarity(PolarityScore(0.0, 1)) == "neutral"


# ---------------------------------------------------------------------------
# extremes, which the distribution report carries


def _extremes(values):
    return polarity_distribution([PolarityScore(v, 1) for v in values])["extremes"]


def test_extremes_basic():
    assert _extremes([-1.5, 0.2, 1.3]) == {"min": -1.5, "max": 1.3}


def test_extremes_single_element():
    assert _extremes([0.4]) == {"min": 0.4, "max": 0.4}


def test_extremes_tie_first_occurrence():
    # a text without sentences scores the int 0, a scored text can give 0.0;
    # the first of the tied values is kept, and JSON writes 0 and 0.0 apart
    for values, want in (([0, 0.0, -0.0], '{"min": 0, "max": 0}'),
                         ([0.0, 0, -0.0], '{"min": 0.0, "max": 0.0}'),
                         ([-0.0, 0, 0.0], '{"min": -0.0, "max": -0.0}')):
        assert json.dumps(_extremes(values)) == want


def test_extremes_empty():
    with pytest.raises(EmptyInputError):
        polarity_distribution([])


def test_extremes_matches_linear_scan():
    # ints and floats of equal value tie, so the scan's first-of-ties rule shows
    rng = random.Random(55)
    values = [rng.choice([-2, -2.0, 0, 0.0, 1.5, 3, 3.0]) for _ in range(50)]
    values += [rng.uniform(-3, 3) for _ in range(500)]
    for sample in (values[:50], values[:20], values):
        low, high = min_max(sample)
        got = _extremes(sample)
        assert (type(got["min"]), got["min"], type(got["max"]), got["max"]) == (
            type(low), low, type(high), high
        )


def test_score_text_adds_sentences_left_to_right():
    # builtin sum() compensates from Python 3.12 on and would give 1.0
    lex = PolarityLexicon(entries={"big": 1e16, "one": 1.0, "minus": -1e16}, shifters={})
    score = score_text(_stream(["big"], ["one"], ["minus"]), lex)
    assert score.value == 0.0
    assert score.n_sentences == 3
    # and so are the words of one sentence, as score_sentence adds them
    words = ("big", "one", "minus")
    assert score_text([words], lex).value == score_sentence(words, lex) == 0.0


def test_score_text_without_sentences_is_int_zero():
    # polarity_scores.csv has always written this value as "0"
    score = score_text([], TINY)
    assert score.value == 0 and isinstance(score.value, int)
    assert score_text(_stream(["economy"]), TINY).value.hex() == (0.0).hex()


def _bundled_sentences(pol_lex):
    vocabulary = sorted(pol_lex.entries) + sorted(pol_lex.shifters) + NEUTRAL_FILLER
    sentence = st.lists(st.sampled_from(vocabulary), min_size=1, max_size=12).map(tuple)
    return st.lists(sentence, max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_score_text_is_left_to_right_sum_of_sentence_scores(pol_lex, data):
    sentences = data.draw(_bundled_sentences(pol_lex))
    params = data.draw(st.sampled_from([ScoringParams(), ScoringParams(2, 3, 0.6, 0.3)]))
    want = 0.0 if sentences else 0
    for sentence in sentences:
        want += score_sentence(sentence, pol_lex, params)
    got = score_text(sentences, pol_lex, params).value
    assert got == want and type(got) is type(want)
    assert got == pytest.approx(
        sum(oracle_score(s, pol_lex.entries, pol_lex.shifters, params.window_before,
                         params.window_after, params.amplifier_weight, params.adversative_weight)
            for s in sentences),
        abs=1e-9,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_shifter_free_sentence_scores_exactly_as_the_full_rule(pol_lex, data):
    # score_sentence answers sentences without a polarized word or without a
    # shifter early; the literal rule gives the same float there
    vocabulary = sorted(pol_lex.entries) + NEUTRAL_FILLER
    tokens = data.draw(st.lists(st.sampled_from(vocabulary), max_size=12))
    want = oracle_score(tokens, pol_lex.entries, pol_lex.shifters)
    assert score_sentence(tokens, pol_lex).hex() == want.hex()


def test_text_score_that_is_not_finite_is_schema_error():
    lex = PolarityLexicon(entries={"great": 1e308, "awful": -1e308}, shifters={})
    assert score_text([("great",)], lex).value == 1e308
    for sentences in (
        [("great", "great", "great", "reopen")],  # one sentence overflows
        [("great",), ("great",)],  # two finite sentences add up to infinity
        [("great", "great"), ("awful", "awful")],  # +inf and -inf make NaN
    ):
        with pytest.raises(SchemaError, match="too large"):
            score_text(sentences, lex)

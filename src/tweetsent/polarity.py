"""Signed sentence polarity with valence shifters.

Each polarized word is weighted by the shifters found in a context cluster
around it (default 4 tokens back, 2 forward, clipped to the sentence):

* negators flip the sign; an odd negator count also demotes amplifiers to
  deamplifiers,
* amplifiers add z per hit, deamplifiers subtract z per hit with the total
  deamplification floored at -1,
* adversative conjunctions reweight by (1 + w/4) before the word and
  (1 - w/4) after it.

The sentence score is the sum of weighted polarities divided by the square
root of the sentence's token count; text scores sum over sentences and may
leave [-1, 1].
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import ConfigError, SchemaError
from .textprep import Sentences, read_lexicon

NEGATOR = "negator"
AMPLIFIER = "amplifier"
DEAMPLIFIER = "deamplifier"
ADVERSATIVE = "adversative"

_SHIFTER_CODES = {"1": NEGATOR, "2": AMPLIFIER, "3": DEAMPLIFIER, "4": ADVERSATIVE}


# term -> score, and term -> shifter kind
PolarityLexicon = namedtuple("PolarityLexicon", "entries shifters")


@dataclass
class ScoringParams:
    """The context window and shifter weights of `score_sentence`; the only
    defaults of the four, which `RunConfig` takes. Out of range is a `ConfigError`."""

    window_before: int = 4
    window_after: int = 2
    amplifier_weight: float = 0.8
    adversative_weight: float = 0.85

    def __post_init__(self) -> None:
        if not (0 <= self.window_before <= 20 and 0 <= self.window_after <= 20):
            raise ConfigError("context windows must be in 0..20")
        for name in ("amplifier_weight", "adversative_weight"):
            if not 0 <= getattr(self, name) <= 2:  # NaN too
                raise ConfigError(f"{name} must be in [0, 2]")


PolarityScore = namedtuple("PolarityScore", "value n_sentences")


def _rows(text: str, name: str):
    """The rows of a lexicon CSV; an unreadable row is a `SchemaError` of the `name` lexicon."""
    try:
        yield from csv.DictReader(text.splitlines())
    except csv.Error as exc:
        raise SchemaError(f"{name} lexicon: {exc}") from exc


def load_polarity_lexicon(polarity_path=None, shifter_path=None) -> PolarityLexicon:
    """Load term scores and shifter kinds from the two CSV files.

    Shifter kinds use the numeric coding 1=negator, 2=amplifier,
    3=deamplifier, 4=adversative. A term may not be both polarized and a
    shifter.
    """
    pol_text = read_lexicon(polarity_path, "polarity_lexicon.csv")
    shift_text = read_lexicon(shifter_path, "shifters.csv")

    entries: dict[str, float] = {}
    for row in _rows(pol_text, "polarity"):
        term = (row.get("term") or "").strip().lower()
        if not term:
            raise SchemaError("polarity lexicon: empty term")
        try:
            score = float(row.get("score") or "")
        except ValueError as exc:
            raise SchemaError(f"polarity lexicon: bad score for {term!r}") from exc
        if score == 0 or not math.isfinite(score):
            raise SchemaError(f"polarity lexicon: score for {term!r} must be finite and non-zero")
        entries[term] = score

    shifters: dict[str, str] = {}
    for row in _rows(shift_text, "shifter"):
        term = (row.get("term") or "").strip().lower()
        if not term:
            raise SchemaError("shifter lexicon: empty term")
        kind_code = (row.get("kind") or "").strip()
        if kind_code not in _SHIFTER_CODES:
            raise SchemaError(f"shifter lexicon: kind for {term!r} must be 1..4")
        if term in entries:
            raise SchemaError(f"{term!r} appears in both polarity and shifter lexicons")
        shifters[term] = _SHIFTER_CODES[kind_code]

    return PolarityLexicon(entries, shifters)


def score_sentence(tokens: Sequence[str], lex: PolarityLexicon, params: ScoringParams | None = None) -> float:
    """Score one sentence of lowercase tokens; empty sentences score 0."""
    entries = lex.entries
    shifters = lex.shifters
    if entries.keys().isdisjoint(tokens):
        # no polarized word: every term of the sum is absent
        return 0.0
    if shifters.keys().isdisjoint(tokens):
        # no shifter: every weight is 1.0, leaving the polarities summed
        # left to right
        return reduce(add, filter(None, map(entries.get, tokens)), 0.0) / math.sqrt(len(tokens))
    params = params or ScoringParams()
    z = params.amplifier_weight
    adv_up = 1.0 + params.adversative_weight * 0.25
    adv_down = 1.0 - params.adversative_weight * 0.25

    total = 0.0
    for i, token in enumerate(tokens):
        polarity = entries.get(token)
        if polarity is None:
            continue
        lo = max(0, i - params.window_before)
        hi = min(len(tokens), i + params.window_after + 1)
        negators = 0
        amplifiers = 0
        deamplifiers = 0
        adv_factor = 1.0
        for j in range(lo, hi):
            kind = shifters.get(tokens[j])
            if kind is None:
                continue
            if kind == NEGATOR:
                negators += 1
            elif kind == AMPLIFIER:
                amplifiers += 1
            elif kind == DEAMPLIFIER:
                deamplifiers += 1
            else:
                adv_factor *= adv_up if j < i else adv_down
        if negators % 2 == 1:
            # odd negation demotes amplification into damping
            deamplifiers += amplifiers
            amplifiers = 0
        amp = z * amplifiers
        damp = max(-1.0, -z * deamplifiers)
        weighted = (1.0 + amp + damp) * polarity * (-1.0) ** negators
        total += weighted * adv_factor
    return total / math.sqrt(len(tokens))


def score_text(sentences: Sentences, lex: PolarityLexicon, params: ScoringParams | None = None) -> PolarityScore:
    """Sum of per-sentence scores; the total may exceed 1 in magnitude.

    Sentences are added left to right in a plain loop: builtin sum() adds
    floats with compensation from Python 3.12 on, which would change the
    bytes of a total. A total that overflows to infinity, or NaN, is a
    `SchemaError`.
    """
    params = params or ScoringParams()
    # sum() of no sentences was the int 0, which polarity_scores.csv writes as "0"
    total = 0.0 if sentences else 0
    for sentence in sentences:
        total += score_sentence(sentence, lex, params)
    if not math.isfinite(total):
        raise SchemaError(f"polarity: a text scores {total}; the lexicon's scores are too large")
    return PolarityScore(total, len(sentences))


def classify_polarity(score: PolarityScore) -> str:
    if score.value > 0:
        return "positive"
    if score.value < 0:
        return "negative"
    return "neutral"


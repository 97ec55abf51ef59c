"""Eight-class emotion classification with unit-sum positive/negative counts.

Each token occurrence that matches a lexicon term adds one to every category
the term carries, so a single text can score, say, positive 2 and negative 1
at the same time. Matching is exact whole-token on lowercase text; no
stemming.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter, mul

from .errors import SchemaError
from .textprep import Sentences, read_lexicon

EMOTION_CLASSES = (
    "anger",
    "anticipation",
    "disgust",
    "fear",
    "joy",
    "sadness",
    "surprise",
    "trust",
)
ALL_CATEGORIES = EMOTION_CLASSES + ("positive", "negative")

# term -> the categories it carries
EmotionLexicon = dict[str, frozenset[str]]

# one text's hit count in each category, then its token count: an immutable
# row, so a profile shared by every record of one text cannot be edited
# through any of them
EmotionProfile = namedtuple("EmotionProfile", ALL_CATEGORIES + ("token_total",), defaults=(0,) * 11)


def load_emotion_lexicon(path=None) -> EmotionLexicon:
    """Parse a term/category/flag TSV; rows with flag 1 define membership.

    Defaults to the bundled ~200-term fixture. Pass a path to use a full
    external lexicon in the same layout.
    """
    text = read_lexicon(path, "emotion_lexicon.tsv")

    staging: dict[str, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SchemaError(f"emotion lexicon line {lineno}: expected 3 tab-separated fields")
        term, category, flag = parts
        if " " in term:
            raise SchemaError(f"emotion lexicon line {lineno}: multi-word terms unsupported")
        if category not in ALL_CATEGORIES:
            raise SchemaError(f"emotion lexicon line {lineno}: unknown category {category!r}")
        if flag not in ("0", "1"):
            raise SchemaError(f"emotion lexicon line {lineno}: flag must be 0 or 1")
        if flag == "1":
            staging.setdefault(term.lower(), set()).add(category)
    return {t: frozenset(c) for t, c in staging.items()}


def classify(sentences: Sentences, lex: EmotionLexicon) -> EmotionProfile:
    """Count category hits per token occurrence; sentence structure is ignored."""
    counts = dict.fromkeys(ALL_CATEGORIES, 0)
    for sentence in sentences:
        for token in sentence:
            categories = lex.get(token)
            if categories:
                for category in categories:
                    counts[category] += 1
    return EmotionProfile(*counts.values(), sum(map(len, sentences)))


def aggregate_profiles(
    profiles: list[EmotionProfile], weights: list[int] | None = None
) -> EmotionProfile:
    """Sum of the profiles, `profiles[i]` counted `weights[i]` times (once if None)."""
    weights = [1] * len(profiles) if weights is None else weights
    if len(weights) != len(profiles):
        raise ValueError(f"{len(weights)} weights for {len(profiles)} profiles")
    # no profiles give no columns, and every field defaults to 0
    return EmotionProfile(*(sum(map(mul, column, weights)) for column in zip(*profiles)))


def dominant_classes(p: EmotionProfile, k: int) -> list[tuple[str, int]]:
    """Top-k of the eight emotion classes (positive/negative excluded).

    Ties resolve in the fixed class order anger, anticipation, disgust, fear,
    joy, sadness, surprise, trust.
    """
    if not 1 <= k <= len(EMOTION_CLASSES):
        raise ValueError(f"k must be in 1..{len(EMOTION_CLASSES)}")
    # a reversed sort is still stable: tied classes keep the class order
    return sorted(zip(EMOTION_CLASSES, p), key=itemgetter(1), reverse=True)[:k]

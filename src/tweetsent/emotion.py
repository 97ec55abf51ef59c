"""Eight-class emotion classification with unit-sum positive/negative counts.

Each token occurrence that matches a lexicon term adds one to every category
the term carries, so a single text can score, say, positive 2 and negative 1
at the same time. Matching is exact whole-token on lowercase text; no
stemming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class EmotionLexicon:
    entries: dict[str, frozenset[str]]

    def __contains__(self, term: str) -> bool:
        return term in self.entries


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
    return EmotionLexicon(entries={t: frozenset(c) for t, c in staging.items()})


@dataclass
class EmotionProfile:
    counts: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in ALL_CATEGORIES}
    )
    token_total: int = 0

    def to_dict(self) -> dict:
        return {"counts": {c: self.counts[c] for c in ALL_CATEGORIES}, "token_total": self.token_total}


def classify(sentences: Sentences, lex: EmotionLexicon) -> EmotionProfile:
    """Count category hits per token occurrence; sentence structure is ignored."""
    profile = EmotionProfile(token_total=sum(map(len, sentences)))
    counts = profile.counts
    entries = lex.entries
    for sentence in sentences:
        for token in sentence:
            categories = entries.get(token)
            if categories:
                for category in categories:
                    counts[category] += 1
    return profile


def aggregate_profiles(
    profiles: list[EmotionProfile], weights: list[int] | None = None
) -> EmotionProfile:
    """Sum of the profiles, `profiles[i]` counted `weights[i]` times (once if None)."""
    total = EmotionProfile()
    weights = [1] * len(profiles) if weights is None else weights
    for p, weight in zip(profiles, weights, strict=True):
        for category, value in p.counts.items():
            total.counts[category] += value * weight
        total.token_total += p.token_total * weight
    return total


def dominant_classes(p: EmotionProfile, k: int) -> list[tuple[str, int]]:
    """Top-k of the eight emotion classes (positive/negative excluded).

    Ties resolve in the fixed class order anger, anticipation, disgust, fear,
    joy, sadness, surprise, trust.
    """
    if not 1 <= k <= 10:
        raise ValueError("k must be in 1..10")
    ranked = sorted(
        ((c, p.counts[c]) for c in EMOTION_CLASSES),
        key=lambda item: (-item[1], EMOTION_CLASSES.index(item[0])),
    )
    return ranked[:k]

"""Text normalization: cleaning, sentence splitting, stopword removal, abusive-word masking.

A prepared text is a list of sentences, each a tuple of tokens. Cleaning
keeps intra-word apostrophes so contractions ("can't") survive as single
tokens. Sentence boundaries come from terminal punctuation (., !, ?) in the
raw text; a tweet without terminal punctuation is one sentence. Texts
prepared with one vocabulary share one string object per distinct token.
"""

from __future__ import annotations

import re
from importlib import resources

from .errors import SchemaError

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
# everything outside ASCII alphanumerics, apostrophe, whitespace and the
# sentence terminators is punctuation; emoji and other non-ASCII symbols fall
# under this rule and are dropped
_PUNCT_RE = re.compile(r"[^a-z0-9'\s.!?]+")
_EDGE_APOSTROPHE_RE = re.compile(r"(?<![a-z0-9])'|'(?![a-z0-9])")

Sentences = list[tuple[str, ...]]


def prepare(raw: str, vocab: dict[str, str] | None = None) -> Sentences:
    """Raw text to its sentences of cleaned tokens; each rule runs once over
    the whole text, sentence splitting last.

    Rules, in order: strip URLs (before sentence splitting, so dots inside
    links do not spawn boundaries); strip @mentions; strip '#' keeping the
    tag word; lowercase; drop punctuation except intra-word apostrophes;
    split sentences on runs of terminal punctuation (., !, ?) and each
    sentence on whitespace. Sentences left without tokens are dropped.

    `vocab` maps each token to itself: a token already in it is replaced by
    that one object, a new token is added. The tokens are equal either way.
    """
    text = raw
    # each guard skips a regex scan over a text it cannot match
    if "://" in text or "ww." in text.lower():
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text.replace("#", "").lower())
    if "'" in text:
        text = _EDGE_APOSTROPHE_RE.sub(" ", text)
    chunks = text.replace("!", ".").replace("?", ".").split(".")
    shared = ({} if vocab is None else vocab).setdefault
    return [tuple(map(shared, words, words)) for chunk in chunks if (words := chunk.split())]


def remove_stopwords(sentences: Sentences, stoplist: set[str]) -> Sentences:
    """Drop stoplist tokens; sentences emptied entirely are dropped too."""
    out = []
    for sentence in sentences:
        kept = [t for t in sentence if t not in stoplist]
        if kept:
            out.append(tuple(kept))
    return out


def read_lexicon(path, bundled: str) -> str:
    """The text of the lexicon file at `path`, or of the bundled data file
    named `bundled` if `path` is None. A UTF-8 byte-order mark that starts
    the file is dropped; a file that is not UTF-8 is a `SchemaError`."""
    if path is None:
        return (resources.files("tweetsent") / "data" / bundled).read_text("utf-8")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"lexicon {path} is not UTF-8: {exc}") from exc


def load_stoplist(path=None) -> set[str]:
    """One lowercase word per line; defaults to the bundled 174-word list."""
    text = read_lexicon(path, "stopwords.txt")
    return {line.strip() for line in text.splitlines() if line.strip()}


def load_abusive_lexicon(path=None) -> set[str]:
    """One lowercase word per line; the bundled default is an empty placeholder."""
    text = read_lexicon(path, "abusive_words.txt")
    return {line.strip() for line in text.splitlines() if line.strip()}


def mask_pattern(abusive_lexicon) -> re.Pattern | None:
    """Whole-word, case-insensitive alternation of the lexicon; None if empty."""
    if not abusive_lexicon:
        return None
    # longest-first so longer entries win over prefixes
    words = sorted(abusive_lexicon, key=len, reverse=True)
    return re.compile(r"\b(?:" + "|".join(re.escape(w) for w in words) + r")\b", re.IGNORECASE)


def mask_text(raw: str, pattern: re.Pattern | None, masks: dict[str, str]) -> tuple[str, int]:
    """`raw` with each `mask_pattern` hit replaced by its mask, and the number
    of hits. `masks` maps each distinct word, in order of first appearance, to
    "abuvs" plus its place in that order, starting at 1; a new word is added."""
    if pattern is None:
        return raw, 0

    def repl(match: re.Match) -> str:
        word = match.group(0).lower()
        return masks.get(word) or masks.setdefault(word, f"abuvs{len(masks) + 1}")

    return pattern.subn(repl, raw)

"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles (nested loops,
plain dicts) and never calls into the package's own counting or scoring
paths, so oracle-equality tests actually cross-check two implementations.
"""

from __future__ import annotations

import math
import re


def clean_chunk(text):
    """The cleaning rules, one pass each: strip URLs, strip @mentions, drop
    '#', lowercase, punctuation (anything but ASCII letters, digits,
    apostrophes and whitespace) to space, apostrophes not between two
    letters/digits to space, collapse whitespace."""
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text, flags=re.IGNORECASE)
    text = re.sub(r"@\w+", " ", text)
    text = text.replace("#", "")
    text = text.lower()
    text = re.sub(r"[^a-z0-9'\s]+", " ", text)
    text = re.sub(r"(?<![a-z0-9])'|'(?![a-z0-9])", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def prepare(raw):
    """Multi-pass text preparation: strip URLs from the raw text, split it on
    runs of terminal punctuation, clean each chunk on its own, and keep the
    chunks that still hold words, as token tuples."""
    without_urls = re.sub(r"(?:https?://|www\.)\S+", " ", raw, flags=re.IGNORECASE)
    sentences = []
    for chunk in re.split(r"[.!?]+", without_urls):
        words = clean_chunk(chunk).split()
        if words:
            sentences.append(tuple(words))
    return sentences


def ngram_counts(texts, n):
    """Plain-dict n-gram counting over each text's sentences."""
    counts = {}
    for sentences in texts:
        for sentence in sentences:
            if len(sentence) < n:
                continue
            for i in range(len(sentence) - n + 1):
                gram = tuple(sentence[i : i + n])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def score_sentence(tokens, entries, shifters, window_before=4, window_after=2,
                   z=0.8, adversative_weight=0.85):
    """Literal transcription of the sentence scoring rule."""
    if len(tokens) == 0:
        return 0.0
    total = 0.0
    for i in range(len(tokens)):
        if tokens[i] not in entries:
            continue
        p = entries[tokens[i]]
        lo = i - window_before
        if lo < 0:
            lo = 0
        hi = i + window_after
        if hi > len(tokens) - 1:
            hi = len(tokens) - 1
        c = 0
        n_amp = 0
        n_deamp = 0
        adv = 1.0
        for j in range(lo, hi + 1):
            kind = shifters.get(tokens[j])
            if kind == "negator":
                c += 1
            elif kind == "amplifier":
                n_amp += 1
            elif kind == "deamplifier":
                n_deamp += 1
            elif kind == "adversative":
                if j < i:
                    adv = adv * (1.0 + adversative_weight * 0.25)
                elif j > i:
                    adv = adv * (1.0 - adversative_weight * 0.25)
        if c % 2 == 1:
            n_deamp = n_deamp + n_amp
            n_amp = 0
        a = z * n_amp
        d = -z * n_deamp
        if d < -1.0:
            d = -1.0
        weighted = (1.0 + a + d) * p * ((-1.0) ** c) * adv
        total += weighted
    return total / math.sqrt(len(tokens))


def emotion_counts(tokens, lexicon_entries, categories):
    """Count each category by scanning every token occurrence."""
    out = {c: 0 for c in categories}
    for token in tokens:
        if token in lexicon_entries:
            for category in lexicon_entries[token]:
                out[category] += 1
    return out


def count_items(list_of_lists):
    counts = {}
    for items in list_of_lists:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    return counts


def filter_chain_ids(records, start, end, keyword, country, policy):
    """Record-by-record reference of the full filtering chain; returns kept ids.

    Quadratic duplicate scan and per-user sliding burst check, evaluated over
    the survivors of the date/keyword/country stages like the real chain.
    """
    survivors = []
    needle = keyword.casefold()
    for r in records:
        if not (start <= r.created_at.date() <= end):
            continue
        if needle not in r.text.casefold():
            continue
        if r.country_code is None or r.country_code.upper() != country.upper():
            continue
        survivors.append(r)

    def norm(text):
        return " ".join(text.casefold().split())

    dup = set()
    for i in range(len(survivors)):
        for j in range(i):
            if norm(survivors[j].text) == norm(survivors[i].text):
                delta = abs(
                    survivors[i].created_at.timestamp()
                    - survivors[j].created_at.timestamp()
                )
                if delta <= policy.dup_window_seconds:
                    dup.add(survivors[i].id)
                    break

    by_user = {}
    for r in survivors:
        by_user.setdefault(r.user_id, []).append(r.created_at.timestamp())
    burst_users = set()
    for user, stamps in by_user.items():
        stamps = sorted(stamps)
        for i in range(len(stamps)):
            inside = [t for t in stamps if stamps[i] <= t <= stamps[i] + 60.0]
            if len(inside) > policy.burst_per_minute:
                burst_users.add(user)
                break

    kept = []
    for r in survivors:
        if r.id in dup:
            continue
        if r.user_id in burst_users:
            continue
        if len(set(norm(r.text).split())) < policy.min_distinct_tokens:
            continue
        kept.append(r.id)
    return set(kept)


def min_max(values):
    lo = values[0]
    hi = values[0]
    for v in values:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi

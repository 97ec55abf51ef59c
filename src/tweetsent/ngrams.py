"""Ranked word-frequency and n-gram (n = 1..4) tables over prepared texts.

Grams never cross sentence boundaries. Each table is counted in one C-level
pass over every sentence's windows. A table is its ranked rows
(gram, count), each gram space-joined: by count descending, ties broken
lexicographically on the gram, which makes every table a total order and
re-runs byte-identical.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import chain, compress, repeat
from operator import eq, itemgetter, lt

from .errors import InvalidNError
from .textprep import Sentences

MAX_N = 4


def _rank_key(item: tuple[tuple[str, ...], int]) -> tuple[int, tuple[str, ...]]:
    return -item[1], item[0]


def _windows(texts: list[Sentences], n: int):
    """Every sentence's width-n windows, in order; plain tokens for n = 1.
    Zips each sentence's n shifted slices, so no window crosses a sentence end."""
    if n == 1:
        return chain.from_iterable(chain.from_iterable(texts))
    sentences = list(chain.from_iterable(texts))
    return chain.from_iterable(map(zip, *[map(itemgetter(slice(i, None)), sentences) for i in range(n)]))


def build_table(
    texts: list[Sentences], n: int, top: int | None = None, weights: list[int] | None = None
) -> list[tuple[str, int]]:
    """The first `top` rows (all of them when `top` is None) of the exact
    counts over all texts, in the table order.

    Width-n sliding windows per sentence; a sentence shorter than n yields
    none. Text i counts `weights[i]` >= 1 times (once if None): one `Counter`
    counts every text's windows, then a text of weight w adds them w - 1
    more times. Grams are counted as tuples and joined only once ranked.

    Precondition: no token holds a character at or below U+0020, as every
    token of `textprep.prepare` matches [a-z0-9']+. Ties then compare gram
    tuples in the order of their space-joined text.
    """
    if not 1 <= n <= MAX_N:
        raise InvalidNError(f"n must be in 1..{MAX_N}, got {n}")
    counts = Counter(_windows(texts, n))
    weights = [1] * len(texts) if weights is None else weights
    for sentences, weight in compress(zip(texts, weights, strict=True), map(lt, repeat(1), weights)):
        for gram in _windows([sentences], n):
            counts[gram] += weight - 1
    rows = top_entries(counts, len(counts) if top is None else top)
    return rows if n == 1 else [(" ".join(gram), count) for gram, count in rows]


def top_entries(counts: Counter, k: int) -> list:
    """The first k entries in _rank_key order: count descending, ties by key.
    This one rule ranks every table, the n-gram tables and `analytics`'s rankings.

    Every entry counting above the k-th highest count (the floor) is kept;
    the places left go to the lowest grams at the floor. For n = 4 the floor
    is usually 1 and nearly every entry sits at it, so the entries are split
    by count in two C scans, and only the kept ones are ranked.
    """
    largest = heapq.nlargest(k, counts.values())
    if not largest:
        return []
    floor = largest[-1]
    counted = counts.values()
    above = compress(counts, map(lt, repeat(floor), counted))
    at_floor = compress(counts, map(eq, repeat(floor), counted))
    entries = sorted([(gram, counts[gram]) for gram in above], key=_rank_key)
    entries += [(gram, floor) for gram in heapq.nsmallest(k - len(entries), at_floor)]
    return entries


def word_cloud_weights(table: list[tuple[str, int]], k: int) -> list[dict]:
    """The top-k words of a unigram table, each weighted by count / max
    count, heaviest first. A gram holding a space gives away a higher order;
    an empty table shows no order and has no words."""
    if table and " " in table[0][0]:
        raise InvalidNError(f"word cloud needs a unigram table, got the gram {table[0][0]!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    top = table[:k]
    return [{"word": word, "weight": count / top[0][1]} for word, count in top]

"""Ranked word-frequency and n-gram (n = 1..4) tables over prepared texts.

Grams never cross sentence boundaries. Tables order entries by count
descending, ties broken lexicographically on the space-joined gram, which
makes every table a total order and re-runs byte-identical.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, lt

from .errors import InvalidNError
from .textprep import Sentences

MAX_N = 4


@dataclass
class NgramTable:
    n: int
    entries: list[tuple[tuple[str, ...], int]]
    total_grams: int


def _rank_key(item: tuple[tuple[str, ...], int]) -> tuple[int, str]:
    return -item[1], " ".join(item[0])


def build_table(
    texts: list[Sentences], n: int, top: int | None = None, weights: list[int] | None = None
) -> NgramTable:
    """Exact counts over all texts with deterministic ordering.

    Width-n sliding windows per sentence; a sentence shorter than n yields
    none. Text i counts `weights[i]` >= 1 times (once if None). Only the
    first `top` entries of the order are kept (all of them when `top` is
    None); `total_grams` always counts every gram.
    """
    if not 1 <= n <= MAX_N:
        raise InvalidNError(f"n must be in 1..{MAX_N}, got {n}")
    # a sentence's windows zip its n copies shifted by 0..n-1 tokens
    shifts = [slice(i, None) for i in range(n)]

    def windows(group: list[Sentences]):
        return chain.from_iterable(zip(*map(s.__getitem__, shifts)) for ts in group for s in ts)

    counts: Counter[tuple[str, ...]] = Counter(windows(texts))
    weights = [1] * len(texts) if weights is None else weights
    for sentences, weight in zip(texts, weights, strict=True):
        if weight > 1:
            for gram in windows([sentences]):
                counts[gram] += weight - 1
    k = len(counts) if top is None else top
    return NgramTable(n=n, entries=_top_entries(counts, k), total_grams=sum(counts.values()))


def _top_entries(counts: Counter[tuple[str, ...]], k: int) -> list[tuple[tuple[str, ...], int]]:
    """The first k entries in _rank_key order, equal keys in insertion order.

    Every entry counting above the k-th highest count (the floor) is kept;
    the places left go to the grams at the floor whose joined text sorts
    lowest. For n = 4 the floor is usually 1 and nearly every entry sits at
    it, so the entries are split by count in two C scans, and only the kept
    ones are ranked.
    """
    largest = heapq.nlargest(k, counts.values())
    if not largest:
        return []
    floor = largest[-1]
    counted = counts.values()
    above = compress(counts, map(lt, repeat(floor), counted))
    at_floor = compress(counts, map(eq, repeat(floor), counted))
    entries = sorted([(gram, counts[gram]) for gram in above], key=_rank_key)
    entries += [(gram, floor) for gram in heapq.nsmallest(k - len(entries), at_floor, key=" ".join)]
    return entries


def word_cloud_weights(table: NgramTable, k: int) -> list[tuple[str, float]]:
    """Top-k unigrams weighted by count / max count, heaviest first."""
    if table.n != 1:
        raise InvalidNError(f"word cloud needs a unigram table, got n={table.n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not table.entries:
        return []
    top = table.entries[:k]
    max_count = top[0][1]
    return [(gram[0], count / max_count) for gram, count in top]

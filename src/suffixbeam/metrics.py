"""Suffix similarity (Damerau-Levenshtein, OSA variant) and report math.

Similarity between a predicted and a true suffix is

    1 - distance(a, b) / max(|a|, |b|)

with two empty suffixes counting as a perfect 1. Per-prefix-length means are
combined into a micro average weighted by test-set size.
"""

from __future__ import annotations


def dl_distance(a, b) -> int:
    """Optimal-string-alignment edit distance between two label sequences.

    Counts insertions, deletions, substitutions, and transpositions of
    adjacent labels (each substring edited at most once). A row-by-row DP
    that keeps the last two rows for the transposition case.
    """
    before, prev = None, list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            d = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
            if i > 1 and j > 1 and x == b[j - 2] and a[i - 2] == y:
                d = min(d, before[j - 2] + 1)
            cur.append(d)
        before, prev = prev, cur
    return prev[-1]


def dl_similarity(a, b) -> float:
    """Normalized similarity in [0, 1]; both-empty -> 1.0."""
    if a == b:  # what the DP gives: 1 - 0 / longest
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - dl_distance(a, b) / longest


def micro_average(groups) -> float:
    """Weighted mean of (mean, weight) pairs, weights > 0."""
    groups = list(groups)
    if not groups:
        raise ValueError("micro average of no groups")
    total_w = 0.0
    acc = 0.0
    for mean, weight in groups:
        if weight <= 0:
            raise ValueError("micro average weights must be positive")
        acc += mean * weight
        total_w += weight
    return acc / total_w

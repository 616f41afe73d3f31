"""Suffix similarity (Damerau-Levenshtein, OSA variant) and report math.

Similarity between a predicted and a true suffix is

    1 - distance(a, b) / max(|a|, |b|)

with two empty suffixes counting as a perfect 1. Per-prefix-length means are
combined into a micro average weighted by test-set size.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


def dl_distance(a, b) -> int:
    """Optimal-string-alignment edit distance between two label sequences.

    Counts insertions, deletions, substitutions, and transpositions of
    adjacent labels (each substring edited at most once).
    """
    if not a and not b:
        return 0
    codes = {}
    for lab in a:
        codes.setdefault(lab, len(codes))
    for lab in b:
        codes.setdefault(lab, len(codes))
    arr_a = np.array([codes[lab] for lab in a], dtype=np.int32)
    arr_b = np.array([codes[lab] for lab in b], dtype=np.int32)
    return int(_kernels.osa_distance(arr_a, arr_b))


def dl_similarity(a, b) -> float:
    """Normalized similarity in [0, 1]; both-empty -> 1.0."""
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

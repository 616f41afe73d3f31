from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam.eventlog import END
from suffixbeam.metrics import dl_distance, dl_similarity, micro_average


def brute_osa(a, b):
    """Textbook recursive OSA definition, memoized; the independent oracle."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            d(i - 1, j) + 1,  # delete
            d(i, j - 1) + 1,  # insert
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),  # substitute / keep
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, d(i - 2, j - 2) + 1)  # transpose
        return best

    return d(len(a), len(b))


# ---------------------------------------------------------------------------
# worked examples


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ((), (), 0),
        (("A",), (), 1),
        ((), ("A", "B"), 2),
        (("A", "B", "C"), ("A", "B", "C"), 0),
        (("A", "B"), ("B", "A"), 1),  # one transposition, not two substitutions
        (("C", "A"), ("A", "B", "C"), 3),  # OSA may not edit a substring twice
        (("A", "B", "C", "D"), ("A", "C", "B", "D"), 1),
        (("kitten",), ("sitting",), 1),  # labels are atomic, not characters
        (("A", "X", "C"), ("A", "B", "C"), 1),
        (("A", "A", "A"), ("A",), 2),
    ],
)
def test_distance_worked_examples(a, b, expected):
    assert dl_distance(a, b) == expected
    assert brute_osa(a, b) == expected


def test_similarity_normalization():
    assert dl_similarity((), ()) == 1.0
    assert dl_similarity(("A", "B"), ("A", "B")) == 1.0
    assert dl_similarity(("A", "B"), ()) == 0.0
    assert dl_similarity(("A", "B"), ("B", "A")) == 0.5
    assert dl_similarity(("A", "B", "C", "D"), ("A", "C", "B", "D")) == 0.75


def test_distance_exhaustive_against_brute_force():
    # every pair of sequences over {a, b} up to length 4
    seqs = [()]
    for _ in range(4):
        seqs += [s + (lab,) for s in seqs if len(s) == max(len(x) for x in seqs) for lab in "ab"]
    seqs = sorted(set(seqs))
    for a in seqs:
        for b in seqs:
            assert dl_distance(a, b) == brute_osa(a, b), (a, b)
            longest = max(len(a), len(b))
            assert dl_similarity(a, b) == (1.0 - brute_osa(a, b) / longest if longest else 1.0), (a, b)


def test_similarity_of_equal_suffixes_is_the_dps_one():
    # equal suffixes return 1.0 before the DP, whose 1 - 0 / longest is the same float
    for a in [("A",), ("A", "B", "A"), tuple("abcabcab")]:
        b = tuple(list(a))  # equal, not the same object
        assert dl_distance(a, b) == brute_osa(a, b) == 0
        assert dl_similarity(a, b) == 1.0 - dl_distance(a, b) / len(a) == 1.0
    # a list and a tuple are not equal, so they take the DP, to the same answer
    assert dl_similarity((), ()) == dl_similarity(["A", "B"], ("A", "B")) == 1.0


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from("abc"), max_size=8).map(tuple),
    st.lists(st.sampled_from("abc"), max_size=8).map(tuple),
)
def test_distance_properties(a, b):
    d = dl_distance(a, b)
    assert d == brute_osa(a, b)
    assert d == dl_distance(b, a)
    assert (d == 0) == (a == b)
    assert d <= max(len(a), len(b))
    assert d >= abs(len(a) - len(b))
    assert 0.0 <= dl_similarity(a, b) <= 1.0


# ---------------------------------------------------------------------------
# aggregation


def test_micro_average():
    assert micro_average([(1.0, 2), (0.0, 2)]) == 0.5
    assert micro_average([(0.9, 9), (0.0, 1)]) == pytest.approx(0.81)
    with pytest.raises(ValueError, match="no groups"):
        micro_average([])
    with pytest.raises(ValueError, match="weights must be positive"):
        micro_average([(1.0, 0)])

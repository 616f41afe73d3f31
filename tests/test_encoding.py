import numpy as np
import pytest

from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, log_from_variants


@pytest.fixture
def vocab():
    return Vocabulary(labels=("A", "B", "C", END))


def test_vocabulary_validation():
    with pytest.raises(ValueError, match="END exactly once"):
        Vocabulary(labels=("A", "B"))
    with pytest.raises(ValueError, match="END exactly once"):
        Vocabulary(labels=(END, "A"))
    with pytest.raises(ValueError, match="END exactly once"):
        Vocabulary(labels=("A", END, "B", END))
    with pytest.raises(ValueError, match="unique"):
        Vocabulary(labels=("A", "A", END))
    with pytest.raises(ValueError, match="unique strings"):  # a suffix is printed as joined labels
        Vocabulary(labels=(0, "A", END))


def test_vocabulary_index(vocab):
    assert len(vocab) == 4
    assert vocab.index == {"A": 0, "B": 1, "C": 2, END: 3}
    assert vocab.index_of("C") == 2
    with pytest.raises(ValueError, match="'Z' is not in the vocabulary"):
        vocab.index_of("Z")


def test_encode_labels(vocab):
    assert vocab.encode_labels(("B", "A", END)) == (1, 0, 3)
    assert vocab.encode_labels(()) == ()
    with pytest.raises(ValueError, match="'Q' is not in the vocabulary"):
        vocab.encode_labels(("A", "Q"))


def test_build_vocabulary_sorted_end_last():
    log = log_from_variants([("b", "a"), ("c",)])
    v = build_vocabulary(log)
    assert v.labels == ("a", "b", "c", END)


def test_build_vocabulary_empty():
    from suffixbeam.eventlog import EventLog

    with pytest.raises(ValueError, match="empty alphabet"):
        build_vocabulary(EventLog(traces=()))

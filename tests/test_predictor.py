import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants
from suffixbeam.predictor import NGramModel, train_ngram

from logs import repetitive_variants


@pytest.fixture
def tiny_model():
    # 4x (A,B,A), 2x (A,B,B): after (A,B) the counts are A:4, B:2, END:0
    log = log_from_variants([("A", "B", "A")] * 4 + [("A", "B", "B")] * 2)
    vocab = build_vocabulary(log)
    return train_ngram(build_prefix_log(log), vocab, order=2, alpha=0.5)


def test_counts_and_laplace_smoothing(tiny_model):
    vocab = tiny_model.vocab
    assert vocab.labels == ("A", "B", END)
    probs = tiny_model.predict_proba(("A", "B"))
    # (count + 0.5) / (6 + 0.5 * 3)
    assert probs.tolist() == pytest.approx([4.5 / 7.5, 2.5 / 7.5, 0.5 / 7.5], abs=1e-15)
    # every length-3 trace ends after its third event
    assert tiny_model.predict_proba(("B", "A")).tolist() == pytest.approx(
        [0.5 / 5.5, 0.5 / 5.5, 4.5 / 5.5]
    )


def test_context_truncates_to_order(tiny_model):
    # order 2: only the last two labels matter
    long_prefix = ("B", "B", "B", "A", "B")
    assert tiny_model.context_of(long_prefix) == (0, 1)
    assert tiny_model.predict_proba(long_prefix).tolist() == (
        tiny_model.predict_proba(("A", "B")).tolist()
    )


def test_unseen_context_is_uniform(tiny_model):
    probs = tiny_model.predict_proba(("A", "A"))
    assert probs.tolist() == pytest.approx([1 / 3] * 3)


def test_alpha_zero_unseen_context_guard():
    log = log_from_variants([("A", "B")])
    vocab = build_vocabulary(log)
    model = train_ngram(build_prefix_log(log), vocab, order=2, alpha=0.0)
    assert model.predict_proba(("B", "A")).tolist() == pytest.approx([1 / 3] * 3)
    # seen contexts are pure relative frequencies at alpha = 0
    assert model.predict_proba(("A",)).tolist() == [0.0, 1.0, 0.0]


def test_empty_prefix_rejected(tiny_model):
    with pytest.raises(ValueError, match="non-empty prefix"):
        tiny_model.predict_proba(())


def test_unknown_label_rejected(tiny_model):
    with pytest.raises(ValueError, match="not in the vocabulary"):
        tiny_model.predict_proba(("A", "Z"))


def test_train_validation(tiny_model):
    log = log_from_variants([("A", "B")])
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    with pytest.raises(ValueError, match="order must be >= 1"):
        train_ngram(plog, vocab, order=0)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        train_ngram(plog, vocab, alpha=-0.1)
    from suffixbeam.eventlog import PrefixLog

    with pytest.raises(ValueError, match="empty prefix log"):
        train_ngram(PrefixLog(entries=()), vocab)


def test_save_load_round_trip(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    tiny_model.save(path)
    back = NGramModel.load(path)
    assert back.vocab == tiny_model.vocab
    assert back.order == tiny_model.order
    assert back.alpha == tiny_model.alpha
    assert set(back.counts) == set(tiny_model.counts)
    for ctx, row in tiny_model.counts.items():
        assert back.counts[ctx].tolist() == row.tolist()
    # bit-for-bit identical predictions
    assert back.predict_proba(("A", "B")).tolist() == tiny_model.predict_proba(("A", "B")).tolist()


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"kind": "nonsense"}')
    with pytest.raises(ValueError, match="not an n-gram model file"):
        NGramModel.load(path)


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=4),
)
def test_probabilities_sum_to_one_and_stay_inside_unit_interval(variants, prefix, order):
    # anchor trace keeps the full alphabet in the vocabulary
    log = log_from_variants([("A", "B", "C")] + [tuple(v) for v in variants])
    vocab = build_vocabulary(log)
    model = train_ngram(build_prefix_log(log), vocab, order=order, alpha=0.01)
    probs = model.predict_proba(tuple(prefix))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # strict bounds: with alpha > 0 nothing is ever impossible or certain
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


@settings(max_examples=100)
@given(repetitive_variants(), st.integers(min_value=1, max_value=4))
def test_counts_equal_per_entry_counting(variants, order):
    log = log_from_variants(variants)
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    want = {}
    for prefix, nxt in plog.entries:
        ctx = tuple(vocab.index_of(label) for label in prefix[-order:])
        want.setdefault(ctx, np.zeros(len(vocab), dtype=np.int64))[vocab.index_of(nxt)] += 1
    counts = train_ngram(plog, vocab, order=order).counts
    assert list(counts) == list(want)  # the same contexts, first seen first
    for ctx, row in want.items():
        assert counts[ctx].dtype == row.dtype and counts[ctx].tolist() == row.tolist()

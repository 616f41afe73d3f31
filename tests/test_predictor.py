import json
import re

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
        assert back.counts[ctx] == row
    # bit-for-bit identical predictions
    assert back.predict_proba(("A", "B")).tolist() == tiny_model.predict_proba(("A", "B")).tolist()


@pytest.mark.parametrize(
    "order, alpha",
    [(np.int64(2), 0.5), (2, np.float32(0.5)), (np.int32(2), np.float64(0.5)), (2, np.float32(0.1))],
)
def test_a_model_of_numpy_numbers_saves_python_numbers(tmp_path, order, alpha):
    log = log_from_variants([("A", "B", "A")] * 4 + [("A", "B", "B")] * 2)
    model = train_ngram(build_prefix_log(log), build_vocabulary(log), order=order, alpha=alpha)
    assert type(model.alpha) is float  # the float a model file holds, so a loaded copy predicts alike
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text())
    assert (type(payload["order"]), type(payload["alpha"])) == (int, float)
    back = NGramModel.load(path)
    assert (back.order, back.alpha) == (2, float(alpha))
    prefixes = [("A",), ("A", "B"), ("B", "B"), ("B",)]  # ("B",) is an unseen context
    for prefix in prefixes:
        assert back.predict_proba(prefix).tolist() == model.predict_proba(prefix).tolist()
    assert back.ranked_batch(prefixes, 3) == model.ranked_batch(prefixes, 3)


@pytest.mark.parametrize(
    "order, alpha, message",
    [
        (2.5, 0.5, "order must be an int, not 2.5"),
        (2.0, 0.5, "order must be an int, not 2.0"),
        (True, 0.5, "order must be an int, not True"),
        ("2", 0.5, "order must be an int, not '2'"),
        (2, True, "alpha must be a real number, not True"),
        (2, "0.5", "alpha must be a real number, not '0.5'"),
    ],
)
def test_a_model_takes_an_int_order_and_a_real_alpha(order, alpha, message):
    vocab = Vocabulary(labels=("A", END))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NGramModel(vocab=vocab, order=order, alpha=alpha, counts={})


@pytest.mark.parametrize(
    "row", [np.array([4, 2, 0]), [4, True, 0], [4, 2.0, 0], [4, np.int64(2), 0], [4, 2], [4, -2, 0], [2**63, 0, 0]],
    ids=["an-array", "a-bool", "a-float", "a-numpy-int", "too-short", "negative", "past-int64"],
)
def test_a_constructor_takes_the_count_rows_load_takes(row):
    vocab = Vocabulary(labels=("A", "B", END))
    assert NGramModel(vocab=vocab, order=2, alpha=0.5, counts={(0, 1): [4, 2, 0]}).counts == {(0, 1): [4, 2, 0]}
    message = r"^count row of context \[0, 1\] needs 3 counts >= 0, one int < 2\*\*63 per label$"
    with pytest.raises(ValueError, match=message):
        NGramModel(vocab=vocab, order=2, alpha=0.5, counts={(0, 1): row})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("order", 0, "order must be >= 1"),
        ("order", 1, r"context \[0, 1\] is longer than order 1"),
        ("alpha", -5.0, "alpha must be >= 0"),
        ("alpha", float("nan"), "alpha must be >= 0"),
        ("counts", [[[0, 1], [4, 2]]], r"context \[0, 1\] needs 3 counts >= 0"),
        ("counts", [[[0, 1], [4, -2, 0]]], r"context \[0, 1\] needs 3 counts >= 0"),
        ("counts", 5, "malformed n-gram model entry"),
        ("counts", [[[0, 1]]], "malformed n-gram model entry"),
        ("counts", [[[0, 1], [1e30, 0, 0]]], "malformed n-gram model entry"),
        ("counts", [[[0, 1], [2**63, 0, 0]]], "malformed n-gram model entry"),
        ("counts", [[[0, 1], [10**400, 0, 0]]], "malformed n-gram model entry"),
        ("vocab", 3, "malformed n-gram model entry"),
        ("vocab", ["A", "B"], "malformed n-gram model entry"),
        ("order", "two", "malformed n-gram model entry"),
        ("order", float("inf"), "malformed n-gram model entry"),
        ("alpha", [0.5], "malformed n-gram model entry"),
        ("order", 3.5, r"malformed n-gram model entry: ValueError\('order must be an int, not 3\.5'\)"),
        ("order", 2.0, r"malformed n-gram model entry: ValueError\('order must be an int, not 2\.0'\)"),
        ("order", "2", r"""malformed n-gram model entry: ValueError\("order must be an int, not '2'"\)"""),
        ("order", True, r"malformed n-gram model entry: ValueError\('order must be an int, not True'\)"),
        ("alpha", True, r"malformed n-gram model entry: ValueError\('alpha must be a real number, not True'\)"),
        ("alpha", "0.5", r"""malformed n-gram model entry: ValueError\("alpha must be a real number, not '0\.5'"\)"""),
        ("alpha", 1e400, "alpha must be >= 0 and finite"),
        ("alpha", 10**400, "malformed n-gram model entry"),
        ("vocab", [0, "B", END], "malformed n-gram model entry"),
        ("counts", [[[0, 1], [4, 2.7, 0]]], "malformed n-gram model entry"),
        ("counts", [[[0, 1], ["4", "2", "0"]]], "malformed n-gram model entry"),
        ("counts", [[[0, 1], [4, True, 0]]], "malformed n-gram model entry"),
        ("counts", [[["x", 99], [4, 2, 0]]], r"context \['x', 99\] needs label indices in \[0, 3\)"),
        ("counts", [[[-1], [4, 2, 0]]], r"context \[-1\] needs label indices in \[0, 3\)"),
        ("counts", [[[0, True], [4, 2, 0]]], r"context \[0, True\] needs label indices"),
    ],
    ids=["order-0", "order-below-its-contexts", "alpha-negative", "alpha-nan", "row-too-short",
         "row-negative", "counts-not-a-list", "count-pair-without-row", "count-past-int64",
         "count-int-past-int64", "count-int-past-float",
         "vocab-not-a-list", "vocab-without-end", "order-not-a-number", "order-infinite", "alpha-a-list",
         "order-a-fraction", "order-a-float", "order-a-string", "order-a-bool", "alpha-a-bool",
         "alpha-a-string", "alpha-infinite", "alpha-past-float", "vocab-not-strings", "count-a-fraction",
         "counts-strings", "count-a-bool", "context-not-indices", "context-index-negative", "context-a-bool"],
)
def test_load_rejects_tampered_files(tiny_model, tmp_path, key, value, message):
    path = tmp_path / "model.json"
    tiny_model.save(path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        NGramModel.load(path)


@pytest.mark.parametrize("key", ["vocab", "order", "alpha", "counts"])
def test_load_names_a_missing_entry(tiny_model, tmp_path, key):
    path = tmp_path / "model.json"
    tiny_model.save(path)
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"lacks the n-gram model entries \['{key}'\]"):
        NGramModel.load(path)


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"kind": "nonsense"}')
    with pytest.raises(ValueError, match="not an n-gram model file"):
        NGramModel.load(path)
    path.write_text('["kind", "ngram"]')
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
        assert all(type(count) is int for count in counts[ctx]) and counts[ctx] == row.tolist()

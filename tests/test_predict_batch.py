"""The batched, memoized predictor protocol against uncached references.

Both models answer ``predict_proba_batch`` through one memo per model
object. Every row they return must equal, bit for bit, the row a cold model
computes on its own: the Laplace formula for the n-gram, a single-row
``forward`` for the attention net.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import predictor as predictor_module
from suffixbeam.attention import AttentionConfig, AttentionModel, train_attention
from suffixbeam.beam import BeamConfig, baseline_beam, checked_beam, modulated_beam, perfect_fitness_checker
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants, prefix, variant_of
from suffixbeam.predictor import train_ngram

VOCAB4 = Vocabulary(labels=("A", "B", "C", END))
TINY = AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=0.0, seed=11)
DEFAULT = AttentionConfig(l_max=6, seed=3)  # d_model 32, two layers: the shapes the pipeline runs


def abc_ngram(order=2, alpha=0.01):
    log = log_from_variants(
        [("A", "B", "C")] * 4 + [("A", "C")] * 3 + [("B", "A", "A", "C")] * 2 + [("C",)]
    )
    return train_ngram(build_prefix_log(log), build_vocabulary(log), order=order, alpha=alpha)


def laplace_row(model, prefix):
    ids = model.vocab.encode_labels(prefix)
    counts = model.counts.get(ids[-model.order:], np.zeros(len(model.vocab), dtype=np.int64))
    return (counts + model.alpha) / (counts.sum() + model.alpha * len(model.vocab))


def cold_forward_row(model, prefix):
    cold = AttentionModel(model.vocab, model.config, params=model.params)
    x, mask = cold._encode([prefix])
    probs, _ = cold.forward(x, mask)
    return probs[0]


def models():
    return {
        "ngram": (abc_ngram(), laplace_row),
        "attention-tiny": (AttentionModel(VOCAB4, TINY), cold_forward_row),
        "attention-default": (AttentionModel(VOCAB4, DEFAULT), cold_forward_row),
    }


MODEL_NAMES = sorted(models())
PREFIXES = st.lists(st.sampled_from(["A", "B", "C", END]), min_size=1, max_size=9).map(tuple)


def _fresh(model):
    """The same model as a new object, so with an empty memo."""
    if isinstance(model, AttentionModel):
        return AttentionModel(model.vocab, model.config, params=model.params)
    return dataclasses.replace(model)


@settings(max_examples=60)
@given(
    name=st.sampled_from(MODEL_NAMES),
    batch=st.lists(PREFIXES, min_size=1, max_size=12),
    data=st.data(),
)
def test_batched_memoized_rows_equal_cold_single_rows(name, batch, data):
    model, reference = models()[name]
    # duplicates within one batch, and prefixes longer than the window
    batch = batch + data.draw(st.lists(st.sampled_from(batch), max_size=4))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(batch) - 1), max_size=3)) if len(batch) > 1 else [])
    want = [reference(model, p) for p in batch]
    got = []
    for lo, hi in zip([0] + cuts, cuts + [len(batch)]):
        rows = model.predict_proba_batch(batch[lo:hi])
        assert rows.shape == (hi - lo, len(model.vocab))
        got.extend(rows)
    for p, row, ref in zip(batch, got, want):
        assert np.array_equal(row, ref), p
        assert np.array_equal(model.predict_proba(p), ref)  # warm memo
        assert np.array_equal(_fresh(model).predict_proba(p), ref)  # cold memo


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_memo_stays_within_its_cap_and_refills_identically(name, monkeypatch):
    model, reference = models()[name]
    monkeypatch.setattr(predictor_module, "PREDICT_MEMO_CAP", 3)
    batches = [[("A",), ("B",), ("A", "B")], [("C", "C"), ("A",), ("B", "A", "C")], [("C",) * 6, ("A", "C")]]
    first = []
    for batch in batches:
        first.append(model.predict_proba_batch(batch))
        assert 0 < len(model.memo) <= 3
    model.memo.clear()
    for batch, rows in zip(batches, first):
        again = model.predict_proba_batch(batch)
        assert np.array_equal(again, rows)
        assert len(model.memo) <= 3
        for p, row in zip(batch, again):
            assert np.array_equal(row, reference(model, p))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_returned_rows_are_read_only(name):
    model, _ = models()[name]
    batch = model.predict_proba_batch([("A",), ("A", "B")])
    row = model.predict_proba(("A",))
    for arr in (batch, batch[0], row, *model.memo.values()):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(ValueError):
        batch[1, 0] = 1.0


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_unknown_label_raises_and_leaves_the_memo_unchanged(name):
    model, _ = models()[name]
    model.predict_proba_batch([("A",), ("B", "C")])
    before = dict(model.memo)
    with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
        model.predict_proba_batch([("C", "A"), ("A", "Z"), ("B",)])
    with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
        model.predict_proba(("Z",))
    assert model.memo.keys() == before.keys()
    assert all(model.memo[key] is row for key, row in before.items())


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_empty_prefix_in_a_batch_is_rejected(name):
    model, _ = models()[name]
    with pytest.raises(ValueError, match="non-empty"):
        model.predict_proba_batch([("A",), ()])
    assert model.memo == {}


def test_replacing_attention_params_empties_the_memo():
    model = AttentionModel(VOCAB4, TINY)
    old = model.predict_proba(("A", "B"))
    assert model.memo
    model.params = {k: v * 1.5 for k, v in model.params.items()}
    assert model.memo == {}
    new = model.predict_proba(("A", "B"))
    assert not np.array_equal(new, old)
    assert np.array_equal(new, cold_forward_row(model, ("A", "B")))


def test_retrained_models_start_with_an_empty_memo():
    log = log_from_variants([("A", "B", "C")] * 6 + [("A", "C")] * 4)
    vocab, plog = build_vocabulary(log), build_prefix_log(log)
    model, _ = train_attention(plog, vocab, TINY, epochs=2, batch_size=4)
    assert model.memo == {}
    assert np.array_equal(model.predict_proba(("A",)), cold_forward_row(model, ("A",)))
    ngram = train_ngram(plog, vocab, order=2)
    ngram.predict_proba(("A",))
    recounted = dataclasses.replace(ngram, counts={})
    assert recounted.memo == {} and ngram.memo
    assert recounted.predict_proba(("A",)).tolist() == [0.25] * 4


class FreshRows:
    """Every row from a new copy of the model: no memo, no batching."""

    def __init__(self, model):
        self.model = model
        self.vocab = model.vocab

    def predict_proba(self, prefix):
        return _fresh(self.model).predict_proba(prefix)

    def predict_proba_batch(self, prefixes):
        return np.array([self.predict_proba(p) for p in prefixes])


@pytest.fixture(scope="module")
def synth_attention(synth):
    return AttentionModel(build_vocabulary(synth.train_log), AttentionConfig(l_max=20, seed=5))


@pytest.mark.parametrize("kind", ["ngram", "attention"])
def test_beams_equal_with_memoized_and_fresh_rows(kind, synth, synth_ngram, synth_attention):
    model = synth_ngram if kind == "ngram" else synth_attention
    model = _fresh(model)
    fresh = FreshRows(model)
    checker = perfect_fitness_checker(synth.net)
    prefixes = sorted({prefix(variant_of(t), k) for t in synth.test_log.traces[:40] for k in (3, 5)})
    for p in prefixes:
        for w in (0.0, 0.5, 0.85):
            config = BeamConfig(b_size=3, max_iter=12, w=w)
            assert modulated_beam(p, synth.net, model, config) == modulated_beam(p, synth.net, fresh, config)
        config = BeamConfig(b_size=3, max_iter=12, max_size=4)
        assert baseline_beam(p, model, config) == baseline_beam(p, fresh, config)
        assert checked_beam(p, checker, model, config) == checked_beam(p, checker, fresh, config)
    assert model.memo  # the memoized side really was memoized


def test_one_forward_per_call_over_its_distinct_misses():
    model = AttentionModel(VOCAB4, TINY)
    rows_forwarded = []
    forward = model.forward
    model.forward = lambda x, mask: rows_forwarded.append(x.shape[0]) or forward(x, mask)
    model.predict_proba_batch([("A",), ("B",)])
    # ("C", "A", "B", "C", "A") shares its window with ("A", "B", "C", "A")
    model.predict_proba_batch([("A",), ("C",), ("C",), ("A", "B", "C", "A"), ("C", "A", "B", "C", "A")])
    model.predict_proba_batch([("B",), ("C",)])  # all hits: no forward
    assert rows_forwarded == [2, 2]

"""The batched, memoized predictor protocol against uncached references.

Both models compute ``predict_proba_batch`` rows afresh and answer
``ranked_batch`` through one memo of ranked records per model object,
``ranked``. Every row they return must equal, bit for bit, the row a cold
model computes on its own: the Laplace formula for the n-gram, a single-row
``forward`` for the attention net. Every record must equal the stable
ranking of that cold row with its floored logs.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import predictor as predictor_module
from suffixbeam.attention import AttentionConfig, AttentionModel, train_attention
from suffixbeam.beam import BeamConfig, baseline_beam, checked_beam, modulated_beam, perfect_fitness_checker
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants, prefix, variant_of
from suffixbeam.predictor import PROB_FLOOR, NGramModel, memoized_ranks, ranked_rows, train_ngram

from nets import wide_net

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
    n = len(model.vocab)
    counts = model.counts.get(ids[-model.order:], np.zeros(n, dtype=np.int64))
    if counts.sum() + model.alpha * n == 0:  # alpha = 0 and an unseen context
        return np.full(n, 1.0 / n)
    return (counts + model.alpha) / (counts.sum() + model.alpha * n)


def cold_forward_row(model, prefix):
    cold = AttentionModel(model.vocab, model.config, params=model.params)
    x, mask = cold._encode([prefix])
    probs, _ = cold.forward(x, mask)
    return probs[0]


def ranking(row, k):
    """The uncached record: stable top-k of a cold row, floored logs."""
    return tuple(
        (idx, math.log(row[idx] if row[idx] > PROB_FLOOR else PROB_FLOOR))
        for idx in np.argsort(-row, kind="stable")[:k].tolist()
    )


def models():
    return {
        "ngram": (abc_ngram(), laplace_row),
        "ngram-alpha0": (abc_ngram(alpha=0.0), laplace_row),  # exact zeros hit the floor
        "attention-tiny": (AttentionModel(VOCAB4, TINY), cold_forward_row),
        "attention-default": (AttentionModel(VOCAB4, DEFAULT), cold_forward_row),
    }


MODEL_NAMES = sorted(models())
PREFIXES = st.lists(st.sampled_from(["A", "B", "C", END]), min_size=1, max_size=9).map(tuple)


def _fresh(model):
    """The same model as a new object, so with an empty ``ranked`` memo."""
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
        assert np.array_equal(model.predict_proba(p), ref)  # a single-row call
        assert np.array_equal(_fresh(model).predict_proba(p), ref)  # a new model object


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_unknown_label_raises_and_leaves_the_memo_unchanged(name):
    model, _ = models()[name]
    model.ranked_batch([("A",), ("C", "C")], 2)
    ranked_before = dict(model.ranked[2])
    with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
        model.predict_proba_batch([("C", "A"), ("A", "Z"), ("B",)])
    with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
        model.predict_proba(("Z",))
    for k in (2, 3):  # the same k, and one that would empty the ranked memo
        with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
            model.ranked_batch([("C", "A"), ("A", "Z"), ("B",)], k)
    with pytest.raises(ValueError, match="^label 'Z' is not in the vocabulary$"):
        model.ranked_batch([("B", "Z") + ("A",) * (model.context_len - 1)], 2)  # Z opens the window
    assert list(model.ranked) == [2] and model.ranked[2] == ranked_before


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_empty_prefix_in_a_batch_is_rejected(name):
    model, _ = models()[name]
    with pytest.raises(ValueError, match="non-empty"):
        model.predict_proba_batch([("A",), ()])
    keys = [("A",), ("C", "B"), ("A",)]
    for warm in (False, True):
        if warm:  # every other key hits, so only the empty prefix is left to reject
            model.ranked_batch(keys, 2)
        before = {k: dict(table) for k, table in model.ranked.items()}
        for at in range(len(keys) + 1):
            for k in (2, 3):  # the memo's k, and one that would empty it
                with pytest.raises(ValueError, match="non-empty"):
                    model.ranked_batch(keys[:at] + [()] + keys[at:], k)
                assert model.ranked == before


@settings(max_examples=60)
@given(
    name=st.sampled_from(MODEL_NAMES),
    batch=st.lists(PREFIXES, min_size=1, max_size=12),
    data=st.data(),
)
def test_ranked_records_equal_the_ranking_of_cold_rows(name, batch, data):
    model, reference = models()[name]
    # duplicates within one batch, and prefixes longer than the window
    batch = batch + data.draw(st.lists(st.sampled_from(batch), max_size=4))
    ks = data.draw(st.lists(st.integers(1, len(model.vocab) + 1), min_size=1, max_size=3), label="ks")
    cap = data.draw(st.sampled_from([3, predictor_module.PREDICT_MEMO_CAP]), label="cap")
    replaced = data.draw(st.booleans(), label="replaced")

    def check(model):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictor_module, "PREDICT_MEMO_CAP", cap)
            for k in ks:
                want = [ranking(reference(model, p), k) for p in batch]
                assert model.ranked_batch(batch, k) == want
                # warm, or refilled where a table past its cap was emptied
                assert model.ranked_batch(batch[::-1], k) == want[::-1]
                assert list(model.ranked) == [k] and 0 < len(model.ranked[k]) <= cap

    check(model)
    if replaced:
        if isinstance(model, AttentionModel):
            model.params = {key: v * 1.5 for key, v in model.params.items()}
        else:
            model = dataclasses.replace(model, alpha=model.alpha + 0.05)
        assert model.ranked == {}
        check(model)


def test_a_failed_compute_leaves_the_ranked_memo_unchanged():
    memo = {}
    first = memoized_ranks(memo, ["x", "y", "x"], 2, lambda keys: [np.array([0.2, 0.5, 0.3])] * len(keys))
    assert first[0] == first[2] == ((1, math.log(0.5)), (2, math.log(0.3)))
    before = {k: dict(table) for k, table in memo.items()}

    def fail(keys):
        raise RuntimeError("no rows")

    for k in (2, 3):  # a hit-and-miss call at the same k, and a call at a new k
        with pytest.raises(RuntimeError):
            memoized_ranks(memo, ["x", "z"], k, fail)
        assert memo == before


def test_replacing_attention_params_empties_the_memo():
    model = AttentionModel(VOCAB4, TINY)
    old = model.ranked_batch([("A", "B")], 2)
    assert model.ranked
    model.params = {k: v * 1.5 for k, v in model.params.items()}
    assert model.ranked == {}
    new = model.ranked_batch([("A", "B")], 2)
    assert new != old
    assert new == [ranking(cold_forward_row(model, ("A", "B")), 2)]


def test_retrained_models_start_with_an_empty_memo():
    log = log_from_variants([("A", "B", "C")] * 6 + [("A", "C")] * 4)
    vocab, plog = build_vocabulary(log), build_prefix_log(log)
    model, _ = train_attention(plog, vocab, TINY, epochs=2, batch_size=4)
    assert model.ranked == {}
    assert model.ranked_batch([("A",)], 2) == [ranking(cold_forward_row(model, ("A",)), 2)]
    ngram = train_ngram(plog, vocab, order=2)
    ngram.ranked_batch([("A",)], 2)
    recounted = dataclasses.replace(ngram, counts={})
    assert recounted.ranked == {} and ngram.ranked
    assert recounted.ranked_batch([("A",)], 2) == [ranking(np.full(4, 0.25), 2)]


class FreshRows:
    """Every row from a new copy of the model: no memo, no batching."""

    def __init__(self, model):
        self.model = model
        self.vocab = model.vocab

    def predict_proba(self, prefix):
        return _fresh(self.model).predict_proba(prefix)

    def predict_proba_batch(self, prefixes):
        return np.array([self.predict_proba(p) for p in prefixes])

    def ranked_batch(self, prefixes, k):
        return ranked_rows(self.predict_proba_batch(prefixes), k)


@pytest.fixture(scope="module")
def synth_attention(synth):
    return AttentionModel(build_vocabulary(synth.train_log), AttentionConfig(l_max=20, seed=5))


def wide_playouts(n_branches, n, seed):
    """Runs of ``wide_net(n_branches)``: Start, some branches in any order, an outcome."""
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(n):
        done = [f"P{b}" for b in rng.permutation(n_branches).tolist() if rng.random() < 0.85]
        runs.append(("Start", *done, "Close" if rng.random() < 0.7 else "Reject"))
    return runs


@pytest.fixture(scope="module")
def wide_attention():
    """The online serving shape: an attention model of a wide parallel net's runs."""
    log = log_from_variants(wide_playouts(4, 60, seed=1))
    model, _ = train_attention(
        build_prefix_log(log), build_vocabulary(log), AttentionConfig(l_max=8, seed=5), epochs=2
    )
    prefixes = sorted({run[:k] for run in wide_playouts(4, 40, seed=2) for k in range(1, len(run))})
    return model, wide_net(4), prefixes


def test_beams_equal_with_memoized_and_fresh_rows_on_the_online_path(wide_attention):
    model, net, prefixes = wide_attention
    model = _fresh(model)
    fresh = FreshRows(model)
    config = BeamConfig(b_size=3, max_iter=7, w=0.85)
    for p in prefixes:
        assert modulated_beam(p, net, model, config) == modulated_beam(p, net, fresh, config)
    assert model.ranked  # the beam filled the ranked memo


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
    assert model.ranked  # the memoized side really was memoized


class RankedOnly:
    """All a beam may ask of a predictor: ``vocab`` and ``ranked_batch``."""

    def __init__(self, rows):
        self.vocab = rows.vocab
        self._rows = rows

    def ranked_batch(self, prefixes, k):
        return self._rows.ranked_batch(prefixes, k)


def test_every_beam_runs_on_vocab_and_ranked_batch_alone(synth, synth_ngram):
    fresh = FreshRows(synth_ngram)
    lean = RankedOnly(fresh)
    assert not hasattr(lean, "predict_proba") and not hasattr(lean, "predict_proba_batch")
    checker = perfect_fitness_checker(synth.net)
    prefixes = sorted({prefix(variant_of(t), k) for t in synth.test_log.traces[:40] for k in (3, 5)})
    for p in prefixes:
        for w in (0.0, 0.85):
            config = BeamConfig(b_size=3, max_iter=12, w=w)
            assert modulated_beam(p, synth.net, lean, config) == modulated_beam(p, synth.net, fresh, config)
        config = BeamConfig(b_size=3, max_iter=12, max_size=4)
        assert baseline_beam(p, lean, config) == baseline_beam(p, fresh, config)
        assert checked_beam(p, checker, lean, config) == checked_beam(p, checker, fresh, config)


@pytest.mark.parametrize("kind", ["ngram", "attention"])
def test_a_repeated_request_on_a_warm_model_computes_no_row(kind, synth, synth_ngram, wide_attention, monkeypatch):
    if kind == "ngram":
        model, net = _fresh(synth_ngram), synth.net
        prefixes = sorted({prefix(variant_of(t), 4) for t in synth.test_log.traces[:20]})
        row_method = (NGramModel, "_laplace_row")
    else:
        (model, net, prefixes), row_method = wide_attention, (AttentionModel, "_rows")
        model = _fresh(model)
    config = BeamConfig(b_size=3, max_iter=7, w=0.85)
    first = [modulated_beam(p, net, model, config) for p in prefixes]
    computed, encoded = [], []
    original, encode = getattr(*row_method), Vocabulary.encode_labels
    monkeypatch.setattr(*row_method, lambda self, arg: computed.append(arg) or original(self, arg))
    monkeypatch.setattr(Vocabulary, "encode_labels", lambda self, arg: encoded.append(arg) or encode(self, arg))
    assert [modulated_beam(p, net, model, config) for p in prefixes] == first
    assert computed == [] and encoded == []  # a warm request encodes no label
    model.ranked.clear()  # the spies do see a cold pass
    assert [modulated_beam(p, net, model, config) for p in prefixes] == first
    assert computed and encoded


def test_one_forward_per_call_over_its_distinct_misses():
    model = AttentionModel(VOCAB4, TINY)
    rows_forwarded = []
    forward = model.forward
    model.forward = lambda x, mask, **kwargs: rows_forwarded.append(x.shape[0]) or forward(x, mask, **kwargs)
    model.ranked_batch([("A",), ("B",)], 2)
    # ("C", "A", "B", "C", "A") shares its window with ("A", "B", "C", "A")
    model.ranked_batch([("A",), ("C",), ("C",), ("A", "B", "C", "A"), ("C", "A", "B", "C", "A")], 2)
    model.ranked_batch([("B",), ("C",)], 2)  # all hits: no forward
    assert rows_forwarded == [2, 2]


# ---------------------------------------------------------------------------
# the one context rule: a model reads the last context_len labels, no more


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_a_label_before_the_window_is_not_read(name):
    model, _ = models()[name]
    n = model.context_len
    windows = [("C", "A", "B", "C", "A", END)[:n], ("A",) * n, ("B", "C")]
    for before in (("A",), ("Bogus",), ("Bogus", END, "C") * 3):
        # a short window is read whole, so a label before it is read too
        full = [before + w if len(w) == n else w for w in windows]
        assert [model.window(p) for p in full] == windows
        assert np.array_equal(model.predict_proba_batch(full), model.predict_proba_batch(windows))
        assert model.ranked_batch(full, 2) == _fresh(model).ranked_batch(windows, 2)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_prefixes_with_one_window_share_one_memo_entry_and_one_row(name, monkeypatch):
    model, reference = models()[name]
    window = ("A", "B", "C", "A", "B")[-model.context_len:]
    computed = []
    rows = type(model)._rows
    monkeypatch.setattr(type(model), "_rows", lambda self, ws: computed.append(list(ws)) or rows(self, ws))
    records = model.ranked_batch([("C",) + window, ("Bogus", "A") + window, window], 3)
    assert computed == [[window]]
    assert records == [ranking(reference(model, window), 3)] * 3
    assert list(model.ranked[3]) == [window]
    assert model.ranked_batch([("B", "B") + window], 3) == records[:1] and len(computed) == 1

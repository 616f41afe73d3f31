import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import attention
from suffixbeam.attention import (
    AttentionConfig,
    AttentionModel,
    EpochStats,
    _prefix_chunks,
    sinusoidal_encoding,
    train_attention,
)
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants

from gradient_oracle import finite_difference_check
from logs import repetitive_variants

VOCAB4 = Vocabulary(labels=("A", "B", "C", END))

TINY = AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=0.0, seed=11)


def tiny_model():
    return AttentionModel(VOCAB4, TINY)


def test_config_validation():
    with pytest.raises(ValueError, match="l_max"):
        AttentionConfig(l_max=1)
    with pytest.raises(ValueError, match="divisible"):
        AttentionConfig(l_max=5, d_model=10, n_heads=4)
    with pytest.raises(ValueError, match="dropout"):
        AttentionConfig(l_max=5, dropout=1.0)
    for field, value in (("n_heads", 0), ("d_ff", 0), ("n_layers", -1), ("ln_eps", 0.0),
                         ("ln_eps", Fraction(1, 10**400))):  # 0.0 as a float
        with pytest.raises(ValueError, match=field):
            AttentionConfig(**{"l_max": 5, "d_model": 4, "n_heads": 2, field: value})
    with pytest.raises(ValueError, match="d_model must be an integer"):
        AttentionConfig(l_max=5, d_model=4.0, n_heads=2)
    with pytest.raises(ValueError, match="^n_layers must be an integer, not True$"):  # a bool is no integer
        AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=True)
    for field, value, message in (
        ("ln_eps", True, "ln_eps must be a real number, not True"),  # a bool is no real number either
        ("dropout", False, "dropout must be a real number, not False"),
        ("dropout", "0.1", "dropout must be a real number, not '0.1'"),
        ("positional_encoding", "false", "positional_encoding must be a bool, not 'false'"),  # truthy
        ("positional_encoding", 1, "positional_encoding must be a bool, not 1"),
        ("ln_eps", 10**400, f"ln_eps must be a real number a float can hold, not {10**400!r}"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttentionConfig(**{"l_max": 5, "d_model": 4, "n_heads": 2, field: value})
    numpy_fields = AttentionConfig(l_max=5, d_model=4, n_heads=2, dropout=np.float32(0.25), ln_eps=np.float64(1e-6),
                                   positional_encoding=np.bool_(False))
    assert numpy_fields.dropout == 0.25 and not numpy_fields.positional_encoding


def test_sinusoidal_encoding_values():
    pe = sinusoidal_encoding(4, 6)
    assert pe.shape == (4, 6)
    assert pe[0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert pe[2, 0] == pytest.approx(math.sin(2.0))
    assert pe[2, 1] == pytest.approx(math.cos(2.0))
    assert pe[3, 2] == pytest.approx(math.sin(3.0 / 10000.0 ** (2.0 / 6.0)))


def test_forward_rows_are_distributions():
    model = tiny_model()
    x, mask = model._encode([("A",), ("B", "C", "A"), ("C",) * 4])
    probs = model.forward(x, mask)[0]
    assert probs.shape == (3, 4)
    assert np.all(np.isfinite(probs))
    assert np.all(probs > 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_padding_rows_cannot_influence_output():
    model = tiny_model()
    x, mask = model._encode([("A", "B")])
    clean = model.forward(x, mask)[0]
    dirty = x.copy()
    dirty[0, 2:] = 7.5  # garbage one-hots beyond the true length
    got = model.forward(dirty, mask)[0]
    assert np.array_equal(clean, got)  # bitwise: masking is exact, not approximate


def test_forward_rejects_an_all_padding_row():
    model = tiny_model()
    x, mask = model._encode([("A",), ("B", "C")])
    mask[1] = False  # an empty prefix: no real key to attend to, nothing to pool
    with pytest.raises(ValueError, match="real position"):
        model.forward(x, mask)


def test_prefix_window_keeps_most_recent_labels():
    model = tiny_model()
    long_prefix = ("C", "C", "B", "A", "B", "C", "A")
    want = model.predict_proba(long_prefix[-4:])  # l_max - 1 = 4
    got = model.predict_proba(long_prefix)
    assert np.array_equal(want, got)


def test_predict_proba_rejects_empty_prefix():
    with pytest.raises(ValueError, match="non-empty"):
        tiny_model().predict_proba(())


def test_gradients_match_finite_differences():
    model = tiny_model()
    x, mask = model._encode([("A", "B"), ("C",), ("B", "B", "A")])
    targets = np.array([2, 3, 0])
    worst = finite_difference_check(model, x, mask, targets)
    assert worst < 1e-4


def test_gradient_check_covers_positional_encoding_off():
    config = AttentionConfig(
        l_max=4, d_model=4, n_heads=1, n_layers=1, d_ff=4, dropout=0.0, positional_encoding=False, seed=2
    )
    model = AttentionModel(VOCAB4, config)
    x, mask = model._encode([("B", "A"), ("A",)])
    worst = finite_difference_check(model, x, mask, np.array([1, 3]))
    assert worst < 1e-4


def test_dropout_changes_training_forward_only():
    model = tiny_model()
    cfg = AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=0.5, seed=11)
    dropped = AttentionModel(VOCAB4, cfg, params=model.params)
    x, mask = model._encode([("A", "B")])
    # inference path (no rng): dropout is inert
    assert np.array_equal(dropped.forward(x, mask)[0], model.forward(x, mask)[0])
    # training path: the rng masks pooled features, changing the output
    probs_a, _ = dropped.forward(x, mask, dropout_rng=np.random.default_rng(0))
    probs_b, _ = dropped.forward(x, mask, dropout_rng=np.random.default_rng(1))
    assert not np.array_equal(probs_a, probs_b)


def test_deterministic_construction_and_inference():
    a = tiny_model()
    b = tiny_model()
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    x, mask = a._encode([("A", "C", "B")])
    assert np.array_equal(a.forward(x, mask)[0], b.forward(x, mask)[0])


def test_save_load_round_trip(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.npz"
    model.save(path)
    back = AttentionModel.load(path)
    assert back.config == model.config
    assert back.vocab == model.vocab
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert np.array_equal(back.predict_proba(("A", "B")), model.predict_proba(("A", "B")))


@pytest.mark.parametrize("config", [
    AttentionConfig(l_max=np.int64(5), d_model=np.int32(4), n_heads=np.int64(2), n_layers=np.int8(1),
                    d_ff=np.uint16(8), dropout=np.float32(0.0), positional_encoding=np.bool_(True),
                    seed=np.int64(11), ln_eps=np.float32(1e-5)),
    AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=Fraction(1, 4), seed=11),
], ids=["numpy", "fraction"])
def test_a_config_of_other_numbers_saves_python_numbers(tmp_path, config):
    model = AttentionModel(VOCAB4, config)
    path = tmp_path / "model.npz"
    model.save(path)
    back = AttentionModel.load(path)
    assert back.config == config
    assert all(type(v) in (int, float, bool) for v in dataclasses.astuple(back.config))
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])
    assert np.array_equal(back.predict_proba(("A", "B")), model.predict_proba(("A", "B")))


def test_a_fraction_config_computes_as_the_equal_floats(tmp_path):
    exact = AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=Fraction(1, 4),
                            ln_eps=Fraction(1, 2**16), seed=11)
    plain = dataclasses.replace(exact, dropout=0.25, ln_eps=2.0**-16)
    assert type(exact.dropout) is float and type(exact.ln_eps) is float and exact == plain
    log = log_from_variants([("A", "B", "C"), ("A", "C"), ("B", "A", "C", "A")] * 3)
    trained = [train_attention(build_prefix_log(log), VOCAB4, config, epochs=2, batch_size=4)[0]
               for config in (exact, plain)]
    prefixes = [("A",), ("A", "B"), ("B", "A", "C", "A")]
    rows = trained[1].predict_proba_batch(prefixes)
    assert np.array_equal(trained[0].predict_proba_batch(prefixes), rows)  # dropout and eps bit for bit
    path = tmp_path / "model.npz"
    trained[0].save(path)
    back = AttentionModel.load(path)
    assert back.config == exact and dataclasses.astuple(back.config) == dataclasses.astuple(exact)
    assert np.array_equal(back.predict_proba_batch(prefixes), rows)


# The training step runs the encoder once per distinct prefix of a batch and
# gathers its pooled rows back per entry (``forward(..., rows=...)``). These
# compare that path to the plain per-entry batch.

DROPPY = AttentionConfig(l_max=5, d_model=8, n_heads=2, n_layers=2, d_ff=8, dropout=0.3, seed=4)
DISTINCT = [("A", "B"), ("C",), ("B", "B", "A", "C"), ("A",)]
ROWS = np.array([0, 1, 0, 2, 3, 1, 0])
ROW_TARGETS = np.array([2, 3, 1, 0, 3, 2, 3])
# The key bias cannot move a softmax over keys, so its gradient is zero up to
# rounding (about 1e-18 here); atol covers that, rtol everything else.
GRAD_ATOL = 1e-15


def _forward_backward(model, x, mask, targets, seed, rows=None):
    rng = np.random.default_rng(seed)
    probs, cache = model.forward(x, mask, dropout_rng=rng, rows=rows)
    return probs, model.backward(cache, targets), rng


def test_identity_rows_equal_the_plain_call_bit_for_bit():
    model = AttentionModel(VOCAB4, DROPPY)
    x, mask = model._encode(DISTINCT)
    targets = ROW_TARGETS[: len(DISTINCT)]
    want_probs, want_grads, _ = _forward_backward(model, x, mask, targets, seed=3)
    probs, grads, _ = _forward_backward(model, x, mask, targets, seed=3, rows=np.arange(len(DISTINCT)))
    assert np.array_equal(probs, want_probs)
    assert sorted(grads) == sorted(want_grads)
    for name in want_grads:
        assert np.array_equal(grads[name], want_grads[name]), name


def test_repeated_prefixes_match_the_expanded_batch():
    model = AttentionModel(VOCAB4, DROPPY)
    x, mask = model._encode(DISTINCT)
    want_probs, want_grads, want_rng = _forward_backward(model, x[ROWS], mask[ROWS], ROW_TARGETS, seed=8)
    probs, grads, rng = _forward_backward(model, x, mask, ROW_TARGETS, seed=8, rows=ROWS)
    # same dropout draws: both rngs advance by one (B, d) draw
    assert rng.bit_generator.state == want_rng.bit_generator.state
    np.testing.assert_allclose(probs, want_probs, rtol=1e-10)
    for name in want_grads:
        np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-10, atol=GRAD_ATOL, err_msg=name)


def test_gather_gradients_match_finite_differences_of_the_expanded_batch():
    model = tiny_model()
    x, mask = model._encode(DISTINCT)
    assert finite_difference_check(model, x[ROWS], mask[ROWS], ROW_TARGETS) < 1e-4
    want = model.backward(model.forward(x[ROWS], mask[ROWS])[1], ROW_TARGETS)
    got = model.backward(model.forward(x, mask, rows=ROWS)[1], ROW_TARGETS)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=GRAD_ATOL, err_msg=name)


def test_a_forward_that_no_backward_follows_keeps_no_activations():
    model = AttentionModel(VOCAB4, DROPPY)
    x, mask = model._encode(DISTINCT)
    probs, cache = model.forward(x, mask, rows=ROWS)
    bare_probs, bare = model.forward(x, mask, rows=ROWS, for_backward=False)
    assert np.array_equal(bare_probs, probs) and np.array_equal(bare["pooled"], cache["pooled"])
    assert sorted(bare) == ["pooled", "probs"] and len(cache["layers"]) == DROPPY.n_layers
    # training keeps the activations of its steps only; its validation loss and a ranked batch keep none
    calls, real_forward = [], AttentionModel.forward

    def forward(model, x, mask, dropout_rng=None, rows=None, for_backward=True):
        calls.append((dropout_rng is not None, for_backward))
        return real_forward(model, x, mask, dropout_rng=dropout_rng, rows=rows, for_backward=for_backward)

    log = log_from_variants([("A", "B", "C")] * 6 + [("A", "C")] * 4)
    with mock.patch.object(AttentionModel, "forward", forward):
        trained, _ = train_attention(build_prefix_log(log), build_vocabulary(log), TINY, epochs=2, batch_size=4)
        trained.ranked_batch([("A",), ("A", "B")], 2)
    assert set(calls) == {(True, True), (False, False)} and calls[-1] == (False, False)


def test_a_forward_that_no_backward_follows_frees_each_layer_as_it_goes():
    model = AttentionModel(VOCAB4, AttentionConfig(l_max=8, n_layers=4))
    rng = np.random.default_rng(0)
    x, mask = model._encode([tuple(rng.choice(["A", "B", "C"], size=rng.integers(1, 8))) for _ in range(200)])
    peaks = []
    for for_backward in (True, False):
        tracemalloc.start()
        try:
            model.forward(x, mask, for_backward=for_backward)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # four layers of activations against about one (0.36 of the peak when measured)
    assert peaks[1] < 0.5 * peaks[0]


def test_trained_params_own_separate_memory_and_the_memo_is_empty():
    log = log_from_variants([("A", "B", "C")] * 6 + [("A", "C")] * 4)
    model, _ = train_attention(build_prefix_log(log), build_vocabulary(log), TINY, epochs=2, batch_size=4)
    arrays = list(model.params.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert model.ranked == {}


def test_training_learns_a_deterministic_rule():
    # B always follows A, C always follows B, traces end after C
    log = log_from_variants([("A", "B", "C")] * 30)
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    config = AttentionConfig(l_max=6, d_model=8, n_heads=2, n_layers=1, d_ff=16, dropout=0.0, seed=5)
    model, history = train_attention(plog, vocab, config, epochs=30, batch_size=16, learning_rate=3e-3)
    assert len(history) == 30
    assert all(isinstance(h, EpochStats) for h in history)
    assert history[-1].train_loss < history[0].train_loss
    probs = model.predict_proba(("A",))
    assert vocab.labels[int(np.argmax(probs))] == "B"
    probs = model.predict_proba(("A", "B", "C"))
    assert vocab.labels[int(np.argmax(probs))] == END


def test_training_restores_best_epoch():
    log = log_from_variants([("A", "B")] * 20 + [("A", "C")] * 10)
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    config = AttentionConfig(l_max=4, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=0.0, seed=9)
    model, history = train_attention(plog, vocab, config, epochs=8, batch_size=8, learning_rate=5e-3)
    best = min(h.val_loss for h in history)
    x, mask = model._encode([variant for variant, _ in plog.entries])
    y = np.array([vocab.index_of(t) for _, t in plog.entries])
    # the returned weights reproduce the best tracked validation loss
    rng = np.random.default_rng(config.seed + 1)
    order = rng.permutation(len(y))
    n_val = int(round(len(y) * 0.1))
    val_idx = order[:n_val]
    probs = model.forward(x[val_idx], mask[val_idx])[0]
    assert model.loss(probs, y[val_idx]) == pytest.approx(best, abs=1e-12)


def test_training_validation_errors():
    log = log_from_variants([("A", "B")])
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    config = AttentionConfig(l_max=4, d_model=4, n_heads=2, n_layers=1, d_ff=8)
    from suffixbeam.eventlog import PrefixLog

    with pytest.raises(ValueError, match="prefix log is empty"):
        train_attention(PrefixLog(entries=()), vocab, config)
    with pytest.raises(ValueError, match="epochs and batch_size"):
        train_attention(plog, vocab, config, epochs=0)
    with pytest.raises(ValueError, match="epochs and batch_size"):
        train_attention(plog, vocab, config, batch_size=0)
    with pytest.raises(ValueError, match="val_fraction"):
        train_attention(plog, vocab, config, val_fraction=-0.5)
    with pytest.raises(ValueError, match="val_fraction"):
        train_attention(plog, vocab, config, val_fraction=1.0)
    for bad in (float("nan"), float("inf"), 0.0, -1e-3):
        with pytest.raises(ValueError, match="learning_rate"):
            train_attention(plog, vocab, config, learning_rate=bad)


# A model file is input: whatever it holds, load gives a valid model or a
# ValueError that names what is wrong.


def _set_meta(arrays, meta):
    arrays["__meta__"] = np.array(json.dumps(meta))


def _set_config(arrays, meta, **fields):
    _set_meta(arrays, {**meta, "config": {**meta["config"], **fields}})


# case -> (the name the error must give, an edit of the saved arrays and meta)
TAMPERINGS = {
    "no-w_out": ("w_out", lambda a, meta: a.pop("w_out")),
    "no-meta": ("__meta__", lambda a, meta: a.pop("__meta__")),
    "meta-not-json": ("__meta__", lambda a, meta: a.update(__meta__=np.array("{not json"))),
    "meta-no-config": ("config", lambda a, meta: _set_meta(a, {"labels": meta["labels"]})),
    "meta-unknown-field": ("__meta__", lambda a, meta: _set_config(a, meta, width=3)),
    "meta-bad-labels": ("__meta__", lambda a, meta: _set_meta(a, {**meta, "labels": ["A"]})),
    # JSON true is a bool, which Python would take as the integer 1
    "meta-bool-d_model": ("d_model must be an integer", lambda a, meta: _set_config(a, meta, d_model=True)),
    "meta-bool-seed": ("seed must be an integer", lambda a, meta: _set_config(a, meta, seed=True)),
    "meta-bool-ln_eps": ("ln_eps must be a real number", lambda a, meta: _set_config(a, meta, ln_eps=True)),
    "meta-string-positional_encoding": (
        "positional_encoding must be a bool", lambda a, meta: _set_config(a, meta, positional_encoding="false")),
    "extra-param": ("l1_wq", lambda a, meta: a.update(l1_wq=np.zeros((4, 4)))),
    "w_out-short": ("w_out", lambda a, meta: a.update(w_out=a["w_out"][:, :-1])),
    "l0_wq-nan": ("l0_wq", lambda a, meta: a["l0_wq"].fill(np.nan)),
    "b_in-inf": ("b_in", lambda a, meta: a["b_in"].__setitem__(0, np.inf)),
    "w_in-strings": ("w_in", lambda a, meta: a.update(w_in=np.full((4, 4), "x"))),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_load_rejects_tampered_files(tmp_path, case):
    path = tmp_path / "model.npz"
    tiny_model().save(path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    name, edit = TAMPERINGS[case]
    edit(arrays, json.loads(str(arrays["__meta__"])))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(name)):
        AttentionModel.load(path)


@pytest.mark.parametrize("content", [b"PK\x03\x04 truncated", b"not an archive"])
def test_load_rejects_files_that_are_no_archive(tmp_path, content):
    path = tmp_path / "model.npz"
    path.write_bytes(content)
    with pytest.raises(ValueError):
        AttentionModel.load(path)


def test_constructor_checks_params_against_config_and_vocabulary():
    params = tiny_model().params
    wider = Vocabulary(labels=("A", "B", "C", "D", END))
    with pytest.raises(ValueError, match="'w_in'"):
        AttentionModel(wider, TINY, params=params)
    with pytest.raises(ValueError, match=r"missing \['l0_wq'"):
        AttentionModel(VOCAB4, TINY, params={k: v for k, v in params.items() if k != "l0_wq"})
    deeper = AttentionConfig(l_max=5, d_model=4, n_heads=2, n_layers=2, d_ff=8, dropout=0.0, seed=11)
    with pytest.raises(ValueError, match=r"missing \['l1_b1'"):
        AttentionModel(VOCAB4, deeper, params=params)


# Each epoch runs over chunks of entries that share a prefix (_prefix_chunks).


@st.composite
def prefix_ids(draw):
    """Prefix ids of a random prefix log's entries, as train_attention numbers them."""
    entries = build_prefix_log(log_from_variants(draw(repetitive_variants()))).entries
    ids: dict = {}
    return np.array([ids.setdefault(variant, len(ids)) for variant, _ in entries])


@settings(max_examples=100)
@given(prefix_ids(), st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_prefix_chunks_cover_every_entry_once_in_capped_runs_of_one_prefix(ids, chunk, seed):
    chunks = _prefix_chunks(ids, chunk, np.random.default_rng(seed))
    order = np.concatenate(chunks)
    assert sorted(order.tolist()) == list(range(len(ids)))
    per_prefix = {}
    for c in chunks:
        assert 1 <= len(c) <= chunk
        assert len(set(ids[c].tolist())) == 1
        per_prefix.setdefault(int(ids[c[0]]), []).append(len(c))
    for sizes in per_prefix.values():
        assert sum(size < chunk for size in sizes) <= 1  # a run is cut greedily
    again = _prefix_chunks(ids, chunk, np.random.default_rng(seed))
    assert all(np.array_equal(a, b) for a, b in zip(chunks, again))


@contextmanager
def training_spy():
    """Records the chunking and the training forwards of train_attention."""
    spy = SimpleNamespace(chunkings=[], batches=[])  # per epoch, per step
    real_chunks, real_forward = attention._prefix_chunks, AttentionModel.forward

    def chunks(prefix_of_entry, chunk, rng):
        out = real_chunks(prefix_of_entry, chunk, rng)
        spy.chunkings.append((len(prefix_of_entry), chunk, len(out)))
        return out

    def forward(model, x, mask, dropout_rng=None, rows=None, **kwargs):
        if dropout_rng is not None:
            spy.batches.append((len(rows), x.shape[0]))  # (entries, encoder rows)
        return real_forward(model, x, mask, dropout_rng=dropout_rng, rows=rows, **kwargs)

    with mock.patch.object(attention, "_prefix_chunks", chunks):
        with mock.patch.object(AttentionModel, "forward", forward):
            yield spy


@settings(max_examples=25)
@given(repetitive_variants(), st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=999))
def test_an_epoch_takes_the_steps_of_a_plain_shuffle(variants, batch_size, seed):
    log = log_from_variants(variants)
    plog = build_prefix_log(log)
    config = AttentionConfig(l_max=7, d_model=4, n_heads=2, n_layers=1, d_ff=4, dropout=0.0, seed=seed)
    epochs = 2
    with training_spy() as spy:
        train_attention(plog, build_vocabulary(log), config, epochs=epochs, batch_size=batch_size)
    n = len(plog.entries)
    n_train = n - (int(round(n * 0.1)) if n >= 10 else 0)
    steps = math.ceil(n_train / batch_size)
    assert spy.chunkings == [(n_train, max(1, batch_size // 8), spy.chunkings[0][2])] * epochs
    if batch_size < 8:
        assert spy.chunkings[0][1] == 1
    assert len(spy.batches) == epochs * steps
    for epoch in range(epochs):
        batches = spy.batches[epoch * steps : (epoch + 1) * steps]
        last = n_train - batch_size * (steps - 1)
        assert [size for size, _ in batches] == [batch_size] * (steps - 1) + [last]
        # a chunk is one prefix, and one cut by a batch boundary runs twice
        assert sum(rows for _, rows in batches) <= spy.chunkings[epoch][2] + steps - 1


def test_encoder_rows_per_epoch_stay_within_the_chunks_on_a_repetitive_log():
    # 40 variants, 8 traces each: a plain shuffle puts about 28 of the 53
    # distinct prefixes in a 64-entry batch, 8 chunks hold at most 8
    log = log_from_variants([tuple(v) for v in itertools.product("ABCD", repeat=3)][:40] * 8)
    plog = build_prefix_log(log)
    with training_spy() as spy:
        train_attention(plog, build_vocabulary(log), TINY, epochs=3)
    steps = len(spy.batches) // 3
    for epoch, (n_train, chunk, n_chunks) in enumerate(spy.chunkings):
        assert chunk == 8
        rows = sum(r for _, r in spy.batches[epoch * steps : (epoch + 1) * steps])
        assert rows <= n_chunks < n_train

import math

import numpy as np
import pytest

from suffixbeam.attention import (
    AttentionConfig,
    AttentionModel,
    EpochStats,
    finite_difference_check,
    sinusoidal_encoding,
    train_attention,
)
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants

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


def test_trained_params_own_separate_memory_and_the_memo_is_empty():
    log = log_from_variants([("A", "B", "C")] * 6 + [("A", "C")] * 4)
    model, _ = train_attention(build_prefix_log(log), build_vocabulary(log), TINY, epochs=2, batch_size=4)
    arrays = list(model.params.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert model.memo == {}


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

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

"""Attention-based next-activity model in plain numpy.

A small post-LN transformer encoder over one-hot activity prefixes:
input projection, additive sinusoidal positional encoding, N encoder
layers (masked multi-head self-attention, then a ReLU feed-forward block,
each wrapped in residual + LayerNorm), a masked global max-pool over time,
dropout, and a dense softmax head over the vocabulary (END included).

Everything — forward, backward, Adam — is hand-written on numpy arrays in
float64. That keeps the model portable and makes the gradients checkable
against central finite differences (``tests/gradient_oracle.py``),
which is the correctness anchor for the whole module.

Padding is handled by masking, never by the padded values themselves:
padded key columns get a -inf bias before the attention softmax (their
weights become exact zeros) and padded positions are -inf'd out of the
max-pool, so whatever garbage sits in padded input rows cannot reach the
output. The model reads a prefix through the window rule it shares with the
n-gram (:class:`~suffixbeam.predictor.ContextModel`): its most recent
l_max - 1 labels, which is what beam search needs when its hypotheses
outgrow the training window. ``_encode`` turns windows into one-hot rows
(training uses it too), a ``ranked_batch`` call runs one forward over its
distinct missing windows, and a ``predict_proba_batch`` call one forward
over all its prefixes.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import dataclass, asdict
from numbers import Integral, Real

import numpy as np

from .encoding import Vocabulary
from .predictor import ContextModel, _json_number

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A training minibatch is cut from runs of entries that share a prefix,
# about this many runs per batch; the encoder sees each run's prefix once.
CHUNKS_PER_BATCH = 8


@dataclass(frozen=True)
class AttentionConfig:
    l_max: int  # longest trace length + 1; prefixes occupy l_max - 1 rows
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 64
    dropout: float = 0.1
    positional_encoding: bool = True
    seed: int = 7
    ln_eps: float = 1e-5

    def __post_init__(self):
        for name in ("l_max", "d_model", "n_heads", "n_layers", "d_ff", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"{name} must be an integer, not {v!r}")
        for name in ("dropout", "ln_eps"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"{name} must be a real number, not {v!r}")
            try:  # stored as the float the forward computes with, as a model file holds it
                object.__setattr__(self, name, float(v))
            except OverflowError:
                raise ValueError(f"{name} must be a real number a float can hold, not {v!r}") from None
        if not isinstance(self.positional_encoding, (bool, np.bool_)):
            raise ValueError(f"positional_encoding must be a bool, not {self.positional_encoding!r}")
        if self.l_max < 2:
            raise ValueError("l_max must be >= 2")
        if min(self.d_model, self.n_heads, self.d_ff) < 1 or self.n_layers < 0:
            raise ValueError("d_model, n_heads and d_ff must be >= 1, n_layers >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.ln_eps < math.inf:
            raise ValueError("ln_eps must be > 0 and finite")


def sinusoidal_encoding(n_positions: int, d_model: int) -> np.ndarray:
    """Standard sin/cos position table, shape (n_positions, d_model)."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / d_model)
    table = np.empty((n_positions, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _param_shapes(n_labels: int, cfg: AttentionConfig) -> dict:
    """Name -> shape of every parameter, in the order the model creates them."""
    v, d, f = n_labels, cfg.d_model, cfg.d_ff
    shapes = {"w_in": (v, d), "b_in": (d,), "w_out": (d, v), "b_out": (v,)}
    for layer in range(cfg.n_layers):
        key = f"l{layer}_"
        for name in ("q", "k", "v", "o"):
            shapes[key + "w" + name] = (d, d)
            shapes[key + "b" + name] = (d,)
        shapes.update({key + "w1": (d, f), key + "b1": (f,), key + "w2": (f, d), key + "b2": (d,)})
        for ln in ("ln1", "ln2"):
            shapes[key + ln + "_g"] = (d,)
            shapes[key + ln + "_b"] = (d,)
    return shapes


def _check_params(params: dict, shapes: dict) -> None:
    missing, extra = sorted(set(shapes) - set(params)), sorted(set(params) - set(shapes))
    if missing or extra:
        raise ValueError(f"attention params: missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        value = params[name]
        if not isinstance(value, np.ndarray) or value.dtype.kind != "f" or value.shape != shape:
            raise ValueError(f"attention param {name!r} must be a float array of shape {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"attention param {name!r} holds a non-finite weight")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def _layer_norm_forward(x, gain, bias, eps):
    # np.mean and np.var reduce the same way, bit for bit, at twice the cost
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv_std
    return gain * xhat + bias, (xhat, inv_std, gain)


def _layer_norm_backward(dy, cache):
    xhat, inv_std, gain = cache
    n = xhat.shape[-1]
    dxhat = dy * gain
    # reduces like _layer_norm_forward: the same sums as np.mean, bit for bit
    dx = inv_std * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )
    axes = tuple(range(dy.ndim - 1))
    return dx, np.sum(dy * xhat, axis=axes), np.sum(dy, axis=axes)


class AttentionModel(ContextModel):
    """Next-activity distribution over the last ``l_max - 1`` labels of a prefix."""

    def __init__(self, vocab: Vocabulary, config: AttentionConfig, params: dict | None = None):
        """Fresh weights from ``config.seed``, or ``params``, which must hold
        every parameter at its shape with finite float weights (ValueError)."""
        self.vocab = vocab
        self.config = config
        self.context_len = config.l_max - 1
        if params is None:
            params = self._init_params()
        else:
            _check_params(params, _param_shapes(len(vocab), config))
        self.pe = sinusoidal_encoding(self.context_len, config.d_model)
        self.params = params

    @property
    def params(self) -> dict:
        return self._params

    @params.setter
    def params(self, value: dict) -> None:
        # new weights invalidate every memoized record; the memo assumes
        # the arrays are not changed in place while predictions are made
        self._params = value
        self.ranked = {}

    def _init_params(self) -> dict:
        rng = np.random.default_rng(self.config.seed)
        p = {}
        for name, shape in _param_shapes(len(self.vocab), self.config).items():
            if len(shape) == 2:
                p[name] = _glorot(rng, *shape)
            else:
                p[name] = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
        return p

    # ------------------------------------------------------------- forward

    def _split_heads(self, x):
        b, t, d = x.shape
        h = self.config.n_heads
        return x.reshape(b, t, h, d // h).transpose(0, 2, 1, 3)

    def _merge_heads(self, x):
        b, h, t, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)

    def forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        dropout_rng: np.random.Generator | None = None,
        rows: np.ndarray | None = None,
        for_backward: bool = True,
    ):
        """Run the network; returns (probs, cache). Dropout only with a rng.

        Every ``mask`` row needs at least one real position (ValueError
        otherwise): an empty prefix has nothing to attend to or pool.

        With ``rows``, ``x``/``mask`` hold distinct prefixes and output row
        i is prefix ``rows[i]``: the encoder runs once per prefix, while
        dropout, the head and the softmax run per output row.

        The cache holds what :meth:`backward` reads. When no backward
        follows (``for_backward=False``) it holds only ``pooled`` and
        ``probs``, and each layer's activations are freed as the next
        layer runs; the probabilities are the same either way.
        """
        if not mask.any(axis=1).all():
            raise ValueError("every mask row needs a real position; an empty prefix has none")
        p, cfg = self.params, self.config
        layers = []
        h = x @ p["w_in"] + p["b_in"]
        if cfg.positional_encoding:
            h = h + self.pe[None, : x.shape[1], :]
        # -inf on padded keys, broadcast over heads and queries: their weights
        # become exact zeros, and every row keeps a real key, so no NaN
        key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]
        scale = 1.0 / np.sqrt(cfg.d_model / cfg.n_heads)
        for layer in range(cfg.n_layers):
            key = f"l{layer}_"
            q = self._split_heads(h @ p[key + "wq"] + p[key + "bq"])
            k = self._split_heads(h @ p[key + "wk"] + p[key + "bk"])
            v = self._split_heads(h @ p[key + "wv"] + p[key + "bv"])
            attn = _softmax_rows((q @ k.transpose(0, 1, 3, 2)) * scale + key_bias)
            heads = attn @ v
            merged = self._merge_heads(heads)
            att_out = merged @ p[key + "wo"] + p[key + "bo"]
            ln1_out, ln1_cache = _layer_norm_forward(h + att_out, p[key + "ln1_g"], p[key + "ln1_b"], cfg.ln_eps)
            pre1 = ln1_out @ p[key + "w1"] + p[key + "b1"]
            act = np.maximum(pre1, 0.0)
            ffn_out = act @ p[key + "w2"] + p[key + "b2"]
            h2, ln2_cache = _layer_norm_forward(ln1_out + ffn_out, p[key + "ln2_g"], p[key + "ln2_b"], cfg.ln_eps)
            if for_backward:
                layers.append(dict(h_in=h, q=q, k=k, v=v, attn=attn, merged=merged, ln1_out=ln1_out,
                                   ln1_cache=ln1_cache, pre1=pre1, act=act, ln2_cache=ln2_cache))
            h = h2
        pooled_src = np.where(mask[:, :, None], h, -np.inf)
        pool_idx = np.argmax(pooled_src, axis=1)  # (B, D)
        pooled = np.take_along_axis(h, pool_idx[:, None, :], axis=1)[:, 0, :]
        cache = {}
        if for_backward:
            cache.update(x=x, mask=mask, layers=layers, rows=rows, h_final=h, pool_idx=pool_idx)
        if rows is not None:
            pooled = pooled[rows]
        if dropout_rng is not None and cfg.dropout > 0.0:
            keep = (dropout_rng.random(pooled.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            pooled = pooled * keep
            cache["drop_keep"] = keep
        logits = pooled @ p["w_out"] + p["b_out"]
        probs = _softmax_rows(logits)
        cache.update(pooled=pooled, probs=probs)
        return probs, cache

    # ------------------------------------------------------------ backward

    def backward(self, cache: dict, targets: np.ndarray) -> dict:
        """Gradients of mean cross-entropy w.r.t. every parameter."""
        p, cfg = self.params, self.config
        b = targets.shape[0]
        grads = {}
        dlogits = cache["probs"].copy()
        dlogits[np.arange(b), targets] -= 1.0
        dlogits /= b
        grads["w_out"] = cache["pooled"].T @ dlogits
        grads["b_out"] = dlogits.sum(axis=0)
        dpooled = dlogits @ p["w_out"].T
        if "drop_keep" in cache:
            dpooled = dpooled * cache["drop_keep"]
        if cache["rows"] is not None:
            # the encoder saw each distinct prefix once: sum its rows' grads
            per_prefix = np.zeros((cache["h_final"].shape[0], dpooled.shape[1]))
            np.add.at(per_prefix, cache["rows"], dpooled)
            dpooled = per_prefix
        dh = np.zeros_like(cache["h_final"])
        np.put_along_axis(dh, cache["pool_idx"][:, None, :], dpooled[:, None, :], axis=1)
        scale = 1.0 / np.sqrt(cfg.d_model / cfg.n_heads)
        for layer in range(cfg.n_layers - 1, -1, -1):
            key = f"l{layer}_"
            lc = cache["layers"][layer]
            dsum2, dg2, db2 = _layer_norm_backward(dh, lc["ln2_cache"])
            grads[key + "ln2_g"], grads[key + "ln2_b"] = dg2, db2
            # ffn branch
            grads[key + "w2"] = lc["act"].reshape(-1, cfg.d_ff).T @ dsum2.reshape(-1, cfg.d_model)
            grads[key + "b2"] = dsum2.sum(axis=(0, 1))
            dact = dsum2 @ p[key + "w2"].T
            dpre1 = dact * (lc["pre1"] > 0.0)
            grads[key + "w1"] = lc["ln1_out"].reshape(-1, cfg.d_model).T @ dpre1.reshape(-1, cfg.d_ff)
            grads[key + "b1"] = dpre1.sum(axis=(0, 1))
            dln1_out = dsum2 + dpre1 @ p[key + "w1"].T
            dsum1, dg1, db1 = _layer_norm_backward(dln1_out, lc["ln1_cache"])
            grads[key + "ln1_g"], grads[key + "ln1_b"] = dg1, db1
            # attention branch
            dmerged = dsum1 @ p[key + "wo"].T
            grads[key + "wo"] = lc["merged"].reshape(-1, cfg.d_model).T @ dsum1.reshape(-1, cfg.d_model)
            grads[key + "bo"] = dsum1.sum(axis=(0, 1))
            dheads = self._split_heads(dmerged)
            dattn = dheads @ lc["v"].transpose(0, 1, 3, 2)
            dv = lc["attn"].transpose(0, 1, 3, 2) @ dheads
            attn = lc["attn"]
            dscores = attn * (dattn - np.sum(dattn * attn, axis=-1, keepdims=True))
            dq = (dscores @ lc["k"]) * scale
            dk = (dscores.transpose(0, 1, 3, 2) @ lc["q"]) * scale
            h_in = lc["h_in"]
            flat_in = h_in.reshape(-1, cfg.d_model)
            dh_in = dsum1.copy()  # residual path
            for name, dmat in (("wq", dq), ("wk", dk), ("wv", dv)):
                dproj = self._merge_heads(dmat)
                grads[key + name] = flat_in.T @ dproj.reshape(-1, cfg.d_model)
                grads[key + name.replace("w", "b")] = dproj.sum(axis=(0, 1))
                dh_in += dproj @ p[key + name].T
            dh = dh_in
        grads["w_in"] = cache["x"].reshape(-1, len(self.vocab)).T @ dh.reshape(-1, cfg.d_model)
        grads["b_in"] = dh.sum(axis=(0, 1))
        return grads

    def loss(self, probs: np.ndarray, targets: np.ndarray) -> float:
        picked = probs[np.arange(targets.shape[0]), targets]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))

    # ----------------------------------------------------------- inference

    def _encode(self, prefixes) -> tuple[np.ndarray, np.ndarray]:
        x = np.zeros((len(prefixes), self.context_len, len(self.vocab)))
        mask = np.zeros((len(prefixes), self.context_len), dtype=bool)
        for row, pref in enumerate(prefixes):
            ids = self.vocab.encode_labels(self.window(pref))
            x[row, np.arange(len(ids)), ids] = 1.0
            mask[row, : len(ids)] = True
        return x, mask

    def _rows(self, windows) -> np.ndarray:
        x, mask = self._encode(windows)
        _, cache = self.forward(x, mask, for_backward=False)
        pooled, w_out, b_out = cache["pooled"], self.params["w_out"], self.params["b_out"]
        # The head is a stack of one-row products, (B, 1, d) @ (d, |V|): a
        # (B, d) @ (d, |V|) product rounds differently from the one-row
        # product, and beam scores would move.
        return _softmax_rows(pooled[:, None, :] @ w_out + b_out)[:, 0]

    # --------------------------------------------------------- persistence

    def save(self, path) -> None:
        meta = json.dumps({"config": asdict(self.config), "labels": list(self.vocab.labels)}, default=_json_number)
        np.savez_compressed(path, __meta__=np.array(meta), **self.params)

    @classmethod
    def load(cls, path) -> "AttentionModel":
        """A saved model; a file that does not hold a valid one raises ValueError."""
        try:
            # np.load leaves a path it opened open when the archive is bad
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files}
        # TypeError: a bare .npy; ValueError: no archive at all, or a pickled entry
        except (TypeError, ValueError, zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise ValueError(f"{path} is not a readable .npz archive: {exc!r}") from None
        if "__meta__" not in arrays:
            raise ValueError(f"{path} has no __meta__ entry: not an attention model file")
        try:
            meta = json.loads(str(arrays.pop("__meta__")))
            config = AttentionConfig(**meta["config"])
            vocab = Vocabulary(tuple(meta["labels"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a bad __meta__ entry: {exc!r}") from None
        return cls(vocab, config, params=arrays)


def _prefix_chunks(prefix_of_entry: np.ndarray, chunk: int, rng: np.random.Generator) -> list:
    """One epoch of the entries ``0..n-1`` as shuffled chunks that share a prefix.

    The entries are shuffled and grouped stably by prefix id; each prefix's
    run is cut into chunks of ``chunk`` entries (its last one may be
    shorter), and the chunks are shuffled. Concatenated and cut into
    consecutive minibatches, they keep every entry once per epoch, while a
    minibatch holds few distinct prefixes.
    """
    n = len(prefix_of_entry)
    shuffled = rng.permutation(n)
    grouped = shuffled[np.argsort(prefix_of_entry[shuffled], kind="stable")]
    ids = prefix_of_entry[grouped]
    positions = np.arange(n)
    run_start = np.maximum.accumulate(np.where(np.r_[True, ids[1:] != ids[:-1]], positions, 0))
    chunks = np.split(grouped, np.flatnonzero((positions - run_start) % chunk == 0)[1:])
    return [chunks[i] for i in rng.permutation(len(chunks))]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


def train_attention(
    prefix_log,
    vocab: Vocabulary,
    config: AttentionConfig,
    epochs: int = 10,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    val_fraction: float = 0.1,
) -> tuple[AttentionModel, list[EpochStats]]:
    """Adam training with a validation split; best-epoch weights win.

    The entries are split once at random: ``val_fraction`` of them validate
    (none when there are fewer than 10), the rest train. An epoch visits
    every training entry once, in consecutive minibatches of ``batch_size``
    cut from :func:`_prefix_chunks`, runs of at most ``batch_size //
    CHUNKS_PER_BATCH`` (at least 1) entries that share a prefix. The encoder
    runs once per distinct prefix of a minibatch, so the runs cut its rows,
    while the steps per epoch, dropout and the per-entry mean cross-entropy
    are those of a plain shuffle. The weights of the epoch with the lowest
    validation loss (training loss without a split) are returned.

    ValueError for an empty log, ``epochs`` or ``batch_size`` below 1,
    ``val_fraction`` outside [0, 1), or a ``learning_rate`` that is not
    finite and above 0.
    """
    if not prefix_log.counts:
        raise ValueError("prefix log is empty")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError("learning_rate must be > 0 and finite")
    model = AttentionModel(vocab, config)
    # the encoder runs on distinct prefixes only; entries keep a prefix id
    prefix_ids: dict = {}
    entry_prefix = np.array([prefix_ids.setdefault(tuple(variant), len(prefix_ids))
                             for variant, _ in prefix_log.entries])
    x_all, mask_all = model._encode(list(prefix_ids))
    y_all = np.array([vocab.index_of(target) for _, target in prefix_log.entries])

    def run(idx, dropout_rng=None, for_backward=True):
        # distinct prefixes in order of first occurrence, so a batch without
        # repeats runs exactly as the plain per-entry forward
        seen: dict = {}
        rows = np.array([seen.setdefault(i, len(seen)) for i in entry_prefix[idx].tolist()])
        distinct = list(seen)
        return model.forward(x_all[distinct], mask_all[distinct], dropout_rng=dropout_rng, rows=rows,
                             for_backward=for_backward)

    rng = np.random.default_rng(config.seed + 1)
    n = len(y_all)
    order = rng.permutation(n)
    n_val = int(round(n * val_fraction)) if n >= 10 else 0
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("validation split leaves no training data")

    # during training the params are views into one flat vector, so one
    # elementwise Adam update covers them all
    flat = np.concatenate([v.ravel() for v in model.params.values()])
    views, offset = {}, 0
    for k, v in model.params.items():
        views[k] = flat[offset : offset + v.size].reshape(v.shape)
        offset += v.size
    model.params = views
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    step = 0
    history: list[EpochStats] = []
    best_val = np.inf
    best_params = {k: v.copy() for k, v in model.params.items()}

    def evaluate(idx) -> float:
        if len(idx) == 0:
            return np.nan
        probs, _ = run(idx, for_backward=False)
        return model.loss(probs, y_all[idx])

    chunk = max(1, batch_size // CHUNKS_PER_BATCH)
    for epoch in range(epochs):
        perm = np.concatenate(_prefix_chunks(entry_prefix[train_idx], chunk, rng))
        epoch_loss = 0.0
        for start in range(0, len(perm), batch_size):
            batch = train_idx[perm[start : start + batch_size]]
            probs, cache = run(batch, dropout_rng=rng)
            epoch_loss += model.loss(probs, y_all[batch]) * len(batch)
            grads = model.backward(cache, y_all[batch])
            g = np.concatenate([grads[k].ravel() for k in views])
            step += 1
            bc1 = 1.0 - ADAM_BETA1 ** step
            bc2 = 1.0 - ADAM_BETA2 ** step
            adam_m = ADAM_BETA1 * adam_m + (1.0 - ADAM_BETA1) * g
            adam_v = ADAM_BETA2 * adam_v + (1.0 - ADAM_BETA2) * g * g
            flat -= learning_rate * (adam_m / bc1) / (np.sqrt(adam_v / bc2) + ADAM_EPS)
        train_loss = epoch_loss / len(train_idx)
        val_loss = evaluate(val_idx)
        tracked = val_loss if n_val > 0 else train_loss
        if tracked < best_val:
            best_val = tracked
            best_params = {k: v.copy() for k, v in model.params.items()}
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss))
    model.params = best_params
    return model, history


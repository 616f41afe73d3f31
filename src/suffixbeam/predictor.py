"""Next-activity predictors: the contract plus a smoothed n-gram reference.

A predictor is anything with ``vocab`` and two methods:

* ``predict_proba_batch(prefixes) -> np.ndarray`` of shape ``(n, |V|)`` for
  n >= 1 prefixes, one row per prefix, each row one probability per vocabulary index summing
  to 1. The beam search asks for the rows of all its open candidates at
  once, one call per step.
* ``predict_proba(prefix)``, the same for one prefix:
  ``predict_proba_batch([prefix])[0]``.

The beam search only ever consumes those rows, so the n-gram here, the
attention net, or an external scorer are interchangeable.

Both models here answer through :func:`memoized_rows`: each model object
keeps a memo from its true context (the n-gram's last ``order`` label
indices, attention's last ``l_max - 1`` labels) to a read-only row, computes
a call's distinct misses together, and empties the memo when it would
exceed :data:`PREDICT_MEMO_CAP` entries. A row depends on nothing but its
context and the model's parameters, so a memoized row is the row a cold
model computes, bit for bit.

The n-gram keys its counts by the last ``order`` labels of the prefix
(fewer when the prefix is shorter) and applies Laplace smoothing:

    P(a | ctx) = (count(ctx, a) + alpha) / (total(ctx) + alpha * |V|)

An unseen context therefore yields the uniform distribution, and with
alpha > 0 no probability is ever exactly 0 or 1 — the beam's log-domain
scores stay finite and strictly decrease along a path, which the
equivalence tests rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoding import Vocabulary
from .eventlog import PrefixLog

# An entry (key, row and dict slot) measured about 370 B with an 11-label
# vocabulary and 8-label keys, so a full memo stays under 2 MB.
PREDICT_MEMO_CAP = 4096


def memoized_rows(memo: dict, keys, compute) -> np.ndarray:
    """Rows for ``keys`` (at least one) as a read-only ``(len(keys), |V|)`` array.

    Keys found in ``memo`` reuse their row; the distinct missing keys go to
    ``compute(missing)`` in one call, which returns their rows in order.
    ``compute`` runs before anything is stored, so a call that raises
    leaves the memo as it was. The memo is emptied when a new row would
    take it past :data:`PREDICT_MEMO_CAP` entries.
    """
    rows = [memo.get(key) for key in keys]
    missing = list(dict.fromkeys(key for key, row in zip(keys, rows) if row is None))
    if missing:
        computed = dict(zip(missing, compute(missing)))
        for key, row in computed.items():
            row.setflags(write=False)
            if len(memo) >= PREDICT_MEMO_CAP:
                memo.clear()
            memo[key] = row
        rows = [computed[key] if row is None else row for key, row in zip(keys, rows)]
    out = np.array(rows)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NGramModel:
    vocab: Vocabulary
    order: int
    alpha: float
    counts: dict  # context tuple (label indices) -> np.int64 array over vocab
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def context_of(self, prefix) -> tuple:
        ids = self.vocab.encode_labels(prefix)
        return ids[-self.order:] if self.order < len(ids) else ids

    def predict_proba(self, prefix) -> np.ndarray:
        return self.predict_proba_batch([prefix])[0]

    def predict_proba_batch(self, prefixes) -> np.ndarray:
        if not all(prefixes):
            raise ValueError("prediction needs a non-empty prefix")
        keys = [self.context_of(prefix) for prefix in prefixes]
        return memoized_rows(self.memo, keys, lambda missing: [self._laplace_row(ctx) for ctx in missing])

    def _laplace_row(self, ctx) -> np.ndarray:
        n = len(self.vocab)
        row = self.counts.get(ctx)
        if row is None:
            row = np.zeros(n, dtype=np.int64)
        denom = row.sum() + self.alpha * n
        if denom == 0:  # alpha = 0 and unseen context
            return np.full(n, 1.0 / n)
        return (row + self.alpha) / denom

    def save(self, path) -> None:
        payload = {
            "kind": "ngram",
            "order": self.order,
            "alpha": self.alpha,
            "vocab": list(self.vocab.labels),
            "counts": [[list(ctx), row.tolist()] for ctx, row in sorted(self.counts.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @staticmethod
    def load(path) -> "NGramModel":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("kind") != "ngram":
            raise ValueError(f"{path} is not an n-gram model file")
        vocab = Vocabulary(labels=tuple(payload["vocab"]))
        counts = {
            tuple(ctx): np.array(row, dtype=np.int64) for ctx, row in payload["counts"]
        }
        return NGramModel(
            vocab=vocab, order=int(payload["order"]), alpha=float(payload["alpha"]), counts=counts
        )


def train_ngram(prefix_log: PrefixLog, vocab: Vocabulary, order: int = 3, alpha: float = 0.01) -> NGramModel:
    """Count (last <= order labels -> next label) over the prefix log."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not prefix_log.entries:
        raise ValueError("empty prefix log")
    n = len(vocab)
    counts = {}
    for prefix, nxt in prefix_log.entries:
        ids = vocab.encode_labels(prefix)
        ctx = ids[-order:] if order < len(ids) else ids
        row = counts.get(ctx)
        if row is None:
            row = np.zeros(n, dtype=np.int64)
            counts[ctx] = row
        row[vocab.index_of(nxt)] += 1
    return NGramModel(vocab=vocab, order=order, alpha=alpha, counts=counts)

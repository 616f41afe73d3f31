"""Next-activity predictors: the contract plus a smoothed n-gram reference.

A predictor is anything with ``vocab`` and two methods:

* ``predict_proba_batch(prefixes) -> np.ndarray`` of shape ``(n, |V|)`` for
  n >= 1 prefixes, one row per prefix, each row one probability per vocabulary index summing
  to 1.
* ``predict_proba(prefix)``, the same for one prefix:
  ``predict_proba_batch([prefix])[0]``.

It may also have ``ranked_batch(prefixes, k)``: per prefix, the
:func:`ranked_rows` record of its row, the ``k`` most probable label indices
with their logs, each probability floored at :data:`PROB_FLOOR`. The beam
search asks for the records of all its open candidates at once, one call
per step; for a predictor without ``ranked_batch`` it ranks the rows of
``predict_proba_batch`` with :func:`ranked_rows` itself. It consumes nothing
else, so the n-gram here, the attention net, or an external scorer are
interchangeable.

Both models here compute ``predict_proba_batch`` rows afresh on every call
and answer ``ranked_batch``, which the beam uses, through one memo per model
object, ``ranked``: :func:`memoized_ranks` keeps the records of one ``k`` at
a time, keyed by the true context (the n-gram's last ``order`` label
indices, attention's last ``l_max - 1`` labels). It computes a call's
distinct misses together with the model's own row code and empties itself
when it would exceed :data:`PREDICT_MEMO_CAP` entries. A row depends on
nothing but its context and the model's parameters, so a memoized record is
the one a cold model's row gives, bit for bit.

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
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .encoding import Vocabulary
from .eventlog import PrefixLog

# An entry (key, record and dict slot) measured about 450 B for a record of
# k = 3 with an 11-label vocabulary and 8-label keys, so a full memo stays
# under 2 MB.
PREDICT_MEMO_CAP = 4096

# Probabilities are floored before their log, so a zero never sinks a beam
# branch for good.
PROB_FLOOR = 1e-12


def ranked_rows(rows: np.ndarray, k: int) -> list:
    """Each row's ``k`` most probable label indices with their floored logs.

    A row's record is a tuple of ``(index, log p)`` pairs, most probable
    first; ties go to the lower index (one stable argsort of ``-rows``), and
    ``p`` is floored at :data:`PROB_FLOOR` before ``math.log``.
    """
    tops = np.argsort(-rows, axis=1, kind="stable")[:, :k].tolist()
    return [tuple((idx, _log_floor(row[idx])) for idx in top) for top, row in zip(tops, rows.tolist())]


def _log_floor(p: float) -> float:
    return math.log(p if p > PROB_FLOOR else PROB_FLOOR)


def memoized_ranks(memo: dict, keys, k: int, compute) -> list:
    """The :func:`ranked_rows` record of each of ``keys`` (at least one), in order.

    The distinct missing keys go to ``compute(missing)`` in one call, which
    returns their rows in order; only their records are kept, in
    ``memo[k]``. It runs before anything is stored, so a call that raises
    leaves the memo as it was. ``memo[k]`` is emptied when a new record
    would take it past :data:`PREDICT_MEMO_CAP` entries, and ``memo`` holds
    one ``k`` at a time: a call with another ``k`` empties it, once that
    call's records are computed.
    """
    table = memo.get(k, {})
    records = [table.get(key) for key in keys]
    missing = list(dict.fromkeys(key for key, record in zip(keys, records) if record is None))
    if missing:
        computed = dict(zip(missing, ranked_rows(np.array(compute(missing)), k)))
        for key, record in computed.items():
            if len(table) >= PREDICT_MEMO_CAP:
                table.clear()
            table[key] = record
        records = [computed[key] if record is None else record for key, record in zip(keys, records)]
    if k not in memo:
        memo.clear()
        memo[k] = table
    return records


@dataclass(frozen=True)
class NGramModel:
    vocab: Vocabulary
    order: int
    alpha: float
    counts: dict  # context tuple (label indices) -> np.int64 array over vocab
    ranked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")
        n = len(self.vocab)
        for ctx, row in self.counts.items():
            if len(ctx) > self.order:  # it would never be looked up
                raise ValueError(f"count context {list(ctx)} is longer than order {self.order}")
            if np.shape(row) != (n,) or np.any(np.less(row, 0)):
                raise ValueError(f"count row of context {list(ctx)} needs {n} counts >= 0, one per label")

    def context_of(self, prefix) -> tuple:
        """The last ``order`` label indices of ``prefix`` (all of a shorter one)."""
        return self.vocab.encode_labels(prefix)[-self.order:]

    def predict_proba(self, prefix) -> np.ndarray:
        return self.predict_proba_batch([prefix])[0]

    def predict_proba_batch(self, prefixes) -> np.ndarray:
        return np.array(self._laplace_rows(self._contexts(prefixes)))

    def ranked_batch(self, prefixes, k: int) -> list:
        return memoized_ranks(self.ranked, self._contexts(prefixes), k, self._laplace_rows)

    def _contexts(self, prefixes) -> list:
        if not all(prefixes):
            raise ValueError("prediction needs a non-empty prefix")
        return [self.context_of(prefix) for prefix in prefixes]

    def _laplace_rows(self, contexts) -> list:
        return [self._laplace_row(ctx) for ctx in contexts]

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
        if not isinstance(payload, dict) or payload.get("kind") != "ngram":
            raise ValueError(f"{path} is not an n-gram model file")
        missing = [key for key in ("vocab", "order", "alpha", "counts") if key not in payload]
        if missing:
            raise ValueError(f"{path} lacks the n-gram model entries {missing}")
        try:
            vocab = Vocabulary(labels=tuple(payload["vocab"]))
            counts = {
                tuple(ctx): np.array(row, dtype=np.int64) for ctx, row in payload["counts"]
            }
            order, alpha = int(payload["order"]), float(payload["alpha"])
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a malformed n-gram model entry: {exc!r}") from None
        return NGramModel(vocab=vocab, order=order, alpha=alpha, counts=counts)


def train_ngram(prefix_log: PrefixLog, vocab: Vocabulary, order: int = 3, alpha: float = 0.01) -> NGramModel:
    """Count (last <= order labels -> next label) over the prefix log.

    Each distinct (prefix, next) pair is encoded once and counted with its
    multiplicity; contexts keep the order of their first occurrence.
    """
    model = NGramModel(vocab=vocab, order=order, alpha=alpha, counts={})
    if not prefix_log.entries:
        raise ValueError("empty prefix log")
    for (prefix, nxt), multiplicity in Counter(prefix_log.entries).items():
        ctx = model.context_of(prefix)
        row = model.counts.get(ctx)
        if row is None:
            row = np.zeros(len(vocab), dtype=np.int64)
            model.counts[ctx] = row
        row[vocab.index_of(nxt)] += multiplicity
    return model

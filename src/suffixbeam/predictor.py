"""Next-activity predictors: the protocol plus a smoothed n-gram reference.

A predictor is anything with ``vocab`` and ``ranked_batch(prefixes, k)``:
per prefix (at least one), the :func:`ranked_rows` record of its
next-label distribution, the ``k`` most probable label indices with their
logs, each probability floored at :data:`PROB_FLOOR`. The beam asks for
the records of all its open candidates in one call per step and for
nothing else.

Subclassing :class:`ContextModel` is the way to get the protocol: a model
gives ``vocab``, ``context_len``, a ``ranked`` dict and ``_rows(windows)``,
and reads a prefix only through its :meth:`~ContextModel.window`, the last
``context_len`` labels (``order``, or ``l_max - 1``). A label before the
window is never read; an empty prefix, or an unknown label inside it, is a
ValueError. ``_rows`` encodes windows with the one label encoder,
:meth:`Vocabulary.encode_labels`. ``ranked_batch`` answers through the
model's memo, ``ranked``, keyed by label windows: :func:`memoized_ranks`
keeps the records of one ``k`` at a time, computes a call's distinct misses
together and empties itself when it would exceed :data:`PREDICT_MEMO_CAP`
entries. A row depends on nothing but its window and the parameters, so a
memoized record is the one a cold model's row gives, bit for bit, and a
warm call encodes nothing. ``predict_proba(prefix)`` and
``predict_proba_batch(prefixes)``, an ``(n, |V|)`` array, compute rows
afresh; the beam does not use them.

The n-gram keys its counts by the label indices of the window and applies
Laplace smoothing:

    P(a | ctx) = (count(ctx, a) + alpha) / (total(ctx) + alpha * |V|)

An unseen context therefore yields the uniform distribution, and with
alpha > 0 no probability is ever exactly 0 or 1 — the beam's log-domain
scores stay finite and strictly decrease along a path, which the
equivalence tests rely on. Training reads the prefix log's distinct pairs
with their multiplicities (:attr:`~suffixbeam.eventlog.PrefixLog.counts`),
so it costs about one step per distinct pair, however often each occurs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

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

    When every key hits, the records are returned with no miss scan.
    Otherwise the distinct missing keys go to ``compute(missing)`` in one
    call, which returns their rows in order; only their records are kept, in
    ``memo[k]``. It runs before anything is stored, so a call that raises
    leaves the memo as it was. ``memo[k]`` is emptied when a new record
    would take it past :data:`PREDICT_MEMO_CAP` entries, and ``memo`` holds
    one ``k`` at a time: a call with another ``k`` empties it, once that
    call's records are computed.
    """
    table = memo.get(k, {})
    records = list(map(table.get, keys))
    if None not in records:  # every key hits
        return records
    missing = list(dict.fromkeys(key for key, record in zip(keys, records) if record is None))
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


class ContextModel:
    """The protocol over a window; a subclass has ``vocab``, ``context_len``, ``ranked`` and ``_rows``."""

    def window(self, prefix) -> tuple:
        """The last ``context_len`` labels of ``prefix`` (all of a shorter one)."""
        if not prefix:
            raise ValueError("prediction needs a non-empty prefix")
        return tuple(prefix)[-self.context_len:]

    def predict_proba(self, prefix) -> np.ndarray:
        return self.predict_proba_batch([prefix])[0]

    def predict_proba_batch(self, prefixes) -> np.ndarray:
        return np.array(self._rows([self.window(prefix) for prefix in prefixes]))

    def ranked_batch(self, prefixes, k: int) -> list:
        return memoized_ranks(self.ranked, list(map(self.window, prefixes)), k, self._rows)


@dataclass(frozen=True)
class NGramModel(ContextModel):
    vocab: Vocabulary
    order: int
    alpha: float
    counts: dict  # context tuple (label indices) -> np.int64 array over vocab
    ranked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.order, bool) or not isinstance(self.order, Integral):
            raise ValueError(f"order must be an int, not {self.order!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
            raise ValueError(f"alpha must be a real number, not {self.alpha!r}")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")
        n = len(self.vocab)
        for ctx, row in self.counts.items():
            if len(ctx) > self.order:  # it would never be looked up
                raise ValueError(f"count context {list(ctx)} is longer than order {self.order}")
            if any(type(i) is not int or not 0 <= i < n for i in ctx):  # nor would this
                raise ValueError(f"count context {list(ctx)} needs label indices in [0, {n})")
            if np.shape(row) != (n,) or np.any(np.less(row, 0)):
                raise ValueError(f"count row of context {list(ctx)} needs {n} counts >= 0, one per label")

    @property
    def context_len(self) -> int:
        return self.order

    def context_of(self, prefix) -> tuple:
        """The label indices of the :meth:`window` of ``prefix``: its counts key."""
        return self.vocab.encode_labels(self.window(prefix))

    def _rows(self, windows) -> list:
        return [self._laplace_row(self.context_of(window)) for window in windows]

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
            json.dump(payload, fh, default=_json_number)

    @staticmethod
    def load(path) -> "NGramModel":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("kind") != "ngram":
            raise ValueError(f"{path} is not an n-gram model file")
        missing = [key for key in ("vocab", "order", "alpha", "counts") if key not in payload]
        if missing:
            raise ValueError(f"{path} lacks the n-gram model entries {missing}")
        order, alpha = payload["order"], payload["alpha"]
        if type(order) is not int or type(alpha) not in (int, float):  # a bool or a string is tampered
            raise ValueError(f"{path} has a malformed n-gram model entry: order {order!r} or alpha {alpha!r}")
        try:
            vocab = Vocabulary(labels=tuple(payload["vocab"]))
            counts = {tuple(ctx): _count_row(row) for ctx, row in payload["counts"]}
            alpha = float(alpha)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a malformed n-gram model entry: {exc!r}") from None
        return NGramModel(vocab=vocab, order=order, alpha=alpha, counts=counts)


def _json_number(value):
    """A number JSON cannot write, a numpy scalar or a fraction, as the Python number it equals."""
    return value.item() if isinstance(value, np.generic) else float(value)


def _count_row(row) -> np.ndarray:
    """A count row read from a model file: ints only, as an int64 array."""
    if any(type(count) is not int for count in row):  # a bool, a fraction or a string is tampered
        raise TypeError(f"count row {row!r} holds a value that is not an int")
    return np.array(row, dtype=np.int64)


def train_ngram(prefix_log: PrefixLog, vocab: Vocabulary, order: int = 3, alpha: float = 0.01) -> NGramModel:
    """Count (last <= order labels -> next label) over the prefix log.

    Each distinct (prefix, next) pair of ``prefix_log.counts`` is encoded
    once and counted with its multiplicity; contexts keep the order of their
    first occurrence.
    """
    model = NGramModel(vocab=vocab, order=order, alpha=alpha, counts={})
    if not prefix_log.counts:
        raise ValueError("empty prefix log")
    for (prefix, nxt), multiplicity in prefix_log.counts.items():
        ctx = model.context_of(prefix)
        row = model.counts.get(ctx)
        if row is None:
            row = np.zeros(len(vocab), dtype=np.int64)
            model.counts[ctx] = row
        row[vocab.index_of(nxt)] += multiplicity
    return model

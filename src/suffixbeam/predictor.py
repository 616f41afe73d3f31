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
:meth:`Vocabulary.encode_labels`, and returns a list of floats per window.
``ranked_batch`` answers through the model's memo, ``ranked``, keyed by
label windows: :func:`memoized_ranks` keeps the records of one ``k`` at a
time, ranks a call's distinct misses together, in plain Python, and
empties itself when it would exceed :data:`PREDICT_MEMO_CAP` entries. A
row depends on nothing but its window and the parameters, so a memoized
record is the one a cold model's row gives, bit for bit, and a warm call
encodes nothing. Only ``predict_proba(prefix)``, a ``(|V|,)`` array,
builds an array; it computes its row afresh, and the beam does not use it.

The n-gram keys its counts, a list of ints per context, by the label
indices of the window and applies Laplace smoothing in plain Python:

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

import numpy as np

from ._numbers import as_int, as_real
from .encoding import Vocabulary
from .eventlog import PrefixLog

# An entry (key, record and dict slot) measured about 450 B for a record of
# k = 3 with an 11-label vocabulary and 8-label keys, so a full memo stays
# under 2 MB.
PREDICT_MEMO_CAP = 4096

# Probabilities are floored before their log, so a zero never sinks a beam
# branch for good.
PROB_FLOOR = 1e-12


def ranked_rows(rows, k: int) -> list:
    """Each row's ``k`` most probable label indices with their floored logs.

    ``rows`` is any sequence of rows. A record is a tuple of ``(index, log
    p)`` pairs, most probable first, from one stable sort per row (ties go
    to the lower index); ``p`` is floored at :data:`PROB_FLOOR` first.
    """
    records = []
    for row in rows:
        top = sorted(range(len(row)), key=row.__getitem__, reverse=True)[:k]
        records.append(tuple((i, math.log(row[i] if row[i] > PROB_FLOOR else PROB_FLOOR)) for i in top))
    return records


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
    computed = dict(zip(missing, ranked_rows(compute(missing), k)))
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
        return np.array(self._rows([self.window(prefix)])[0])

    def ranked_batch(self, prefixes, k: int) -> list:
        return memoized_ranks(self.ranked, list(map(self.window, prefixes)), k, self._rows)


@dataclass(frozen=True)
class NGramModel(ContextModel):
    vocab: Vocabulary
    order: int
    alpha: float
    counts: dict  # context tuple (label indices) -> list of int counts over vocab
    ranked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", as_int("order", self.order, 1))
        object.__setattr__(self, "alpha", as_real("alpha", self.alpha))  # the float a row computes with
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")
        n = len(self.vocab)
        for ctx, row in self.counts.items():
            if len(ctx) > self.order:  # it would never be looked up
                raise ValueError(f"count context {list(ctx)} is longer than order {self.order}")
            if any(type(i) is not int or not 0 <= i < n for i in ctx):  # nor would this
                raise ValueError(f"count context {list(ctx)} needs label indices in [0, {n})")
            if len(row) != n or any(type(c) is not int or not 0 <= c < 2**63 for c in row):  # not a bool
                raise ValueError(f"count row of context {list(ctx)} needs {n} counts >= 0, one int < 2**63 per label")

    @property
    def context_len(self) -> int:
        return self.order

    def context_of(self, prefix) -> tuple:
        """The label indices of the :meth:`window` of ``prefix``: its counts key."""
        return self.vocab.encode_labels(self.window(prefix))

    def _rows(self, windows) -> list:
        return [self._laplace_row(self.context_of(window)) for window in windows]

    def _laplace_row(self, ctx) -> list:
        n = len(self.vocab)
        row = self.counts.get(ctx) or [0] * n
        denom = sum(row) + self.alpha * n
        if denom == 0:  # alpha = 0 and unseen context
            return [1.0 / n] * n
        return [(count + self.alpha) / denom for count in row]

    def save(self, path) -> None:
        payload = {
            "kind": "ngram",
            "order": self.order,
            "alpha": self.alpha,
            "vocab": list(self.vocab.labels),
            "counts": [[list(ctx), row] for ctx, row in sorted(self.counts.items())],
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
        try:  # the constructor's rules, counts included, hold for a file too
            counts = {tuple(ctx): row for ctx, row in payload["counts"]}
            return NGramModel(Vocabulary(labels=tuple(payload["vocab"])), payload["order"], payload["alpha"], counts)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} has a malformed n-gram model entry: {exc!r}") from None


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
        model.counts.setdefault(model.context_of(prefix), [0] * len(vocab))[vocab.index_of(nxt)] += multiplicity
    return model

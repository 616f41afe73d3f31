"""Exhaustive-enumeration oracle for the beam search tests.

Enumerates every complete suffix with content length 0..max_iter and scores
it with the *same* arithmetic, in the same accumulation order, as the beam
engine: log-domain, probability floored at PROB_FLOOR, per-step compliance
folded in with weight w, completion compliance from the complete replay.
The argmax under the beam's tie-break key (score descending, label-index
tuple ascending) is what an unpruned beam must return.
"""

import math

from suffixbeam.eventlog import END
from suffixbeam.petri import ReplayState, fitness
from suffixbeam.predictor import PROB_FLOOR


def _log_floor(p: float) -> float:
    return math.log(p if p > PROB_FLOOR else PROB_FLOOR)


def _log_c(c: float) -> float:
    return math.log(c) if c > 0.0 else float("-inf")


def enumerate_best(prefix, predictor, max_iter: int, w: float, net=None, partial_mode: str = "strict"):
    """Return (content_labels, log_score) of the true argmax completion."""
    vocab = predictor.vocab
    end_idx = vocab.index_of(END)
    content = [i for i in range(len(vocab)) if i != end_idx]
    modulate = net is not None and w > 0.0
    strict = partial_mode == "strict"
    prefix = tuple(prefix)

    base_state = None
    if modulate:
        base_state = ReplayState(net.compiled)
        for label in prefix:
            base_state.step(label)

    best = None

    def visit(labels, ids, log, state):
        nonlocal best
        probs = predictor.predict_proba(prefix + labels)
        term_log = log + (1.0 - w) * _log_floor(float(probs[end_idx]))
        if modulate:
            term_log += w * _log_c(fitness(state.result_complete()))
        key = (-term_log, ids + (end_idx,))
        if best is None or key < best[0]:
            best = (key, labels)
        if len(labels) == max_iter:
            return
        for idx in content:
            label = vocab.labels[idx]
            child_log = log + (1.0 - w) * _log_floor(float(probs[idx]))
            child_state = None
            if modulate:
                child_state = state.clone()
                child_state.step(label)
                child_log += w * _log_c(fitness(child_state.result_partial(strict=strict)))
            visit(labels + (label,), ids + (idx,), child_log, child_state)

    visit((), (), 0.0, base_state)
    return best[1], -best[0][0]

"""Beam-search suffix prediction, with optional replay-fitness modulation.

Three entry points share one engine:

* :func:`baseline_beam` — scores are cumulative predictor probabilities.
* :func:`modulated_beam` — each step multiplies in the replay compliance of
  the extended trace, weighted by ``w``:

      score(<s, a>) = score(s) * P(a | s)^(1-w) * C(<s, a>)^w

  At w = 0 the compliance factor is skipped outright (0^0 := 1), the net is
  never consulted, and the run is bit-for-bit the baseline.
* :func:`checked_beam` — plain probability scores plus a boolean compliance
  check on complete candidates only; first passing candidate in rank order
  wins, None when the search exhausts.

Mechanics shared by baseline/modulated: every queued candidate expands by
its b_size most probable next labels; the pooled expansions are ranked by
score (ties: lexicographically smaller label-index tuple first) and the top
b_size survive. A terminated candidate (last label END) is returned when it
ranks first; terminated candidates ranked lower stay in the pool with
frozen scores — still competing, never extended — so a completion can only
be beaten by something provably better, not merely displaced. If the
iteration budget runs out, the best terminated candidate ever observed is
returned (forced_termination flag set); only when none was ever generated
does the best open candidate get END appended, folding in its complete
compliance but no probability factor.

Scores accumulate in log space and are exponentiated for reporting.
Probabilities are floored at 1e-12 before the log so a zero can never
permanently sink a branch; compliance is not floored (log 0 = -inf is a
legitimate veto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .eventlog import END
from .petri import PetriNet, ReplayState, compliance, fitness

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class BeamConfig:
    b_size: int = 3
    max_iter: int = 10
    w: float = 0.0
    max_size: int | None = None  # checked_beam queue cap; defaults to b_size
    partial_mode: str = "strict"  # how open candidates score in-flight tokens

    def __post_init__(self):
        if self.b_size < 1 or self.max_iter < 1:
            raise ValueError("b_size and max_iter must be >= 1")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must be in [0, 1]")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.partial_mode not in ("strict", "lenient"):
            raise ValueError(f"unknown partial_mode {self.partial_mode!r}")


@dataclass
class _Candidate:
    labels: tuple  # predicted content labels, END excluded
    ids: tuple  # vocabulary indices incl. END when terminated (tie-break key)
    log_score: float
    terminated: bool
    state: ReplayState | None = None  # replay of prefix+labels (modulated mode)

    def sort_key(self):
        return (-self.log_score, self.ids)


@dataclass(frozen=True)
class BeamResult:
    suffix: tuple  # predicted labels, END stripped
    score: float
    log_score: float
    forced_termination: bool
    iterations: int
    frontier_peak: int  # largest ranked pool seen; <= b_size certifies no pruning


def score_extend_baseline(parent_score: float, prob: float) -> float:
    """One step of the unmodulated score recursion (plain product)."""
    return parent_score * prob


def score_extend_modulated(parent_score: float, prob: float, compliance_value: float, w: float) -> float:
    """One modulated step: parent * prob^(1-w) * compliance^w, 0^0 := 1."""
    p_term = 1.0 if w == 1.0 and prob == 0.0 else prob ** (1.0 - w)
    c_term = 1.0 if w == 0.0 else compliance_value ** w
    return parent_score * p_term * c_term


def _log_floor(p: float) -> float:
    return math.log(p if p > PROB_FLOOR else PROB_FLOOR)


def _log_compliance(c: float) -> float:
    return math.log(c) if c > 0.0 else float("-inf")


def _better(a: _Candidate | None, b: _Candidate) -> _Candidate:
    if a is None or b.sort_key() < a.sort_key():
        return b
    return a


def _top_label_indices(probs: np.ndarray, k: int) -> np.ndarray:
    # ties resolve to the lowest vocabulary index (stable sort on -probs)
    order = np.argsort(-probs, kind="stable")
    return order[: min(k, len(order))]


def _run_beam(prefix, predictor, config: BeamConfig, net: PetriNet | None) -> BeamResult:
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    vocab = predictor.vocab
    end_idx = vocab.index_of(END)
    w = config.w
    modulate = net is not None and w > 0.0
    strict = config.partial_mode == "strict"

    root_state = None
    if modulate:
        root_state = ReplayState(net.compiled)
        for label in prefix:
            root_state.step(label)
    root = _Candidate(labels=(), ids=(), log_score=0.0, terminated=False, state=root_state)

    best_terminated: _Candidate | None = None
    frontier_peak = 1
    pool = [root]
    iterations = 0
    closure = root  # deepest rank-0 open seen; stays within the length budget

    h = 0
    while h <= config.max_iter:
        closure = pool[0]
        expansions = []
        any_active = False
        for cand in pool:
            if cand.terminated:
                expansions.append(cand)
                continue
            any_active = True
            probs = predictor.predict_proba(prefix + cand.labels)
            for idx in _top_label_indices(probs, config.b_size):
                idx = int(idx)
                child_log = cand.log_score + (1.0 - w) * _log_floor(float(probs[idx]))
                if idx == end_idx:
                    if modulate:
                        child_log += w * _log_compliance(fitness(cand.state.result_complete()))
                    child = _Candidate(
                        labels=cand.labels,
                        ids=cand.ids + (idx,),
                        log_score=child_log,
                        terminated=True,
                    )
                    best_terminated = _better(best_terminated, child)
                else:
                    label = vocab.labels[idx]
                    state = None
                    if modulate:
                        state = cand.state.clone()
                        state.step(label)
                        child_log += w * _log_compliance(fitness(state.result_partial(strict=strict)))
                    child = _Candidate(
                        labels=cand.labels + (label,),
                        ids=cand.ids + (idx,),
                        log_score=child_log,
                        terminated=False,
                        state=state,
                    )
                expansions.append(child)
        if not any_active:
            break  # every pool entry is terminated and none ranked first: cannot happen after a full round, but guard anyway
        iterations = h + 1
        expansions.sort(key=_Candidate.sort_key)
        frontier_peak = max(frontier_peak, len(expansions))
        if expansions[0].terminated:
            return _finish(expansions[0], forced=False, iterations=iterations, peak=frontier_peak)
        pool = expansions[: config.b_size]
        h += 1

    if best_terminated is not None:
        return _finish(best_terminated, forced=True, iterations=iterations, peak=frontier_peak)
    # No completion was ever generated (possible when b_size < |vocab| and END
    # never makes the cut): close the best-ranked open hypothesis by fiat.
    cand = closure
    log_score = cand.log_score
    if modulate:
        log_score += w * _log_compliance(fitness(cand.state.result_complete()))
    closed = _Candidate(
        labels=cand.labels,
        ids=cand.ids + (end_idx,),
        log_score=log_score,
        terminated=True,
    )
    return _finish(closed, forced=True, iterations=iterations, peak=frontier_peak)


def _finish(cand: _Candidate, forced: bool, iterations: int, peak: int) -> BeamResult:
    return BeamResult(
        suffix=cand.labels,
        score=math.exp(cand.log_score) if cand.log_score != float("-inf") else 0.0,
        log_score=cand.log_score,
        forced_termination=forced,
        iterations=iterations,
        frontier_peak=peak,
    )


def baseline_beam(prefix, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with pure probability scores (w fixed to 0)."""
    if config.w != 0.0:
        config = replace(config, w=0.0)
    return _run_beam(prefix, predictor, config, net=None)


def modulated_beam(prefix, net: PetriNet, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with replay-fitness-modulated scores."""
    return _run_beam(prefix, predictor, config, net=net)


def checked_beam(prefix, checker, predictor, config: BeamConfig) -> BeamResult | None:
    """Probability-ranked beam with a boolean compliance gate on completions.

    Expansions are pooled, the top max_size survive, and the survivors are
    visited in rank order: open candidates are re-queued, terminated ones
    are returned if the checker accepts their content (END stripped) and
    dropped otherwise. Exhausting the queue or the iteration budget yields
    None — this variant has no forced-termination fallback.
    """
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    vocab = predictor.vocab
    end_idx = vocab.index_of(END)
    max_size = config.max_size if config.max_size is not None else config.b_size

    pool = [_Candidate(labels=(), ids=(), log_score=0.0, terminated=False)]
    peak = 1
    iterations = 0
    h = 0
    while h <= config.max_iter and pool:
        expansions = []
        for cand in pool:
            probs = predictor.predict_proba(prefix + cand.labels)
            for idx in _top_label_indices(probs, config.b_size):
                idx = int(idx)
                child_log = cand.log_score + _log_floor(float(probs[idx]))
                if idx == end_idx:
                    child = _Candidate(
                        labels=cand.labels, ids=cand.ids + (idx,), log_score=child_log, terminated=True
                    )
                else:
                    child = _Candidate(
                        labels=cand.labels + (vocab.labels[idx],),
                        ids=cand.ids + (idx,),
                        log_score=child_log,
                        terminated=False,
                    )
                expansions.append(child)
        iterations = h + 1
        expansions.sort(key=_Candidate.sort_key)
        peak = max(peak, len(expansions))
        pool = []
        for cand in expansions[:max_size]:
            if not cand.terminated:
                pool.append(cand)
            elif checker(prefix + cand.labels):
                return _finish(cand, forced=False, iterations=iterations, peak=peak)
            # terminated but non-compliant: discarded
        h += 1
    return None


def perfect_fitness_checker(net: PetriNet, tol: float = 1e-9):
    """Boolean gate for checked_beam: complete-replay fitness of 1."""

    def check(variant) -> bool:
        return compliance(net, variant, partial=False) >= 1.0 - tol

    return check

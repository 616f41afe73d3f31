"""Beam-search suffix prediction, with optional replay-fitness modulation.

Three entry points share one expansion step (:func:`_expand`):

* :func:`baseline_beam` — scores are cumulative predictor probabilities;
  a configured w is ignored.
* :func:`modulated_beam` — each step multiplies in the replay compliance of
  the extended trace, weighted by ``w``:

      score(<s, a>) = score(s) * P(a | s)^(1-w) * C(<s, a>)^w

  At w = 0 the compliance factor is skipped outright (0^0 := 1), the net is
  never consulted, and the run is bit-for-bit the baseline.
* :func:`checked_beam` — plain probability scores plus a boolean compliance
  check on complete candidates only; first passing candidate in rank order
  wins, None when the search exhausts.

In every step each queued open candidate expands by its b_size most
probable next labels (one ``predict_proba_batch`` call per step gives the
rows of all of them) and the pooled expansions are ranked by score (ties:
lexicographically smaller label-index tuple first). The checked beam keeps
the top max_size; baseline and modulated keep the top b_size, and return a
terminated candidate (last label END) when it ranks first; terminated
candidates ranked lower stay in the pool with frozen scores — still
competing, never extended — so a completion can only be beaten by something
provably better, not merely displaced. If the iteration budget runs out,
the best terminated candidate ever observed is returned (forced_termination
flag set); only when none was ever generated does the best open candidate
get END appended, folding in its complete compliance but no probability
factor.

Scores accumulate in log space and are exponentiated for reporting.
Probabilities are floored at 1e-12 before the log so a zero can never
permanently sink a branch; compliance is not floored (log 0 = -inf is a
legitimate veto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _expand(pool, prefix, predictor, b_size: int, w: float = 0.0, strict: bool = True) -> list:
    """One beam step: every child of the pool, ranked.

    Each open candidate spawns its b_size most probable next labels, one
    ``predict_proba_batch`` call giving the rows of all of them. A child
    scores its parent's log score plus (1-w)·log p and, when w > 0, w·log of
    its replay compliance (complete for END, partial otherwise). Terminated
    candidates are carried over unchanged.
    """
    vocab = predictor.vocab
    end_idx = vocab.index_of(END)
    open_cands = [cand for cand in pool if not cand.terminated]
    rows = iter(predictor.predict_proba_batch([prefix + cand.labels for cand in open_cands]))
    expansions = []
    for cand in pool:
        if cand.terminated:
            expansions.append(cand)
            continue
        probs = next(rows)
        for idx in _top_label_indices(probs, b_size):
            idx = int(idx)
            child_log = cand.log_score + (1.0 - w) * _log_floor(float(probs[idx]))
            labels, state = cand.labels, None
            if idx == end_idx:
                if w > 0.0:
                    child_log += w * _log_compliance(fitness(cand.state.result_complete()))
            else:
                labels += (vocab.labels[idx],)
                if w > 0.0:
                    state = cand.state.clone()
                    state.step(labels[-1])
                    child_log += w * _log_compliance(fitness(state.result_partial(strict=strict)))
            expansions.append(_Candidate(labels, cand.ids + (idx,), child_log, idx == end_idx, state))
    expansions.sort(key=_Candidate.sort_key)
    return expansions


def _run_beam(prefix, predictor, config: BeamConfig, net: PetriNet | None) -> BeamResult:
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    w = config.w if net is not None else 0.0
    strict = config.partial_mode == "strict"

    root_state = None
    if w > 0.0:
        root_state = ReplayState(net.compiled)
        for label in prefix:
            root_state.step(label)
    pool = [_Candidate(labels=(), ids=(), log_score=0.0, terminated=False, state=root_state)]

    best_terminated: _Candidate | None = None
    frontier_peak = 1
    for h in range(config.max_iter + 1):
        closure = pool[0]  # deepest rank-0 open seen; stays within the length budget
        expansions = _expand(pool, prefix, predictor, config.b_size, w, strict)
        frontier_peak = max(frontier_peak, len(expansions))
        if expansions[0].terminated:
            return _finish(expansions[0], forced=False, iterations=h + 1, peak=frontier_peak)
        # the step's best completion; carried-over ones were already seen
        completed = next((cand for cand in expansions if cand.terminated), None)
        if completed is not None:
            best_terminated = _better(best_terminated, completed)
        pool = expansions[: config.b_size]

    iterations = config.max_iter + 1
    if best_terminated is not None:
        return _finish(best_terminated, forced=True, iterations=iterations, peak=frontier_peak)
    # No completion was ever generated (possible when b_size < |vocab| and END
    # never makes the cut): close the best-ranked open hypothesis by fiat.
    log_score = closure.log_score
    if w > 0.0:
        log_score += w * _log_compliance(fitness(closure.state.result_complete()))
    closed = _Candidate(closure.labels, closure.ids + (predictor.vocab.index_of(END),), log_score, True)
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
    """Suffix prediction with pure probability scores (w treated as 0)."""
    return _run_beam(prefix, predictor, config, net=None)


def modulated_beam(prefix, net: PetriNet | None, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with replay-fitness-modulated scores; the baseline when w = 0 or net is None."""
    return _run_beam(prefix, predictor, config, net=net)


def checked_beam(prefix, checker, predictor, config: BeamConfig) -> BeamResult | None:
    """Probability-ranked beam with a boolean compliance gate on completions.

    Each step is the shared expansion at w = 0; the top max_size children
    survive and are visited in rank order: open candidates are re-queued,
    terminated ones are returned if the checker accepts their content (END
    stripped) and dropped otherwise. Exhausting the queue or the iteration
    budget yields None — this variant has no forced-termination fallback.
    """
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    max_size = config.max_size if config.max_size is not None else config.b_size

    pool = [_Candidate(labels=(), ids=(), log_score=0.0, terminated=False)]
    peak = 1
    for h in range(config.max_iter + 1):
        expansions = _expand(pool, prefix, predictor, config.b_size)
        peak = max(peak, len(expansions))
        pool = []
        for cand in expansions[:max_size]:
            if not cand.terminated:
                pool.append(cand)
            elif checker(prefix + cand.labels):
                return _finish(cand, forced=False, iterations=h + 1, peak=peak)
            # terminated but non-compliant: discarded
        if not pool:
            break
    return None


def perfect_fitness_checker(net: PetriNet, tol: float = 1e-9):
    """Boolean gate for checked_beam: complete-replay fitness of 1."""

    def check(variant) -> bool:
        return compliance(net, variant, partial=False) >= 1.0 - tol

    return check

"""Beam-search suffix prediction, with optional replay-fitness modulation.

Four entry points share one beam loop and its expansion step
(:func:`_expand`):

* :func:`baseline_beam` — scores are cumulative predictor probabilities;
  a configured w is ignored.
* :func:`modulated_beam` — each step multiplies in the replay compliance of
  the extended trace, weighted by ``w``:

      score(<s, a>) = score(s) * P(a | s)^(1-w) * C(<s, a>)^w

  At w = 0 the compliance factor is skipped outright (0^0 := 1), the net is
  never consulted, and the run is bit-for-bit the baseline.
* :func:`sweep_beams` — the modulated beam at several w in one call, for
  configs that differ only in w. The w > 0 beams share one record per
  expanded open node: each child's log p, log C, ids, labels and replay,
  none of which depends on w. So a node that several w reach is ranked and
  replayed once, and each result is bit-for-bit its own modulated beam.
  One config has nothing to share and keeps no records.
* :func:`checked_beam` — plain probability scores plus a boolean compliance
  check on complete candidates only; first passing candidate in rank order
  wins, None when the search exhausts.

In every step each queued open candidate expands by its b_size most
probable next labels (one call per step ranks them for all open candidates)
and the pooled expansions are ranked by score (ties:
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

A candidate is a plain tuple ``(log_score, ids, labels, terminated,
replay)``, ranked by ``(-log_score, ids)``: ``labels`` are the predicted
content labels (END excluded), ``ids`` their vocabulary indices (END
included once terminated), and ``replay`` is ``(sid, produced, consumed,
missing)`` after prefix + labels, or None when the beam is not modulated;
``sid`` is a state id of the net's reachability graph
(:class:`~suffixbeam.petri.CompiledNet`). A call replays the prefix once,
with a fresh :class:`~suffixbeam.petri.ReplayState`, which clears a graph
past its cap, so ids (and the records that hold them) stay valid for the
whole call and are dropped with it. A child then costs one lookup,
``steps[sid][label]``, which also carries the successor's residual; a
completion reads ``finish[sid]``. Counters are scored with
:func:`~suffixbeam.petri.fitness_counts`. The labels an open candidate
expands by, with their floored log probabilities, come from the
predictor's ``ranked_batch(prefixes, b_size)``, one call per step for all
open candidates (see :mod:`~suffixbeam.predictor` for the protocol).

Scores accumulate in log space and are exponentiated for reporting.
Probabilities are floored at :data:`~suffixbeam.predictor.PROB_FLOOR`
(1e-12) before the log so a zero can never permanently sink a branch;
compliance is not floored (log 0 = -inf is a legitimate veto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .eventlog import END
from .petri import CompiledNet, PetriNet, _replayed, compliance, fitness_counts


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


# every BeamConfig field but w: the configs of one sweep_beams call share them
_BUT_W = attrgetter(*(f.name for f in fields(BeamConfig) if f.name != "w"))


@dataclass(frozen=True)
class BeamResult:
    suffix: tuple  # predicted labels, END stripped
    score: float
    log_score: float
    forced_termination: bool
    iterations: int
    frontier_peak: int  # largest ranked pool seen; <= b_size certifies no pruning


def _log_compliance(c: float) -> float:
    return math.log(c) if c > 0.0 else float("-inf")


def _sort_key(cand) -> tuple:
    return (-cand[0], cand[1])


def _better(a, b):
    if a is None or _sort_key(b) < _sort_key(a):
        return b
    return a


def _complete_fitness(compiled: CompiledNet, replay) -> float:
    sid, produced, consumed, missing = replay
    m, c, p, r, _ = compiled.complete(sid)
    return fitness_counts(produced + p, consumed + c, missing + m, r)


def _expand(
    pool, prefix, predictor, b_size: int, w: float = 0.0,
    compiled: CompiledNet | None = None, strict: bool = True, records: dict | None = None,
) -> list:
    """One beam step: every child of the pool, ranked.

    Each open candidate spawns its b_size most probable next labels, one
    ``ranked_batch`` call giving them for all open candidates with their
    floored log probabilities. A child scores its parent's log score plus
    (1-w)·log p and, when w > 0, w·log of its replay compliance (complete
    for END, partial otherwise) read from ``compiled``'s reachability graph:
    one step-table lookup per child. Terminated candidates are carried over
    unchanged.

    ``records`` (given to the w > 0 beams of a sweep) maps an expanded open
    candidate's labels to its children's ``(log p, log C, ids, labels,
    terminated, replay)``, none of which depends on w. A candidate with a
    record is scored from it; only the others are ranked, and each gets its
    record as it is scored.
    """
    vocab = predictor.vocab
    label_of = vocab.labels
    keep = 1.0 - w
    steps = compiled.steps if w > 0.0 else None
    end_idx = vocab.index_of(END)
    fresh = [prefix + cand[2] for cand in pool if not cand[3] and (records is None or cand[2] not in records)]
    ranked = iter(predictor.ranked_batch(fresh, b_size) if fresh else ())
    expansions = []
    record = None
    for cand in pool:
        log_score, ids, labels, terminated, replay = cand
        if terminated:
            expansions.append(cand)
            continue
        if records is not None:
            record = records.get(labels)
            if record is not None:
                for log_p, lc, child_ids, child_labels, child_terminated, child_replay in record:
                    child_log = log_score + keep * log_p
                    child_log += w * lc
                    expansions.append((child_log, child_ids, child_labels, child_terminated, child_replay))
                continue
            record = records[labels] = []
        for idx, log_p in next(ranked):
            child_log = log_score + keep * log_p
            if idx == end_idx:
                if w > 0.0:
                    lc = _log_compliance(_complete_fitness(compiled, replay))
                    child_log += w * lc
                child = (child_log, ids + (idx,), labels, True, None)
            else:
                label = label_of[idx]
                child_replay = None
                if w > 0.0:
                    sid, produced, consumed, missing = replay
                    sid, m, c, p, r = steps[sid].get(label) or compiled.step(sid, label)
                    missing += m
                    consumed += c
                    produced += p
                    lc = _log_compliance(fitness_counts(produced, consumed, missing, r if strict else 0))
                    child_log += w * lc
                    child_replay = (sid, produced, consumed, missing)
                child = (child_log, ids + (idx,), labels + (label,), False, child_replay)
            expansions.append(child)
            if record is not None:
                record.append((log_p, lc) + child[1:])
    expansions.sort(key=_sort_key)
    return expansions


def _prepared(prefix, net: PetriNet | None, w: float):
    """The prefix as a tuple and, when a beam at weight ``w`` needs them,
    the compiled net and the replay of the prefix (else None, None)."""
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    if net is None or w <= 0.0:
        return prefix, None, None
    compiled = net.compiled
    state = _replayed(net, prefix)  # a fresh state clears a full graph: no id outlives the call
    return prefix, compiled, (compiled.state(state.marking), state.produced, state.consumed, state.missing)


def _run_beam(prefix, predictor, config: BeamConfig, w: float, compiled, root_replay, records) -> BeamResult:
    strict = config.partial_mode == "strict"
    pool = [(0.0, (), (), False, root_replay if w > 0.0 else None)]

    best_terminated = None
    frontier_peak = 1
    for h in range(config.max_iter + 1):
        closure = pool[0]  # deepest rank-0 open seen; stays within the length budget
        expansions = _expand(pool, prefix, predictor, config.b_size, w, compiled, strict, records)
        frontier_peak = max(frontier_peak, len(expansions))
        if expansions[0][3]:
            return _finish(expansions[0], forced=False, iterations=h + 1, peak=frontier_peak)
        # the step's best completion; carried-over ones were already seen
        completed = next((cand for cand in expansions if cand[3]), None)
        if completed is not None:
            best_terminated = _better(best_terminated, completed)
        pool = expansions[: config.b_size]

    iterations = config.max_iter + 1
    if best_terminated is not None:
        return _finish(best_terminated, forced=True, iterations=iterations, peak=frontier_peak)
    # No completion was ever generated (possible when b_size < |vocab| and END
    # never makes the cut): close the best-ranked open hypothesis by fiat.
    log_score, ids, labels, _, replay = closure
    if w > 0.0:
        log_score += w * _log_compliance(_complete_fitness(compiled, replay))
    closed = (log_score, ids + (predictor.vocab.index_of(END),), labels, True, None)
    return _finish(closed, forced=True, iterations=iterations, peak=frontier_peak)


def _finish(cand, forced: bool, iterations: int, peak: int) -> BeamResult:
    log_score = cand[0]
    return BeamResult(
        suffix=cand[2],
        score=math.exp(log_score) if log_score != float("-inf") else 0.0,
        log_score=log_score,
        forced_termination=forced,
        iterations=iterations,
        frontier_peak=peak,
    )


def baseline_beam(prefix, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with pure probability scores (w treated as 0)."""
    return modulated_beam(prefix, None, predictor, config)


def modulated_beam(prefix, net: PetriNet | None, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with replay-fitness-modulated scores; the baseline when w = 0 or net is None."""
    w = config.w if net is not None else 0.0
    prefix, compiled, root_replay = _prepared(prefix, net, w)
    return _run_beam(prefix, predictor, config, w, compiled, root_replay, None)


def sweep_beams(prefix, net: PetriNet | None, predictor, configs) -> tuple:
    """``modulated_beam`` at each of ``configs``, which may differ only in w, in one call.

    The prefix is replayed once, and the w > 0 beams share their node
    records, so a node that several of them reach is ranked and replayed
    once. Each result equals its own ``modulated_beam`` bit for bit.
    """
    configs = tuple(configs)
    if len(set(map(_BUT_W, configs))) > 1:
        raise ValueError("the configs of one sweep may differ only in w")
    ws = [cfg.w if net is not None else 0.0 for cfg in configs]
    prefix, compiled, root_replay = _prepared(prefix, net, max(ws, default=0.0))
    records = {} if len(configs) > 1 else None  # one config has nothing to share
    return tuple(
        _run_beam(prefix, predictor, cfg, w, compiled, root_replay, records if w > 0.0 else None)
        for cfg, w in zip(configs, ws)
    )


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

    pool = [(0.0, (), (), False, None)]
    peak = 1
    for h in range(config.max_iter + 1):
        expansions = _expand(pool, prefix, predictor, config.b_size)
        peak = max(peak, len(expansions))
        pool = []
        for cand in expansions[:max_size]:
            if not cand[3]:
                pool.append(cand)
            elif checker(prefix + cand[2]):
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

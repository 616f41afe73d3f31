"""Beam-search suffix prediction, with optional replay-fitness modulation.

Four entry points share one expansion step (:func:`_expand`), run by one
beam loop (:func:`_run_beam`) or, in a shared sweep, by a recorded-step loop
(:func:`_run_recorded`):

* :func:`baseline_beam` — scores are cumulative predictor probabilities;
  a configured w is ignored.
* :func:`modulated_beam` — each step multiplies in the replay compliance of
  the extended trace, weighted by ``w``:

      score(<s, a>) = score(s) * P(a | s)^(1-w) * C(<s, a>)^w

  At w = 0 the compliance factor is skipped outright (0^0 := 1), the net is
  never consulted, and the run is bit-for-bit the baseline.
* :func:`sweep_beams` — the modulated beam of one config at each w of a
  grid, in one call. A grid that holds a w > 0 and more than one w shares
  one record per expanded open node over all its beams, w = 0 included:
  each child's log p, log C, ids, labels and replay, none of which depends
  on w. A node that several w reach is ranked and replayed once, and a step
  over recorded nodes is a loop over their records and one sort. Each
  result is bit-for-bit its own modulated beam. One w, an all-zero grid or
  no net keeps no records, and the last two never compile the net. The
  harness reads the same beams as raw runs (:func:`_sweep_runs`): ``(winner,
  forced, iterations, peak)`` per w, with no :class:`BeamResult` built.
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
flag set); only when none was ever generated is the best open candidate
closed as its END child of log p 0: its complete compliance folds in, and
no probability factor.

A candidate is a plain tuple ``(neg, ids, labels, terminated, replay)``:
``neg`` is the negated log score, so a plain ``sort()`` ranks a pool by
``(-log score, ids)`` with no key function, and as ids are unique within a
pool a comparison never reaches ``replay``. ``labels`` are the predicted
content labels (END excluded), ``ids`` their vocabulary indices (END
included once terminated), and ``replay`` is ``(sid, produced, consumed,
missing)`` after prefix + labels, or None when the beam is neither
modulated nor reading shared records; ``sid`` is a state id of the net's
reachability graph
(:class:`~suffixbeam.petri.CompiledNet`). A call replays its prefix once
through :class:`~suffixbeam.petri.ReplayState`, which starts every replay
and alone clears a full graph, so ids (and the records that hold them) stay
valid for the whole call. A child then costs one lookup,
``steps[sid][label]``, which also carries the successor's residual; a
completion reads ``finish[sid]``. :func:`_expand` ranks: one
``ranked_batch(prefixes, b_size)`` call per step gives the open candidates
their next labels with floored log probabilities (see
:mod:`~suffixbeam.predictor`). :func:`_children` scores every child, the
forced closure too, with compliance
:func:`~suffixbeam.petri.fitness_counts` computed inline; only the
zero-count case calls it, for its warning. So a warm step, every window
memoized and every child step in the graph, costs one memo lookup per open
candidate, one sort, and per child two tuple concatenations, one step-table
lookup, a few float operations and one ``math.log``. A recorded step
costs one record lookup per open candidate, one sort, and per child a tuple
and one or two float products; its open candidates without a record go to
:func:`_expand` in one call. A prefix that holds END is a ValueError.

Scores accumulate in log space, negated, and are exponentiated for
reporting; a result's log score is ``0.0 - neg``, never ``-neg``, so a path
of probability 1 scores +0.0, as a sum of logs does.
Probabilities are floored at :data:`~suffixbeam.predictor.PROB_FLOOR`
(1e-12) before the log so a zero can never permanently sink a branch;
compliance is not floored (log 0 = -inf is a legitimate veto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._numbers import as_int, as_real
from .eventlog import END
from .petri import CompiledNet, PetriNet, _replayed, compliance, fitness_counts


def _check_w(w) -> float:
    """w as the float a beam computes with, or ValueError unless it is a real number (not a bool) in [0, 1].

    A negative zero is returned as 0.0, so no report prints ``-0.00``.
    """
    w = as_real("w", w)
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must be in [0, 1]")
    return w or 0.0


@dataclass(frozen=True)
class BeamConfig:
    b_size: int = 3
    max_iter: int = 10
    w: float = 0.0
    max_size: int | None = None  # checked_beam queue cap; defaults to b_size
    partial_mode: str = "strict"  # how open candidates score in-flight tokens

    def __post_init__(self):
        for name in ("b_size", "max_iter") + (() if self.max_size is None else ("max_size",)):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 1))
        object.__setattr__(self, "w", _check_w(self.w))
        if self.partial_mode not in ("strict", "lenient"):
            raise ValueError(f"unknown partial_mode {self.partial_mode!r}")


class BeamResult(NamedTuple):
    """One beam's answer; immutable, and cheap to build (a sweep builds one per w)."""

    suffix: tuple  # predicted labels, END stripped
    score: float
    log_score: float
    forced_termination: bool
    iterations: int
    frontier_peak: int  # largest ranked pool seen; <= b_size certifies no pruning


def _expand(
    pool, prefix, predictor, b_size: int, w: float = 0.0,
    compiled: CompiledNet | None = None, strict: bool = True, records: dict | None = None,
) -> list:
    """One beam step: every child of the pool, ranked.

    The step's one ``ranked_batch`` call ranks the open candidates' next
    labels, and :func:`_children` scores the children. A sweep's recorded
    loop (:func:`_run_recorded`) hands it the open candidates of a step
    that lack a record, with ``records``: their children are recorded, not
    scored, and the list holds the pool's terminated candidates alone.
    """
    ranked = predictor.ranked_batch([prefix + cand[2] for cand in pool if not cand[3]], b_size)
    expansions = _children(pool, ranked, predictor.vocab.labels, w, compiled, strict, records)
    expansions.sort()  # by (-log score, ids); ids are unique within a pool
    return expansions


def _children(pool, ranked, label_of, w: float, compiled, strict: bool, records=None) -> list:
    """The pool's terminated candidates and its open ones' scored children, unranked.

    ``ranked`` holds one ``((index, log p), ...)`` record per open candidate,
    in pool order, and ``label_of`` the vocabulary's labels, END last. A
    child's negated score is its parent's less (1-w)·log p and, when w > 0,
    less w·log of its compliance (complete for END), by one step-table
    lookup. With ``records``, each open candidate's children go to
    ``records[labels]`` as ``(log p, log C, ids, labels, terminated,
    replay)``, none of which depends on w, and compliance is computed at
    any w.
    """
    end_idx = len(label_of) - 1
    keep = 1.0 - w
    replayed = w > 0.0 or records is not None
    if replayed:
        steps, finish = compiled.steps, compiled.finish
    ranked = iter(ranked)
    expansions = []
    append = expansions.append
    record = None
    for cand in pool:
        neg, ids, labels, terminated, replay = cand
        if terminated:
            append(cand)
            continue
        if records is not None:
            record = records[labels] = []
        if replayed:
            sid, produced, consumed, missing = replay
            step = steps[sid]
        for idx, log_p in next(ranked):
            child_replay = None
            if idx == end_idx:
                child_labels, done = labels, True
                if replayed:
                    m, c, p, r, _ = finish[sid] or compiled.complete(sid)
            else:
                label = label_of[idx]
                child_labels, done = labels + (label,), False
                if replayed:
                    nxt, m, c, p, r = step.get(label) or compiled.step(sid, label)
                    if not strict:
                        r = 0
            child_ids = ids + (idx,)
            if not replayed:
                append((neg - keep * log_p, child_ids, child_labels, done, None))
                continue
            m += missing
            c += consumed
            p += produced
            if c > 0 and p > 0:  # fitness_counts, inline; it warns on the zero-count fallback
                fit = 0.5 * (1.0 - m / c) + 0.5 * (1.0 - r / p)
            else:
                fit = fitness_counts(p, c, m, r)
            lc = math.log(fit) if fit > 0.0 else -math.inf
            if not done:
                child_replay = (nxt, p, c, m)
            if record is None:
                append((neg - keep * log_p - w * lc, child_ids, child_labels, done, child_replay))
            else:
                record.append((log_p, lc, child_ids, child_labels, done, child_replay))
    return expansions


def _prefix(prefix) -> tuple:
    """The running prefix a beam continues, as a tuple: non-empty and without END."""
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("beam search needs a non-empty prefix")
    if END in prefix:
        raise ValueError(f"a running prefix cannot hold the completion label {END}")
    return prefix


def _prepared(prefix, net: PetriNet | None, w: float):
    """The prefix as a tuple and, when a beam at weight ``w`` needs them,
    the compiled net and the replay of the prefix (else None, None)."""
    prefix = _prefix(prefix)
    if net is None or w <= 0.0:
        return prefix, None, None
    state = _replayed(net, prefix)
    compiled = state.compiled
    return prefix, compiled, (compiled.state(state.code), state.produced, state.consumed, state.missing)


def _run_beam(prefix, predictor, config: BeamConfig, w: float, compiled, root_replay) -> tuple:
    """One beam at weight ``w``, each step by :func:`_expand`: ``(candidate, forced, iterations, peak)``."""
    strict = config.partial_mode == "strict"
    b_size = config.b_size
    pool = [(0.0, (), (), False, root_replay)]

    best_terminated = None
    frontier_peak = 1
    for h in range(config.max_iter + 1):
        closure = pool[0]  # deepest rank-0 open seen; stays within the length budget
        expansions = _expand(pool, prefix, predictor, b_size, w, compiled, strict)
        if len(expansions) > frontier_peak:
            frontier_peak = len(expansions)
        if expansions[0][3]:
            return expansions[0], False, h + 1, frontier_peak
        for cand in expansions:  # the step's best completion; carried-over ones were already seen
            if cand[3]:
                if best_terminated is None or cand < best_terminated:
                    best_terminated = cand
                break
        pool = expansions[:b_size]
    return _exhausted(best_terminated, closure, predictor, config, w, compiled, frontier_peak)


def _run_recorded(prefix, predictor, config: BeamConfig, w: float, compiled, root_replay, records: dict) -> tuple:
    """One beam of a grid that shares ``records``, as :func:`_run_beam` returns it.

    ``records`` maps an expanded open candidate's labels to its children's
    ``(log p, log C, ids, labels, terminated, replay)`` (see
    :func:`_children`). A step scores each open candidate's children from its
    record, as ``neg - (1-w)·log p``, less ``w·log C`` only when w > 0 (0·-inf
    is NaN); its first open candidate without a record sends every open
    candidate that lacks one to :func:`_expand`, which ranks and records
    them.
    """
    strict = config.partial_mode == "strict"
    b_size = config.b_size
    keep = 1.0 - w
    modulated = w > 0.0
    pool = [(0.0, (), (), False, root_replay)]

    best_terminated = None
    frontier_peak = 1
    for h in range(config.max_iter + 1):
        closure = pool[0]
        expansions = []
        append = expansions.append
        for cand in pool:
            if cand[3]:
                append(cand)
                continue
            record = records.get(cand[2])
            if record is None:
                unrecorded = [c for c in pool if not c[3] and c[2] not in records]
                _expand(unrecorded, prefix, predictor, b_size, w, compiled, strict, records)
                record = records[cand[2]]
            neg = cand[0]
            if modulated:
                for log_p, lc, ids, labels, done, replay in record:
                    append((neg - keep * log_p - w * lc, ids, labels, done, replay))
            else:
                for log_p, _, ids, labels, done, replay in record:
                    append((neg - keep * log_p, ids, labels, done, replay))
        expansions.sort()
        if len(expansions) > frontier_peak:
            frontier_peak = len(expansions)
        if expansions[0][3]:
            return expansions[0], False, h + 1, frontier_peak
        for cand in expansions:
            if cand[3]:
                if best_terminated is None or cand < best_terminated:
                    best_terminated = cand
                break
        pool = expansions[:b_size]
    return _exhausted(best_terminated, closure, predictor, config, w, compiled, frontier_peak)


def _exhausted(best_terminated, closure, predictor, config: BeamConfig, w: float, compiled, peak: int) -> tuple:
    """The forced run of a beam whose iteration budget ran out."""
    iterations = config.max_iter + 1
    if best_terminated is not None:
        return best_terminated, True, iterations, peak
    # No completion was ever generated (possible when b_size < |vocab| and END
    # never makes the cut): close the leader by fiat, as its END child of log p 0.
    label_of = predictor.vocab.labels
    strict = config.partial_mode == "strict"
    closed = _children([closure], [((len(label_of) - 1, 0.0),)], label_of, w, compiled, strict)[0]
    return closed, True, iterations, peak


def _finish(cand, forced: bool, iterations: int, peak: int) -> BeamResult:
    log_score = 0.0 - cand[0]  # not -cand[0]: a path of probability 1 scores +0.0, not -0.0
    return BeamResult(cand[2], math.exp(log_score), log_score, forced, iterations, peak)


def baseline_beam(prefix, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with pure probability scores (w treated as 0)."""
    return modulated_beam(prefix, None, predictor, config)


def modulated_beam(prefix, net: PetriNet | None, predictor, config: BeamConfig) -> BeamResult:
    """Suffix prediction with replay-fitness-modulated scores; the baseline when w = 0 or net is None."""
    w = config.w if net is not None else 0.0
    prefix, compiled, root_replay = _prepared(prefix, net, w)
    return _finish(*_run_beam(prefix, predictor, config, w, compiled, root_replay))


def sweep_beams(prefix, net: PetriNet | None, predictor, config: BeamConfig, ws) -> tuple:
    """``modulated_beam`` at ``config`` with each w of ``ws``, in one call: one result per w.

    Result i equals ``modulated_beam(prefix, net, predictor, replace(config,
    w=ws[i]))`` bit for bit; ``config.w`` is not read, and each w is checked
    as ``BeamConfig`` checks it. The prefix is replayed once, and a grid
    that holds a w > 0 and more than one w shares one record table over all
    its beams, w = 0 included, so a node that several of them reach is
    ranked and replayed once.
    """
    ws = tuple(map(_check_w, ws))
    return tuple(_finish(*run) for run in _sweep_runs(prefix, net, predictor, config, ws))


def _sweep_runs(prefix, net: PetriNet | None, predictor, config: BeamConfig, ws) -> list:
    """:func:`sweep_beams` on a grid of checked ws, as ``(candidate, forced, iterations, peak)`` runs.

    An all-zero grid, a grid of one w, or ``net=None`` keeps no records, and
    without a w > 0 the net is never compiled.
    """
    ws = ws if net is not None else (0.0,) * len(ws)
    prefix, compiled, root_replay = _prepared(prefix, net, max(ws, default=0.0))
    if compiled is None or len(ws) == 1:  # no w > 0, or one w: nothing to share
        return [_run_beam(prefix, predictor, config, w, compiled, root_replay) for w in ws]
    records = {}
    return [_run_recorded(prefix, predictor, config, w, compiled, root_replay, records) for w in ws]


def checked_beam(prefix, checker, predictor, config: BeamConfig) -> BeamResult | None:
    """Probability-ranked beam with a boolean compliance gate on completions.

    Each step is the shared expansion at w = 0; the top max_size children
    survive and are visited in rank order: open candidates are re-queued,
    terminated ones are returned if the checker accepts their content (END
    stripped) and dropped otherwise. Exhausting the queue or the iteration
    budget yields None — this variant has no forced-termination fallback.
    """
    prefix = _prefix(prefix)
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


def perfect_fitness_checker(net: PetriNet):
    """Boolean gate for checked_beam: complete-replay fitness of exactly 1, no token missing or remaining."""

    def check(variant) -> bool:
        return compliance(net, variant, partial=False) == 1.0

    return check

"""Synthetic event-log generator with a known exceptional sub-process.

The process has two branches after ``Start``:

* branch 1: ``B1a`` then ``B1b`` and ``B1c`` in either order,
* branch 2: ``B2a``, ``B2b``, ``B2c`` in sequence.

Exceptional cases run through an ``Unexpected`` / ``Repairing`` pair.  In
branch 1 the pair fires right after ``B1a`` and the case either stops there
or still performs the ``B1b``/``B1c`` tail; in branch 2 it is appended after
``B2c``.  The background-knowledge net accepts exactly the four exceptional
variants — the normal variants replay with fitness < 1 — so compliance
modulation has signal to exploit: the n-gram model trained on the mostly
normal log is biased toward stopping early on exceptional prefixes, and the
net knows better.

``generate`` is fully deterministic for a given config.  The test log
contains exactly the exceptional training traces (the model has seen them;
the question is whether search finds them again).  Each training row is
drawn as a small code for its variant, and one int64 array of codes is
shuffled; an array's shuffle makes the draws a list's makes, by its length
alone, so the rows are those a shuffle of the variants themselves gives, and
a row is exceptional by its code.  The rows are counted by code, not by
hashing them: each variant's count is known from the split sizes and the
branch-1 draws, and the variants are ordered by the first row of their code.
The training log is the log :func:`~suffixbeam.eventlog.log_from_variants`
makes of its rows, given those counts, so ``Trace``'s checks run on each
distinct variant and its timestamps come from one table of minutes; the test
log is its exceptional rows, picked by index, with their counts.  Neither
makes a trace, nor the table, until its ``traces`` are first read, and then
the test log's are the training log's own objects; only writing a log as XES
reads them.  The seed and the trace counts must be integers of at least 0 and
the branch probability a real number in [0, 1], a bool neither, and each is
stored as the plain int or float it equals.

The net is a constant, so every ``generate`` result of a process holds the
one net built on the first call, and the synthetic runs of a process share
its reachability graph (:class:`~suffixbeam.petri.CompiledNet`): the graph
lives as long as the process, still cleared past
:data:`~suffixbeam.petri.REPLAY_MEMO_CAP` states, and "one thread at a time
per net" spans every synthetic run.  ``dataclasses.replace(result.net)``
gives an equal net with a graph of its own, and
:func:`exceptional_process_net` builds a new net on every call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._numbers import as_int, as_real
from .eventlog import EventLog, _planned_log, _selected
from .petri import Arc, PetriNet, Transition

START = "Start"
B1A, B1B, B1C = "B1a", "B1b", "B1c"
B2A, B2B, B2C = "B2a", "B2b", "B2c"
UNEXPECTED = "Unexpected"
REPAIRING = "Repairing"

NORMAL_B1_BC = (START, B1A, B1B, B1C)
NORMAL_B1_CB = (START, B1A, B1C, B1B)
NORMAL_B2 = (START, B2A, B2B, B2C)
EXC_B1_SHORT = (START, B1A, UNEXPECTED, REPAIRING)
EXC_B1_TAIL_BC = (START, B1A, UNEXPECTED, REPAIRING, B1B, B1C)
EXC_B1_TAIL_CB = (START, B1A, UNEXPECTED, REPAIRING, B1C, B1B)
EXC_B2 = (START, B2A, B2B, B2C, UNEXPECTED, REPAIRING)

EXCEPTIONAL_VARIANTS = (EXC_B1_SHORT, EXC_B1_TAIL_BC, EXC_B1_TAIL_CB, EXC_B2)

# a training row is drawn as its variant's code, an index into _VARIANTS:
# 0 and 1 the branch-1 normals, 2 the branch-2 normal, then the exceptional ones
_VARIANTS = (NORMAL_B1_BC, NORMAL_B1_CB, NORMAL_B2) + EXCEPTIONAL_VARIANTS
_FIRST_EXCEPTIONAL = 3
# the share of exceptional rows in branch 1, and of those the share of the short variant
_EXCEPTIONAL_BRANCH1_FRACTION = 0.25
_SHORT_EXCEPTIONAL_FRACTION = 0.04


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 17
    n_train_normal: int = 800
    n_train_exceptional: int = 200
    branch_probability: float = 0.7  # share of branch-1 cases among normals

    def __post_init__(self):
        for name in ("seed", "n_train_normal", "n_train_exceptional"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 0))
        p = as_real("branch_probability", self.branch_probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"branch_probability must be in [0, 1], not {p!r}")
        object.__setattr__(self, "branch_probability", p)


@dataclass(frozen=True)
class SynthResult:
    train_log: EventLog
    test_log: EventLog
    net: PetriNet


def exceptional_process_net() -> PetriNet:
    """Petri net accepting exactly the four exceptional variants.

    The branch-1 repair ends in place ``x`` from which a silent transition
    either goes straight to the sink (short variant) or opens the parallel
    ``B1b``/``B1c`` tail.  ``Unexpected`` and ``Repairing`` label two
    transitions each (one per branch), so replay has to pick by marking.
    Each call builds a new net, with an empty replay graph.
    """
    places = [
        "p0", "p1", "p2", "p3", "x", "q1", "q2", "q1e", "q2e",
        "r1", "r2", "r3", "r4", "p_end",
    ]
    transitions = [
        Transition("t0", START),
        Transition("t1", B1A),
        Transition("t2", UNEXPECTED),
        Transition("t3", REPAIRING),
        Transition("t4", None),  # x -> sink: the repaired case just ends
        Transition("t5", None),  # x -> tail: open the parallel B1b/B1c block
        Transition("t6", B1B),
        Transition("t7", B1C),
        Transition("t8", None),  # join the tail
        Transition("t9", B2A),
        Transition("t10", B2B),
        Transition("t11", B2C),
        Transition("t12", UNEXPECTED),
        Transition("t13", REPAIRING),
    ]
    arcs = [
        Arc("p0", "t0"), Arc("t0", "p1"),
        Arc("p1", "t1"), Arc("t1", "p2"),
        Arc("p2", "t2"), Arc("t2", "p3"),
        Arc("p3", "t3"), Arc("t3", "x"),
        Arc("x", "t4"), Arc("t4", "p_end"),
        Arc("x", "t5"), Arc("t5", "q1"), Arc("t5", "q2"),
        Arc("q1", "t6"), Arc("t6", "q1e"),
        Arc("q2", "t7"), Arc("t7", "q2e"),
        Arc("q1e", "t8"), Arc("q2e", "t8"), Arc("t8", "p_end"),
        Arc("p1", "t9"), Arc("t9", "r1"),
        Arc("r1", "t10"), Arc("t10", "r2"),
        Arc("r2", "t11"), Arc("t11", "r3"),
        Arc("r3", "t12"), Arc("t12", "r4"),
        Arc("r4", "t13"), Arc("t13", "p_end"),
    ]
    return PetriNet(
        name="exceptional_repair",
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking={"p0": 1},
        final_marking={"p_end": 1},
    )


@cache
def _shared_net() -> PetriNet:
    """The net every :func:`generate` result of this process holds, built on first use."""
    return exceptional_process_net()


def _split(n: int, fraction: float) -> tuple[int, int]:
    first = round(n * fraction)
    return first, n - first


def generate(config: SynthConfig = SynthConfig()) -> SynthResult:
    """Build the training log, the exceptional test log, and hand out the shared net.

    Every result holds the one net of the process, whose replay graph its
    synthetic runs keep warm, one thread at a time;
    ``dataclasses.replace(result.net)`` gives a net with an independent graph.
    """
    rng = np.random.default_rng(config.seed)

    n_b1_norm, n_b2_norm = _split(config.n_train_normal, config.branch_probability)
    n_b1_exc, n_b2_exc = _split(config.n_train_exceptional, _EXCEPTIONAL_BRANCH1_FRACTION)
    n_short, n_tailed = _split(n_b1_exc, _SHORT_EXCEPTIONAL_FRACTION)
    n_tail_bc, n_tail_cb = _split(n_tailed, 0.5)

    # one code per row, the branch-1 normals first: one draw each, in the order that n single draws
    # would come, below 0.5 coding B1b first; then each other variant's rows
    draws = rng.random(n_b1_norm) >= 0.5
    n_cb = int(np.count_nonzero(draws))
    sizes = (n_b1_norm - n_cb, n_cb, n_b2_norm, n_short, n_tail_bc, n_tail_cb, n_b2_exc)
    codes = np.repeat(np.arange(len(_VARIANTS), dtype=np.int64), sizes)
    codes[:n_b1_norm] = draws
    rng.shuffle(codes)  # an array's shuffle draws as a list's does: by its length alone
    rows = codes.tolist()
    first_seen = sorted((code for code, n in enumerate(sizes) if n), key=rows.index)  # the codes, by first row
    train_log = _planned_log(tuple([_VARIANTS[code] for code in rows]),
                             Counter({_VARIANTS[code]: sizes[code] for code in first_seen}), None)
    exceptional = tuple(np.flatnonzero(codes >= _FIRST_EXCEPTIONAL).tolist())
    if not exceptional:
        raise ValueError("config produced no exceptional traces; nothing to test on")
    test_log = _selected(train_log, exceptional, Counter(
        {_VARIANTS[code]: sizes[code] for code in first_seen if code >= _FIRST_EXCEPTIONAL}))
    return SynthResult(train_log=train_log, test_log=test_log, net=_shared_net())

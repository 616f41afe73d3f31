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
drawn as a small code for its variant, and one list of codes is shuffled; a
list's shuffle permutes by its length alone, so the rows are those a shuffle
of the variants themselves gives, and a row is exceptional by its code.  The
training log comes from :func:`~suffixbeam.eventlog.log_from_variants`, so
its variants are counted once and its timestamps come from one table of
minutes; the test log is its exceptional rows, picked by index.  Neither
makes a trace, nor the table, until its ``traces`` are first read, and then
the test log's are the training log's own objects; only writing a log as XES
reads them.  The seed and the trace counts must be non-negative integers and
the fractions numbers in [0, 1]; a bool is neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eventlog import EventLog, log_from_variants
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


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 17
    n_train_normal: int = 800
    n_train_exceptional: int = 200
    branch_probability: float = 0.7  # share of branch-1 cases among normals
    exceptional_branch1_fraction: float = 0.25
    short_exceptional_fraction: float = 0.04

    def __post_init__(self):
        for name in ("seed", "n_train_normal", "n_train_exceptional"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, not {v!r}")
        for name in ("branch_probability", "exceptional_branch1_fraction", "short_exceptional_fraction"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], not {v!r}")


@dataclass(frozen=True)
class SynthResult:
    train_log: EventLog
    test_log: EventLog
    net: PetriNet


def exceptional_process_net(name: str = "exceptional_repair") -> PetriNet:
    """Petri net accepting exactly the four exceptional variants.

    The branch-1 repair ends in place ``x`` from which a silent transition
    either goes straight to the sink (short variant) or opens the parallel
    ``B1b``/``B1c`` tail.  ``Unexpected`` and ``Repairing`` label two
    transitions each (one per branch), so replay has to pick by marking.
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
        name=name,
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking={"p0": 1},
        final_marking={"p_end": 1},
    )


def _split(n: int, fraction: float) -> tuple[int, int]:
    first = round(n * fraction)
    return first, n - first


def generate(config: SynthConfig = SynthConfig()) -> SynthResult:
    """Build the training log, the exceptional test log, and the net."""
    rng = np.random.default_rng(config.seed)

    n_b1_norm, n_b2_norm = _split(config.n_train_normal, config.branch_probability)
    n_b1_exc, n_b2_exc = _split(config.n_train_exceptional, config.exceptional_branch1_fraction)
    n_short, n_tailed = _split(n_b1_exc, config.short_exceptional_fraction)
    n_tail_bc, n_tail_cb = _split(n_tailed, 0.5)

    # one draw per branch-1 normal, in the order that n single draws would come: below 0.5 is B1b first
    codes = (rng.random(n_b1_norm) >= 0.5).astype(int).tolist()
    for code, n in enumerate((n_b2_norm, n_short, n_tail_bc, n_tail_cb, n_b2_exc), start=2):
        codes += [code] * n
    rng.shuffle(codes)  # a list's shuffle draws by its length alone

    train_log = log_from_variants([_VARIANTS[code] for code in codes])
    exceptional = [row for row, code in enumerate(codes) if code >= _FIRST_EXCEPTIONAL]
    if not exceptional:
        raise ValueError("config produced no exceptional traces; nothing to test on")
    return SynthResult(train_log=train_log, test_log=train_log.select(exceptional), net=exceptional_process_net())

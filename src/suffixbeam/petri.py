"""Petri nets: PNML round-trip, firing semantics, and token-based replay.

The background-knowledge model is an ordinary place/transition net. Replay
walks a variant through the net counting produced / consumed / missing /
remaining tokens; the fitness over those counters,

    f = 1/2 (1 - m/c) + 1/2 (1 - r/p),

is the compliance signal that modulates the beam search. Incomplete traces
can be scored two ways (the partial_mode of :func:`compliance`):

* ``lenient`` — remaining tokens are ignored entirely (r := 0): only missing
  tokens hurt. This is what :func:`token_replay` with partial=True reports.
* ``strict`` — tokens that cannot be explained as part of the final marking
  count as remaining, so a candidate that wanders away from the final
  marking pays for its in-flight tokens. The beam search defaults to this
  mode: under the lenient rule every prefix of a fitting trace scores 1 and
  the modulation weight can never vote *against* continuing.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .eventlog import END, _escape, _local, _xml_elements

logger = logging.getLogger(__name__)

# Entries per net. An entry takes a few hundred bytes on a 16-place net
# (240 B on average), so a full memo stays under 2 MB; the benchmark's nets
# reach a few hundred entries.
REPLAY_MEMO_CAP = 4096
# Markings are int32 arrays, so no place may hold more tokens than this.
TOKEN_MAX = int(np.iinfo(np.int32).max)
_RESIDUAL = object()  # memo-key tags beside the labels of replay steps
_COMPLETE = object()


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None  # None means silent (tau)


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    weight: int = 1


@dataclass
class PetriNet:
    """Immutable after construction; replay state lives outside the net."""

    name: str
    places: tuple
    transitions: tuple  # of Transition
    arcs: tuple  # of Arc
    initial_marking: dict
    final_marking: dict
    _compiled: "CompiledNet" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        place_set = set(self.places)
        tid_set = {t.tid for t in self.transitions}
        if len(place_set) != len(self.places):
            raise ValueError("duplicate place ids")
        if len(tid_set) != len(self.transitions):
            raise ValueError("duplicate transition ids")
        if not self.transitions:
            raise ValueError("net has no transitions")
        for arc in self.arcs:
            src_p, tgt_p = arc.source in place_set, arc.target in place_set
            src_t, tgt_t = arc.source in tid_set, arc.target in tid_set
            if not ((src_p and tgt_t) or (src_t and tgt_p)):
                raise ValueError(
                    f"arc {arc.source!r} -> {arc.target!r} must connect a place and a transition"
                )
            if arc.weight < 1:
                raise ValueError("arc weights must be positive")
        for marking, which in ((self.initial_marking, "initial"), (self.final_marking, "final")):
            for pid, count in marking.items():
                if pid not in place_set:
                    raise ValueError(f"{which} marking references unknown place {pid!r}")
                if not 0 <= count <= TOKEN_MAX:
                    raise ValueError(
                        f"{which} marking has {count} tokens in place {pid!r}"
                        f" (counts must lie in 0..{TOKEN_MAX})"
                    )
        # parallel arcs add up in the compiled net; an output arc must leave
        # room for one firing on top of the initial tokens of its place
        weights = {}
        for arc in self.arcs:
            weights[arc.source, arc.target] = weights.get((arc.source, arc.target), 0) + arc.weight
        for (src, tgt), weight in weights.items():
            held = self.initial_marking.get(tgt, 0) if tgt in place_set else 0
            if held + weight > TOKEN_MAX:
                raise ValueError(
                    f"arc {src!r} -> {tgt!r} of weight {weight} can overflow"
                    f" the {TOKEN_MAX} tokens a place holds"
                )

    @property
    def compiled(self) -> "CompiledNet":
        if self._compiled is None:
            self._compiled = CompiledNet.build(self)
        return self._compiled


class CompiledNet:
    """Array form of a net for the replay kernels, plus its replay memo.

    Replay outcomes depend only on the marking (and the label replayed), so
    each is computed once per net and kept in ``memo``: in effect the net's
    reachability graph, built lazily as replay visits it. Keys are
    ``(marking bytes, label)`` for steps and ``(marking bytes, tag)`` for
    the strict residual and the complete-replay finish. Markings handed out
    are read-only arrays, shared by every state that reaches them. The memo
    is emptied when it would exceed :data:`REPLAY_MEMO_CAP` entries. There
    is no reference back to the net, so dropping a net frees its memo at
    once rather than at the next full garbage collection.
    """

    def __init__(self, place_index, in_w, out_w, silent_ids, label_tids, initial, final):
        self.place_index = place_index
        self.in_w = in_w
        self.out_w = out_w
        self.silent_ids = silent_ids
        self.label_tids = label_tids  # label -> ascending int32 array of transition rows
        self.initial = initial
        self.final = final
        self.memo = {}

    @staticmethod
    def build(net: PetriNet) -> "CompiledNet":
        place_index = {pid: i for i, pid in enumerate(net.places)}
        tid_index = {t.tid: i for i, t in enumerate(net.transitions)}
        n_p, n_t = len(net.places), len(net.transitions)
        in_w = np.zeros((n_t, n_p), dtype=np.int32)
        out_w = np.zeros((n_t, n_p), dtype=np.int32)
        for arc in net.arcs:
            if arc.source in place_index:
                in_w[tid_index[arc.target], place_index[arc.source]] += arc.weight
            else:
                out_w[tid_index[arc.source], place_index[arc.target]] += arc.weight
        silent_ids = np.array(
            [i for i, t in enumerate(net.transitions) if t.label is None], dtype=np.int32
        )
        label_tids = {}
        for i, t in enumerate(net.transitions):
            if t.label is not None:
                label_tids.setdefault(t.label, []).append(i)
        label_tids = {lab: np.array(rows, dtype=np.int32) for lab, rows in label_tids.items()}
        initial = np.zeros(n_p, dtype=np.int32)
        for pid, n in net.initial_marking.items():
            initial[place_index[pid]] = n
        final = np.zeros(n_p, dtype=np.int32)
        for pid, n in net.final_marking.items():
            final[place_index[pid]] = n
        initial.flags.writeable = False
        return CompiledNet(place_index, in_w, out_w, silent_ids, label_tids, initial, final)

    def _store(self, key, value):
        if len(self.memo) >= REPLAY_MEMO_CAP:
            self.memo.clear()
        self.memo[key] = value
        return value

    def replay_label(self, marking, label):
        """(next marking, Δmissing, Δconsumed, Δproduced) of one label known to the net."""
        key = (marking.tobytes(), label)
        hit = self.memo.get(key)
        if hit is None:
            nxt, m, c, p = _kernels.replay_one_label(self, marking, self.label_tids[label])
            nxt.flags.writeable = False
            hit = self._store(key, (nxt, m, c, p))
        return hit

    def residual(self, marking) -> int:
        """Tokens of the marking not explainable as part of the final marking."""
        key = (marking.tobytes(), _RESIDUAL)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._store(key, int(np.maximum(marking - self.final, 0).sum()))
        return hit

    def finish(self, marking):
        """(Δmissing, Δconsumed, Δproduced, remaining, reached) of consuming the final marking."""
        key = (marking.tobytes(), _COMPLETE)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._store(key, _kernels.finish_complete(self, marking))
        return hit


# ---------------------------------------------------------------------------
# token replay

@dataclass(frozen=True)
class ReplayResult:
    produced: int
    consumed: int
    missing: int
    remaining: int
    final_reached: bool | None  # None when the final marking was not evaluated


class ReplayState:
    """Incremental replay: marking plus running counters.

    Extending a replayed trace by one label costs a single replay step
    instead of a full re-replay. (The beam replays its prefix with one of
    these, then keeps the same four values in plain tuples.) The marking is
    a read-only array owned by the net's replay memo; a step swaps it for
    the next one, so clones share it safely.
    """

    __slots__ = ("compiled", "marking", "produced", "consumed", "missing")

    def __init__(self, compiled: CompiledNet, marking=None, produced=None, consumed=0, missing=0):
        self.compiled = compiled
        if marking is None:
            marking = compiled.initial
            produced = int(compiled.initial.sum())
        self.marking = marking
        self.produced = produced
        self.consumed = consumed
        self.missing = missing

    def clone(self) -> "ReplayState":
        return ReplayState(self.compiled, self.marking, self.produced, self.consumed, self.missing)

    def step(self, label: str) -> None:
        """Replay one visible label (mutates the state)."""
        if label not in self.compiled.label_tids:
            # label unknown to the net: fire a virtual transition that leaves
            # the marking alone but penalizes the trace
            self.missing += 1
            self.consumed += 1
            return
        self.marking, m, c, p = self.compiled.replay_label(self.marking, label)
        self.missing += m
        self.consumed += c
        self.produced += p

    def result_partial(self, strict: bool = False) -> ReplayResult:
        """Counters as they stand, final marking not consumed.

        strict=True additionally charges tokens not explainable as part of
        the final marking as remaining.
        """
        return ReplayResult(
            produced=self.produced,
            consumed=self.consumed,
            missing=self.missing,
            remaining=self.compiled.residual(self.marking) if strict else 0,
            final_reached=None,
        )

    def result_complete(self) -> ReplayResult:
        """Counters after consuming the final marking (state left untouched)."""
        m, c, p, r, reached = self.compiled.finish(self.marking)
        return ReplayResult(
            produced=self.produced + p,
            consumed=self.consumed + c,
            missing=self.missing + m,
            remaining=r,
            final_reached=reached,
        )


def token_replay(net: PetriNet, variant, partial: bool = False) -> ReplayResult:
    """Replay a variant (no END label) against the net.

    Complete replay consumes the final marking and counts leftover tokens as
    remaining; partial replay skips both (r := 0, final_reached := None).
    """
    if END in variant:
        raise ValueError("strip the completion label before replay")
    state = ReplayState(net.compiled)
    for label in variant:
        state.step(label)
    if partial:
        return state.result_partial(strict=False)
    return state.result_complete()


def fitness(result: ReplayResult) -> float:
    """1/2 (1 - m/c) + 1/2 (1 - r/p); zero denominators degrade to 0."""
    return fitness_counts(result.produced, result.consumed, result.missing, result.remaining)


def fitness_counts(produced: int, consumed: int, missing: int, remaining: int) -> float:
    """:func:`fitness` over bare counters, for callers that keep no ReplayResult."""
    if consumed <= 0 or produced <= 0:
        warnings.warn("fitness undefined for zero produced/consumed counts; returning 0.0")
        return 0.0
    return 0.5 * (1.0 - missing / consumed) + 0.5 * (1.0 - remaining / produced)


def compliance(net: PetriNet, variant, partial: bool = False, partial_mode: str = "lenient") -> float:
    """Replay fitness of a variant, with a trailing END meaning "complete".

    partial_mode picks how an incomplete trace treats in-flight tokens; see
    the module docstring. Ignored for complete traces.
    """
    if partial_mode not in ("lenient", "strict"):
        raise ValueError(f"unknown partial_mode {partial_mode!r}")
    if variant and variant[-1] == END:
        variant = variant[:-1]
        partial = False
    if END in variant:
        raise ValueError("completion label inside a variant")
    state = ReplayState(net.compiled)
    for label in variant:
        state.step(label)
    if partial:
        return fitness(state.result_partial(strict=partial_mode == "strict"))
    return fitness(state.result_complete())


# ---------------------------------------------------------------------------
# PNML

def parse_pnml(source) -> PetriNet:
    """Read a PNML place/transition net (namespaced or not).

    Transitions with no name text, or flagged invisible via a toolspecific
    element, are silent. A missing final marking is inferred as one token in
    every sink place.
    """
    for root in _xml_elements(source, "PNML"):
        pass  # the document element ends last
    for elem in root.iter():
        elem.tag = _local(elem.tag)
    net_elem = root if root.tag == "net" else root.find(".//net")
    if net_elem is None:
        raise ValueError("PNML document contains no <net> element")
    net_name = _text_of(net_elem.find("name")) or net_elem.get("id") or "net"

    places, transitions, arcs = [], [], []
    initial, final = {}, {}
    for elem in net_elem.iter():
        if elem.tag == "place":
            pid = elem.get("id")
            if pid is None:
                if elem.get("idref") is not None:
                    continue  # a final-marking reference, handled below
                raise ValueError("place without id")
            places.append(pid)
            count = int(_text_of(elem.find(".//initialMarking")) or "0")
            if count:
                initial[pid] = count
        elif elem.tag == "transition":
            tid = elem.get("id")
            if tid is None:
                raise ValueError("transition without id")
            invisible = any(
                tool.get("activity") == "$invisible$" or tool.get("tool") == "invisible"
                for tool in elem.iter("toolspecific")
            )
            label = _text_of(elem.find(".//name"))
            if invisible or not label:
                label = None
            transitions.append(Transition(tid=tid, label=label))
        elif elem.tag == "arc":
            src, tgt = elem.get("source"), elem.get("target")
            if src is None or tgt is None:
                raise ValueError("arc without source/target")
            weight = int(_text_of(elem.find(".//inscription")) or "1")
            arcs.append(Arc(source=src, target=tgt, weight=weight))
        elif elem.tag == "finalmarkings" and not final:
            marking_elem = elem.find(".//marking")
            if marking_elem is not None:
                for pl in marking_elem.iter("place"):
                    count = int(_text_of(pl) or "0")
                    if count:
                        final[pl.get("idref")] = count

    known = set(places) | {t.tid for t in transitions}
    for arc in arcs:
        if arc.source not in known or arc.target not in known:
            raise ValueError(f"arc references unknown node: {arc.source!r} -> {arc.target!r}")
    if not final:
        with_out = {a.source for a in arcs}
        sinks = [pid for pid in places if pid not in with_out]
        if not sinks:
            raise ValueError("no final marking given and the net has no sink place")
        final = {pid: 1 for pid in sinks}
        logger.info("final marking inferred: one token in each of %s", sinks)
    return PetriNet(
        name=net_name,
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking=initial,
        final_marking=final,
    )


def _text_of(elem):
    """Text of the element's first ``<text>`` descendant, else its own text."""
    if elem is None:
        return None
    text = elem.findtext(".//text")
    if text is not None:
        return text.strip()
    return (elem.text or "").strip() or None


def write_pnml(net: PetriNet, path) -> None:
    """Serialize deterministically; parse_pnml(write_pnml(n)) == n structurally."""

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">',
        f'  <net id="{_escape(net.name)}" type="http://www.pnml.org/version-2009/grammar/ptnet">',
        f"    <name><text>{_escape(net.name)}</text></name>",
        '    <page id="page1">',
    ]
    for pid in net.places:
        line = f'      <place id="{_escape(pid)}">'
        count = net.initial_marking.get(pid, 0)
        if count:
            line += f"<initialMarking><text>{count}</text></initialMarking>"
        line += "</place>"
        lines.append(line)
    for t in net.transitions:
        if t.label is None:
            lines.append(
                f'      <transition id="{_escape(t.tid)}">'
                '<toolspecific tool="ProM" version="6.4" activity="$invisible$"/>'
                "</transition>"
            )
        else:
            lines.append(
                f'      <transition id="{_escape(t.tid)}"><name><text>{_escape(t.label)}</text></name>'
                "</transition>"
            )
    for i, arc in enumerate(net.arcs):
        line = f'      <arc id="a{i}" source="{_escape(arc.source)}" target="{_escape(arc.target)}">'
        if arc.weight != 1:
            line += f"<inscription><text>{arc.weight}</text></inscription>"
        line += "</arc>"
        lines.append(line)
    lines.append("    </page>")
    lines.append("    <finalmarkings><marking>")
    for pid in net.places:
        count = net.final_marking.get(pid, 0)
        if count:
            lines.append(f'      <place idref="{_escape(pid)}"><text>{count}</text></place>')
    lines.append("    </marking></finalmarkings>")
    lines.append("  </net>")
    lines.append("</pnml>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

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

A net is a frozen dataclass whose markings are read-only :class:`Marking`
mappings; a net made by ``dataclasses.replace`` compiles its own packed form
(:class:`CompiledNet`) on first use.
"""

from __future__ import annotations

import copy
import logging
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from ._numbers import as_int
from .eventlog import END, _escape, _local, _xml_elements

logger = logging.getLogger(__name__)

# States per net's reachability graph. On the benchmark's 16-place net a
# state takes about 240 B plus 100-115 B per label stepped from it (sizes
# summed with sys.getsizeof): 1,800 of its requests visit 160 states of
# 490 B, and 4,096 states with all 11 labels stepped from each take 5.5 MB.
REPLAY_MEMO_CAP = 4096
# A packed marking gives each place 32 bits and keeps the top one clear, and
# a marking reads as an int32 array, so no place may hold more tokens than this.
TOKEN_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None  # None means silent (tau)


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "weight", as_int(f"weight of arc {self.source!r} -> {self.target!r}", self.weight, 1))


class Marking(Mapping):
    """A marking that cannot be changed: place id -> token count, read as a dict is.

    A net stores each marking it is given, a dict or any mapping, as one of
    these, so a net that runs share keeps the marking its replay graph was
    built from. It equals a dict of the same counts, and it pickles.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts):
        self._counts = dict(counts)

    def __getitem__(self, place):
        return self._counts[place]

    def __iter__(self):
        return iter(self._counts)

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        return f"Marking({self._counts!r})"


@dataclass(frozen=True)
class PetriNet:
    """A place/transition net; its compiled form is built on first use and kept beside the fields."""

    name: str
    places: tuple
    transitions: tuple  # of Transition
    arcs: tuple  # of Arc
    # of place id -> token count; stored as a Marking, which equality compares
    # but the hash leaves out, so a net can key a dict
    initial_marking: Mapping = field(hash=False)
    final_marking: Mapping = field(hash=False)

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
        for which in ("initial", "final"):  # each count stored as the int a packed marking shifts
            marking = {}
            for pid, count in getattr(self, f"{which}_marking").items():
                if pid not in place_set:
                    raise ValueError(f"{which} marking references unknown place {pid!r}")
                marking[pid] = count = as_int(f"{which} marking count of place {pid!r}", count, 0)
                if count > TOKEN_MAX:
                    raise ValueError(
                        f"{which} marking has {count} tokens in place {pid!r}"
                        f" (counts must lie in 0..{TOKEN_MAX})"
                    )
            object.__setattr__(self, f"{which}_marking", Marking(marking))
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

    @cached_property
    def compiled(self) -> "CompiledNet":
        return CompiledNet(self)


class CompiledNet:
    """Packed form of a net for the replay kernels, plus its reachability graph.

    ``CompiledNet(net)`` is its one constructor, and ``net.compiled`` the
    one a net builds on first use and keeps. Each transition row has packed
    ``pre``/``post`` markings (see :mod:`suffixbeam._kernels`), its input
    ``(bit shift, weight)`` pairs and its arc sums
    ``pre_tokens``/``post_tokens``; ``high`` is the top bit of every place's
    field, ``evens`` the fields of the even places, and
    ``initial_code``/``final_code`` the packed initial and final markings.

    Replay outcomes depend only on the marking and the label, so the net
    keeps the part of its reachability graph (Murata 1989) that replay has
    visited, each packed marking interned as an int state id:
    ``codes[sid]`` is the packed marking, ``id_of[code]`` its id,
    ``residual[sid]`` its tokens not explainable as part of the final
    marking (the strict penalty). ``steps[sid][label]`` is the step
    ``(sid', Δmissing, Δconsumed, Δproduced, residual[sid'])`` and
    ``finish[sid]`` the outcome of consuming the final marking; :meth:`step`
    and :meth:`complete` fill them through the kernels on a miss.

    The one lifetime rule: every replay starts with a new
    :class:`ReplayState`, the only caller of :meth:`clear`, which it calls
    once the graph has passed :data:`REPLAY_MEMO_CAP` states; so no id
    outlives the replay that holds it, one thread at a time per net. With no
    reference back to the net, dropping a net frees its graph at once. The
    net every :func:`suffixbeam.synthgen.generate` result holds is never
    dropped: its graph lives as long as the process, under the same cap, and
    the one-thread rule spans every synthetic run of the process.
    ``dataclasses.replace(net)`` gives a net with an independent graph.
    """

    def __init__(self, net: PetriNet):
        self.place_index = place_index = {pid: i for i, pid in enumerate(net.places)}
        tid_index = {t.tid: i for i, t in enumerate(net.transitions)}
        in_arcs = [{} for _ in net.transitions]  # row -> {place row: summed weight}
        out_arcs = [{} for _ in net.transitions]
        for arc in net.arcs:
            if arc.source in place_index:
                t, p, arcs = tid_index[arc.target], place_index[arc.source], in_arcs
            else:
                t, p, arcs = tid_index[arc.source], place_index[arc.target], out_arcs
            arcs[t][p] = arcs[t].get(p, 0) + arc.weight
        self.inputs = [tuple((32 * p, w) for p, w in arcs.items()) for arcs in in_arcs]
        self.pre = [sum(w << shift for shift, w in pairs) for pairs in self.inputs]
        self.post = [sum(w << 32 * p for p, w in arcs.items()) for arcs in out_arcs]
        self.pre_tokens = [sum(arcs.values()) for arcs in in_arcs]
        self.post_tokens = [sum(arcs.values()) for arcs in out_arcs]
        self.high = sum(1 << 32 * p + 31 for p in range(len(place_index)))
        self.evens = sum(_kernels.FIELD << 64 * p for p in range((len(place_index) + 1) // 2))
        self.silent_rows = [i for i, t in enumerate(net.transitions) if t.label is None]
        self.label_tids = {}  # label -> ascending tuple of transition rows
        for i, t in enumerate(net.transitions):
            if t.label is not None:
                self.label_tids[t.label] = self.label_tids.get(t.label, ()) + (i,)
        self.initial_code = sum(n << 32 * place_index[pid] for pid, n in net.initial_marking.items())
        self.initial_tokens = sum(net.initial_marking.values())
        self.final_code = sum(n << 32 * place_index[pid] for pid, n in net.final_marking.items())
        self.final_tokens = sum(net.final_marking.values())
        self.clear()

    def clear(self) -> None:
        """Forget every state; ids handed out before are no longer valid."""
        self.codes, self.id_of, self.steps, self.residual, self.finish = [], {}, [], [], []

    def state(self, code: int) -> int:
        """Id of the packed marking, interned on first sight."""
        sid = self.id_of.get(code)
        if sid is None:
            sid = self.id_of[code] = len(self.codes)
            self.codes.append(code)
            self.steps.append({})
            self.residual.append(_kernels.excess(self, code, self.final_code))
            self.finish.append(None)
        return sid

    def step(self, sid: int, label):
        """``steps[sid][label]``, replayed through the kernels on a miss.

        A label unknown to the net fires a virtual transition that leaves
        the marking alone but penalizes the trace: one token missing, one
        consumed.
        """
        hit = self.steps[sid].get(label)
        if hit is None:
            tids = self.label_tids.get(label)
            if tids is None:
                nxt, m, c, p = sid, 1, 1, 0
            else:
                code, m, c, p = _kernels.replay_one_label(self, self.codes[sid], tids)
                nxt = self.state(code)
            hit = self.steps[sid][label] = (nxt, m, c, p, self.residual[nxt])
        return hit

    def complete(self, sid: int):
        """``finish[sid]``: (Δmissing, Δconsumed, Δproduced, remaining, reached)."""
        hit = self.finish[sid]
        if hit is None:
            hit = self.finish[sid] = _kernels.finish_complete(self, self.codes[sid])
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
    """Incremental replay: packed marking plus running counters.

    Extending a replayed trace by one label costs one lookup in the net's
    step table instead of a full re-replay. A new state starts at the
    initial marking and first clears a graph past :data:`REPLAY_MEMO_CAP`
    states. A state holds its packed marking ``code``, not a state id, so it
    outlives a clear and clones share it safely; ``marking`` reads it as a
    read-only int32 array.
    """

    __slots__ = ("compiled", "code", "produced", "consumed", "missing")

    def __init__(self, compiled: CompiledNet):
        if len(compiled.codes) > REPLAY_MEMO_CAP:
            compiled.clear()
        self.compiled = compiled
        self.code = compiled.initial_code
        self.produced = compiled.initial_tokens
        self.consumed = 0
        self.missing = 0

    @property
    def marking(self):
        """The marking as a read-only int32 array, one count per place."""
        return _kernels.unpack(self.code, len(self.compiled.place_index))

    def clone(self) -> "ReplayState":
        return copy.copy(self)

    def step(self, label: str) -> None:
        """Replay one visible label (mutates the state)."""
        compiled = self.compiled
        sid, m, c, p, _ = compiled.step(compiled.state(self.code), label)
        self.code = compiled.codes[sid]
        self.missing += m
        self.consumed += c
        self.produced += p

    def result_partial(self, strict: bool = False) -> ReplayResult:
        """Counters as they stand, final marking not consumed.

        strict=True additionally charges tokens not explainable as part of
        the final marking as remaining.
        """
        compiled = self.compiled
        return ReplayResult(
            produced=self.produced,
            consumed=self.consumed,
            missing=self.missing,
            remaining=compiled.residual[compiled.state(self.code)] if strict else 0,
            final_reached=None,
        )

    def result_complete(self) -> ReplayResult:
        """Counters after consuming the final marking (state left untouched)."""
        m, c, p, r, reached = self.compiled.complete(self.compiled.state(self.code))
        return ReplayResult(
            produced=self.produced + p,
            consumed=self.consumed + c,
            missing=self.missing + m,
            remaining=r,
            final_reached=reached,
        )


def _replayed(net: PetriNet, variant) -> ReplayState:
    """A fresh replay state stepped through the variant, one label at a time."""
    state = ReplayState(net.compiled)
    for label in variant:
        state.step(label)
    return state


def token_replay(net: PetriNet, variant, partial: bool = False) -> ReplayResult:
    """Replay a variant (no END label) against the net.

    Complete replay consumes the final marking and counts leftover tokens as
    remaining; partial replay skips both (r := 0, final_reached := None).
    """
    if END in variant:
        raise ValueError("strip the completion label before replay")
    state = _replayed(net, variant)
    return state.result_partial(strict=False) if partial else state.result_complete()


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
    state = _replayed(net, variant)
    if partial:
        return fitness(state.result_partial(strict=partial_mode == "strict"))
    return fitness(state.result_complete())


# ---------------------------------------------------------------------------
# PNML

def parse_pnml(source) -> PetriNet:
    """Read a PNML place/transition net (namespaced or not).

    A transition's label is its name text as written, surrounding spaces
    kept, as the log readers keep them. Transitions with blank or no name
    text, or flagged invisible via a toolspecific element, are silent. A
    missing final marking is inferred as one token in every sink place.
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
            count = _count(elem.find(".//initialMarking"), f"initial marking count of place {pid!r}", 0)
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
            label = None if invisible else _text_of(elem.find(".//name"), strip=False)
            transitions.append(Transition(tid=tid, label=label))
        elif elem.tag == "arc":
            src, tgt = elem.get("source"), elem.get("target")
            if src is None or tgt is None:
                raise ValueError("arc without source/target")
            weight = _count(elem.find(".//inscription"), f"weight of arc {src!r} -> {tgt!r}", 1)
            arcs.append(Arc(source=src, target=tgt, weight=weight))
        elif elem.tag == "finalmarkings" and not final:
            marking_elem = elem.find(".//marking")
            if marking_elem is not None:
                for pl in marking_elem.iter("place"):
                    count = _count(pl, f"final marking count of place {pl.get('idref')!r}", 0)
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


def _count(elem, name: str, default: int) -> int:
    """The integer an element's text writes, ``default`` when it is blank;
    ValueError naming ``name`` when it writes none. ``Arc`` and ``PetriNet``
    check its range, with the same name."""
    text = _text_of(elem)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an int, not {text!r}") from None


def _text_of(elem, strip=True):
    """Text of the element's first ``<text>`` descendant, else its own text,
    stripped unless ``strip`` is false; None when it is blank."""
    if elem is None:
        return None
    text = elem.findtext(".//text")
    if text is None:
        text = elem.text or ""
    if not text.strip():
        return None
    return text.strip() if strip else text


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

"""Petri nets and marking helpers shared by the tests."""

from suffixbeam.petri import Arc, PetriNet, Transition


def chain_net(labels, name: str = "chain") -> PetriNet:
    """A strictly sequential net p0 -> labels[0] -> p1 -> ...

    Duplicate labels are allowed and become duplicate-label transitions.
    """
    places = tuple(f"p{i}" for i in range(len(labels) + 1))
    transitions = tuple(Transition(tid=f"t{i}", label=lab) for i, lab in enumerate(labels))
    arcs = []
    for i in range(len(labels)):
        arcs.append(Arc(source=f"p{i}", target=f"t{i}"))
        arcs.append(Arc(source=f"t{i}", target=f"p{i + 1}"))
    return PetriNet(
        name=name,
        places=places,
        transitions=transitions,
        arcs=tuple(arcs),
        initial_marking={"p0": 1},
        final_marking={f"p{len(labels)}": 1},
    )


def flower_net(labels, name: str = "flower") -> PetriNet:
    """A single place with one self-loop transition per label.

    Accepts every sequence over the labels (fitness 1 for anything).
    """
    transitions = tuple(Transition(tid=f"t{i}", label=lab) for i, lab in enumerate(sorted(set(labels))))
    arcs = []
    for t in transitions:
        arcs.append(Arc(source="p0", target=t.tid))
        arcs.append(Arc(source=t.tid, target="p0"))
    return PetriNet(
        name=name,
        places=("p0",),
        transitions=transitions,
        arcs=tuple(arcs),
        initial_marking={"p0": 1},
        final_marking={"p0": 1},
    )


def wide_net(n_branches: int, name: str = "wide") -> PetriNet:
    """Start, a silent AND-split into P0.., each skippable by a silent
    transition, a silent AND-join, then Close or Reject."""
    places = ["i", "s", "j", "o"]
    transitions = [Transition("start", "Start"), Transition("split", None), Transition("join", None)]
    arcs = [Arc("i", "start"), Arc("start", "s"), Arc("s", "split"), Arc("join", "j")]
    for b in range(n_branches):
        places += [f"a{b}", f"b{b}"]
        transitions += [Transition(f"do{b}", f"P{b}"), Transition(f"skip{b}", None)]
        arcs += [Arc("split", f"a{b}"), Arc(f"b{b}", "join")]
        for tid in (f"do{b}", f"skip{b}"):
            arcs += [Arc(f"a{b}", tid), Arc(tid, f"b{b}")]
    for label in ("Close", "Reject"):
        transitions.append(Transition(label.lower(), label))
        arcs += [Arc("j", label.lower()), Arc(label.lower(), "o")]
    return PetriNet(name, tuple(places), tuple(transitions), tuple(arcs), {"i": 1}, {"o": 1})


def random_net(rng) -> PetriNet:
    """Up to six places and transitions over labels A-C: silent transitions,
    duplicate labels and arc weights of 1-2."""
    n_p = int(rng.integers(2, 7))
    n_t = int(rng.integers(1, 7))
    places = tuple(f"p{i}" for i in range(n_p))
    labels = ["A", "B", "C"]
    transitions = []
    for i in range(n_t):
        label = None if rng.random() < 0.25 else labels[int(rng.integers(0, 3))]
        transitions.append(Transition(f"t{i}", label))
    arcs = []
    for i in range(n_t):
        for p in rng.choice(n_p, size=int(rng.integers(1, 3)), replace=False):
            arcs.append(Arc(f"p{p}", f"t{i}", weight=int(rng.integers(1, 3))))
        for p in rng.choice(n_p, size=int(rng.integers(1, 3)), replace=False):
            arcs.append(Arc(f"t{i}", f"p{p}", weight=int(rng.integers(1, 3))))
    initial = {f"p{p}": int(rng.integers(1, 3)) for p in rng.choice(n_p, size=int(rng.integers(1, 3)), replace=False)}
    final = {f"p{int(rng.integers(0, n_p))}": int(rng.integers(1, 3))}
    return PetriNet("rand", places, tuple(transitions), tuple(arcs), initial, final)


def trie_net(variants, name: str = "trie") -> PetriNet:
    """A state machine that accepts exactly the given variants.

    One place per distinct prefix, one transition per (prefix, next label),
    so a label sits on one transition for each prefix it follows, and one
    silent transition from each variant's place to the sink. A net
    discovered from a log has this shape: many duplicate labels and many
    silent transitions.
    """
    place_of = {(): "q0"}
    transitions, arcs = [], []
    for i, variant in enumerate(dict.fromkeys(map(tuple, variants))):
        for k in range(1, len(variant) + 1):
            if variant[:k] not in place_of:
                place_of[variant[:k]] = f"q{len(place_of)}"
                tid = f"t{len(transitions)}"
                transitions.append(Transition(tid, variant[k - 1]))
                arcs += [Arc(place_of[variant[:k - 1]], tid), Arc(tid, place_of[variant[:k]])]
        transitions.append(Transition(f"end{i}", None))
        arcs += [Arc(place_of[variant], f"end{i}"), Arc(f"end{i}", "sink")]
    places = tuple(place_of.values()) + ("sink",)
    return PetriNet(name, places, tuple(transitions), tuple(arcs), {"q0": 1}, {"sink": 1})


def rebuilt(net) -> PetriNet:
    """The same net with its own, cold reachability graph."""
    return PetriNet(
        net.name, net.places, net.transitions, net.arcs, net.initial_marking, net.final_marking
    )


def marking_to_dict(compiled, vec) -> dict:
    """A compiled net's marking vector as {place id: tokens}, empty places left out."""
    return {pid: int(vec[i]) for pid, i in compiled.place_index.items() if vec[i] > 0}

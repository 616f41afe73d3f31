import dataclasses
import logging
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import _kernels, petri
from suffixbeam.eventlog import END
from suffixbeam.petri import (
    Arc,
    PetriNet,
    ReplayResult,
    ReplayState,
    Transition,
    compliance,
    fitness,
    parse_pnml,
    token_replay,
    write_pnml,
)
from suffixbeam.synthgen import EXC_B2, SynthConfig, exceptional_process_net, generate

from nets import chain_net, flower_net, marking_to_dict, random_net, rebuilt, trie_net
from replay_reference import RefReplay, reference_replay

SYNTH_NET = exceptional_process_net()
INT32_MAX = 2**31 - 1


def assert_matches_reference(net, variant):
    got = token_replay(net, variant)
    assert (got.produced, got.consumed, got.missing, got.remaining, got.final_reached) == (
        reference_replay(net, variant)
    )
    part = token_replay(net, variant, partial=True)
    assert (part.produced, part.consumed, part.missing, part.remaining) == (
        reference_replay(net, variant, partial=True)
    )
    assert part.final_reached is None
    state = ReplayState(net.compiled)
    for lab in variant:
        state.step(lab)
    strict = state.result_partial(strict=True)
    assert (strict.produced, strict.consumed, strict.missing, strict.remaining) == (
        reference_replay(net, variant, partial=True, strict=True)
    )


# ---------------------------------------------------------------------------
# net construction


def test_a_replaced_net_replays_against_its_own_transitions():
    net = chain_net(["A", "B", "C"])
    assert compliance(net, ("A", "B", "C")) == 1.0  # compiles the net and keeps its graph
    lower = tuple(Transition(t.tid, t.label.lower()) for t in net.transitions)
    relabelled = dataclasses.replace(net, transitions=lower)
    assert compliance(relabelled, ("a", "b", "c")) == 1.0
    assert relabelled.compiled is not net.compiled and relabelled.compiled.label_tids.keys() == {"a", "b", "c"}
    assert compliance(net, ("A", "B", "C")) == 1.0


def test_a_net_is_frozen():
    net = chain_net(["A", "B"])
    compiled = net.compiled
    for name in ("name", "transitions", "initial_marking", "compiled"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net, name, getattr(net, name))
    assert net.compiled is compiled  # built once, then kept


def nets_of_each_source(tmp_path):
    """A net from each of the constructor, ``generate`` and ``parse_pnml``."""
    built = PetriNet("n", ("a", "b"), (Transition("t", "A"),), (Arc("a", "t"), Arc("t", "b")), {"a": 1}, {"b": 1})
    write_pnml(built, tmp_path / "n.pnml")
    return {"constructor": built, "generate": generate().net, "parse_pnml": parse_pnml(tmp_path / "n.pnml")}


def test_no_caller_can_write_a_marking(tmp_path):
    for source, net in nets_of_each_source(tmp_path).items():
        for marking in (net.initial_marking, net.final_marking):
            place = next(iter(marking))
            with pytest.raises(TypeError):
                marking[place] = 2
            with pytest.raises(TypeError):
                del marking[place]
            with pytest.raises(AttributeError):
                marking.update({place: 2})
            assert isinstance(marking, petri.Marking) and dict(marking) == {place: 1}, source


def test_a_net_keeps_the_marking_it_was_given_not_the_callers_dict():
    initial = {"p0": 1}
    net = dataclasses.replace(chain_net(["A"]), initial_marking=initial)
    initial["p0"] = 2
    assert net.initial_marking == {"p0": 1} and net.compiled.initial_tokens == 1


def test_a_shared_net_replays_from_its_one_marking():
    # a caller that tried to add a token to the shared net must not move a later run's score
    with pytest.raises(TypeError):
        generate().net.initial_marking["p0"] = 2
    net = generate(SynthConfig(seed=3)).net
    assert net.initial_marking == {"p0": 1} and compliance(net, EXC_B2) == 1.0


def test_a_net_pickles_with_its_markings(tmp_path):
    for source, net in nets_of_each_source(tmp_path).items():
        back = pickle.loads(pickle.dumps(net))
        assert back == net, source
        assert type(back.initial_marking) is petri.Marking and back.initial_marking == net.initial_marking
        assert back.final_marking == net.final_marking


def test_a_net_of_each_source_hashes(tmp_path):
    for source, net in nets_of_each_source(tmp_path).items():
        assert hash(net) == hash(rebuilt(net)) and rebuilt(net) == net, source
        assert {net: source}[rebuilt(net)] == source


def test_a_pnml_round_trip_gives_an_equal_net_with_an_equal_hash(tmp_path):
    for source, net in nets_of_each_source(tmp_path).items():
        write_pnml(net, tmp_path / f"{source}.pnml")
        back = parse_pnml(tmp_path / f"{source}.pnml")
        assert back == net and hash(back) == hash(net), source
        assert {net: source}[back] == source


def test_a_nets_markings_are_compared_but_not_hashed():
    net = chain_net(["A", "B"])
    moved = dataclasses.replace(net, initial_marking={"p1": 1})
    assert moved != net and hash(moved) == hash(net)  # equal hashes are allowed, equality is not
    assert len({net: 1, moved: 2}) == 2


def test_a_marking_reads_as_a_dict():
    marking = petri.Marking({"b": 2, "a": 1})
    assert marking == {"a": 1, "b": 2} and {"a": 1, "b": 2} == marking and marking != {"a": 1}
    assert list(marking.items()) == [("b", 2), ("a", 1)] and marking.get("c", 0) == 0 and len(marking) == 2
    assert repr(marking) == "Marking({'b': 2, 'a': 1})"


def test_an_arc_names_itself_in_a_bad_weight():
    # a net built in code reports the arc as parse_pnml does
    with pytest.raises(ValueError, match="^weight of arc 'a' -> 't' must be >= 1, not 0$"):
        Arc("a", "t", 0)
    with pytest.raises(ValueError, match="^weight of arc 'a' -> 't' must be an int, not 1.5$"):
        Arc("a", "t", 1.5)


def test_net_validation():
    t = (Transition("t0", "A"),)
    with pytest.raises(ValueError, match="duplicate place ids"):
        PetriNet("n", ("p", "p"), t, (), {}, {})
    with pytest.raises(ValueError, match="duplicate transition ids"):
        PetriNet("n", ("p",), (Transition("t0", "A"), Transition("t0", "B")), (), {}, {})
    with pytest.raises(ValueError, match="no transitions"):
        PetriNet("n", ("p",), (), (), {}, {})
    with pytest.raises(ValueError, match="must connect a place and a transition"):
        PetriNet("n", ("p", "q"), t, (Arc("p", "q"),), {}, {})
    with pytest.raises(ValueError, match="must connect a place and a transition"):
        PetriNet("n", ("p",), t, (Arc("t0", "t0"),), {}, {})
    with pytest.raises(ValueError, match="^weight of arc 'p' -> 't0' must be >= 1, not 0$"):
        PetriNet("n", ("p",), t, (Arc("p", "t0", weight=0),), {}, {})
    with pytest.raises(ValueError, match="initial marking references unknown place"):
        PetriNet("n", ("p",), t, (), {"nope": 1}, {})
    with pytest.raises(ValueError, match="final marking references unknown place"):
        PetriNet("n", ("p",), t, (), {}, {"nope": 1})
    with pytest.raises(ValueError, match="initial marking count of place 'p' must be >= 0, not -2"):
        PetriNet("n", ("p",), t, (), {"p": -2}, {})
    with pytest.raises(ValueError, match="final marking count of place 'p' must be >= 0, not -1"):
        PetriNet("n", ("p",), t, (), {}, {"p": -1})
    with pytest.raises(ValueError, match="initial marking has 3000000000 tokens in place 'p'"):
        PetriNet("n", ("p",), t, (), {"p": 3_000_000_000}, {})
    with pytest.raises(ValueError, match="final marking has 2147483648 tokens in place 'p'"):
        PetriNet("n", ("p",), t, (), {}, {"p": 2**31})
    with pytest.raises(ValueError, match="arc 'p' -> 't0' of weight 2147483648 can overflow"):
        PetriNet("n", ("p",), t, (Arc("p", "t0", weight=2**31),), {}, {})
    # parallel arcs add up
    with pytest.raises(ValueError, match="arc 't0' -> 'p' of weight 2147483648 can overflow"):
        PetriNet("n", ("p",), t, (Arc("t0", "p", weight=2**30),) * 2, {}, {})
    full = PetriNet("n", ("p",), t, (Arc("p", "t0"),), {"p": INT32_MAX}, {"p": INT32_MAX})
    assert ReplayState(full.compiled).marking[0] == INT32_MAX


def test_numpy_int_counts_and_weights_replay_as_the_ints_they_equal():
    # a numpy count shifted into place index 2 wrapped to a packed 0, and lost its token
    plain = chain_net(["A", "B", "C"])
    late = dataclasses.replace(plain, initial_marking={"p2": 1})
    late_np = dataclasses.replace(plain, initial_marking={"p2": np.int64(1)}, final_marking={"p3": np.int32(1)})
    assert late_np.initial_marking == {"p2": 1} and type(late_np.initial_marking["p2"]) is int
    assert type(late_np.final_marking["p3"]) is int
    assert late_np.compiled.initial_code == late.compiled.initial_code == 1 << 64
    heavy = dataclasses.replace(plain, arcs=tuple(Arc(a.source, a.target, 2) for a in plain.arcs),
                                initial_marking={"p0": 2}, final_marking={"p3": 2})
    heavy_np = dataclasses.replace(heavy, arcs=tuple(Arc(a.source, a.target, np.int64(2)) for a in plain.arcs))
    assert all(type(a.weight) is int for a in heavy_np.arcs)
    for variant in (("C",), ("A", "B", "C"), ("B", "C"), ("C", "A"), ("X",)):
        for numpy_net, int_net in ((late_np, late), (heavy_np, heavy)):
            assert token_replay(numpy_net, variant) == token_replay(int_net, variant)
            assert token_replay(numpy_net, variant, partial=True) == token_replay(int_net, variant, partial=True)


def test_a_count_or_weight_that_is_not_an_int_is_refused_when_the_net_is_built():
    # a float weight or count was taken and raised TypeError at replay, and a string weight a TypeError here
    t = (Transition("t0", "A"),)
    for weight in (1.0, 2.5, "1", True):
        with pytest.raises(ValueError, match=f"^weight of arc 'p' -> 't0' must be an int, not {re.escape(repr(weight))}$"):
            PetriNet("n", ("p",), t, (Arc("p", "t0", weight=weight),), {"p": 1}, {})
    for count in (1.0, "1", True):
        for which, marking in (("initial", ({"p": count}, {})), ("final", ({}, {"p": count}))):
            with pytest.raises(ValueError, match=f"^{which} marking count of place 'p' must be an int, not {count!r}$"):
                PetriNet("n", ("p",), t, (Arc("p", "t0"),), *marking)


def test_token_counts_cannot_wrap_int32():
    # a full place whose transition puts back two tokens wrapped to
    # -2147483648 after one step; such a net is now refused outright
    loop = (Arc("p", "t0"), Arc("t0", "p", weight=2))
    with pytest.raises(ValueError, match="arc 't0' -> 'p' of weight 2 can overflow"):
        PetriNet("n", ("p",), (Transition("t0", "A"),), loop, {"p": INT32_MAX}, {})
    # a net that only fills up step by step stops at the step that would wrap
    net = PetriNet("n", ("p",), (Transition("t0", "A"),), loop, {"p": INT32_MAX - 5}, {})
    state = ReplayState(net.compiled)
    for _ in range(5):
        state.step("A")
    assert state.marking[0] == INT32_MAX
    with pytest.raises(ValueError, match="overflows the int32 token count of place 'p'"):
        state.step("A")


def test_silent_search_cannot_wrap_int32():
    # A fills p to TOKEN_MAX; V then needs a g token that only the silent s
    # makes, and s also puts one more token on p. A wrapped child would
    # cover nothing, and the step would quietly charge a missing token.
    net = PetriNet(
        "n",
        ("r", "r2", "p", "g", "z"),
        (Transition("a", "A"), Transition("s", None), Transition("v", "V")),
        (Arc("r2", "a"), Arc("a", "p"), Arc("r", "s"), Arc("s", "p"), Arc("s", "g"),
         Arc("p", "v"), Arc("g", "v"), Arc("v", "z")),
        {"r": 1, "r2": 1, "p": INT32_MAX - 1},
        {"z": 1},
    )
    with pytest.raises(ValueError, match="overflows the int32 token count of place 'p'"):
        token_replay(net, ("A", "V"), partial=True)


def test_chain_net_shape():
    net = chain_net(("A", "B"))
    assert net.places == ("p0", "p1", "p2")
    assert [t.label for t in net.transitions] == ["A", "B"]
    assert net.initial_marking == {"p0": 1}
    assert net.final_marking == {"p2": 1}


# ---------------------------------------------------------------------------
# firing semantics


# ---------------------------------------------------------------------------
# token replay: pinned counter examples


def test_replay_fitting_trace():
    net = chain_net(("A", "B", "C"))
    res = token_replay(net, ("A", "B", "C"))
    assert res == ReplayResult(4, 4, 0, 0, True)
    assert fitness(res) == 1.0


def test_replay_skipped_activity():
    net = chain_net(("A", "B", "C"))
    res = token_replay(net, ("A", "C"))
    assert res == ReplayResult(3, 3, 1, 1, False)
    assert fitness(res) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_replay_unknown_label_is_virtual():
    net = chain_net(("A", "B"))
    res = token_replay(net, ("A", "X", "B"))
    # X consumes/misses one virtual token without touching the marking
    assert res == ReplayResult(3, 4, 1, 0, True)
    assert fitness(res) == 0.875


def test_replay_partial_vs_strict():
    net = chain_net(("A", "B", "C"))
    state = ReplayState(net.compiled)
    state.step("A")
    lenient = state.result_partial()
    strict = state.result_partial(strict=True)
    assert (lenient.missing, lenient.remaining) == (0, 0)
    assert (strict.missing, strict.remaining) == (0, 1)
    assert fitness(lenient) == 1.0
    assert fitness(strict) == 0.75
    # the in-flight token is not charged once it coincides with the final place
    state.step("B")
    state.step("C")
    assert state.result_partial(strict=True).remaining == 0


def test_replay_rejects_completion_label():
    net = chain_net(("A",))
    with pytest.raises(ValueError, match="strip the completion label"):
        token_replay(net, ("A", END))


def test_replay_state_clone_is_independent():
    net = chain_net(("A", "B"))
    state = ReplayState(net.compiled)
    state.step("A")
    fork = state.clone()
    fork.step("B")
    assert fork.consumed == 2 and state.consumed == 1
    assert state.result_partial(strict=True).remaining == 1
    assert fork.result_complete().final_reached is True


def test_clones_stepped_apart_do_not_alias():
    net = exceptional_process_net()
    state = ReplayState(net.compiled)
    state.step("Start")
    before = marking_to_dict(net.compiled, state.marking)
    left, right = state.clone(), state.clone()
    assert left.code is state.code  # clones share the immutable packed marking
    left.step("B1a")
    right.step("B2a")
    right.step("B2b")
    assert marking_to_dict(net.compiled, state.marking) == before
    assert left.code != right.code
    for fork, variant in ((left, ("Start", "B1a")), (right, ("Start", "B2a", "B2b"))):
        got = fork.result_complete()
        assert (got.produced, got.consumed, got.missing, got.remaining, got.final_reached) == (
            reference_replay(net, variant)
        )
    with pytest.raises(ValueError, match="read-only"):
        left.marking[0] = 7


def test_duplicate_labels_prefer_enabled_then_lowest_id():
    # two transitions labelled A chained behind each other
    net = PetriNet(
        "dup",
        ("q0", "q1", "q2"),
        (Transition("tA1", "A"), Transition("tA2", "A")),
        (Arc("q0", "tA1"), Arc("tA1", "q1"), Arc("q1", "tA2"), Arc("tA2", "q2")),
        {"q0": 1},
        {"q2": 1},
    )
    res = token_replay(net, ("A", "A"))
    assert res == ReplayResult(3, 3, 0, 0, True)
    # when both candidates miss equally, the earliest transition fires
    race = PetriNet(
        "race",
        ("p", "q", "r", "s"),
        (Transition("t0", "X"), Transition("t1", "X")),
        (Arc("p", "t0"), Arc("t0", "q"), Arc("r", "t1"), Arc("t1", "s")),
        {},
        {"q": 1},
    )
    state = ReplayState(race.compiled)
    state.step("X")
    marking = marking_to_dict(race.compiled, state.marking)
    assert marking == {"q": 1}
    assert (state.missing, state.consumed) == (1, 1)


def test_weighted_arcs():
    net = PetriNet(
        "w",
        ("p", "q"),
        (Transition("t", "A"),),
        (Arc("p", "t", weight=2), Arc("t", "q", weight=3)),
        {"p": 2},
        {"q": 3},
    )
    res = token_replay(net, ("A",))
    assert res == ReplayResult(5, 5, 0, 0, True)
    # starting one token short: the shortfall is missing, marking floors at 0
    short = PetriNet(
        "w2",
        ("p", "q"),
        (Transition("t", "A"),),
        (Arc("p", "t", weight=2), Arc("t", "q")),
        {"p": 1},
        {"q": 1},
    )
    res = token_replay(short, ("A",))
    assert res == ReplayResult(2, 3, 1, 0, True)


# ---------------------------------------------------------------------------
# silent transitions


def silent_chain_net(n_silents):
    """p0 -> tau_1 -> c1 -> ... -> tau_n -> cn -> V -> z"""
    places = ("p0",) + tuple(f"c{i}" for i in range(1, n_silents + 1)) + ("z",)
    transitions = tuple(Transition(f"s{i}", None) for i in range(1, n_silents + 1))
    transitions += (Transition("v", "V"),)
    arcs = []
    prev = "p0"
    for i in range(1, n_silents + 1):
        arcs += [Arc(prev, f"s{i}"), Arc(f"s{i}", f"c{i}")]
        prev = f"c{i}"
    arcs += [Arc(prev, "v"), Arc("v", "z")]
    return PetriNet("chain", places, transitions, tuple(arcs), {"p0": 1}, {"z": 1})


def test_silent_transitions_enable_target():
    net = PetriNet(
        "skip",
        ("p0", "p1", "p2", "p3"),
        (Transition("t0", "A"), Transition("t1", "B"), Transition("tau", None), Transition("t2", "C")),
        (
            Arc("p0", "t0"),
            Arc("t0", "p1"),
            Arc("p1", "t1"),
            Arc("t1", "p2"),
            Arc("p1", "tau"),
            Arc("tau", "p2"),
            Arc("p2", "t2"),
            Arc("t2", "p3"),
        ),
        {"p0": 1},
        {"p3": 1},
    )
    # skipping B forces the silent bypass; every firing counts tokens
    assert token_replay(net, ("A", "C")) == ReplayResult(4, 4, 0, 0, True)
    assert token_replay(net, ("A", "B", "C")) == ReplayResult(4, 4, 0, 0, True)
    assert_matches_reference(net, ("A", "C"))


def test_silent_search_depth_limit():
    deep = silent_chain_net(10)
    assert token_replay(deep, ("V",)).missing == 0
    too_deep = silent_chain_net(11)
    res = token_replay(too_deep, ("V",))
    assert res.missing == 1  # eleven silent hops exceed the search depth
    assert_matches_reference(deep, ("V",))
    assert_matches_reference(too_deep, ("V",))


def toggles(n, *needs):
    """n independent silent toggles a_i -> b_i; one transition labelled V
    per set in ``needs``, which needs the b tokens of that set."""
    places = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n)) + ("z",)
    transitions = tuple(Transition(f"s{i}", None) for i in range(n))
    transitions += tuple(Transition(f"v{j}", "V") for j in range(len(needs)))
    arcs = [a for i in range(n) for a in (Arc(f"a{i}", f"s{i}"), Arc(f"s{i}", f"b{i}"))]
    for j, needed in enumerate(needs):
        arcs += [Arc(f"b{i}", f"v{j}") for i in needed] + [Arc(f"v{j}", "z")]
    initial = {f"a{i}": 1 for i in range(n)}
    return PetriNet("toggles", places, transitions, tuple(arcs), initial, {"z": 1})


def test_silent_search_node_cap(caplog):
    caplog.set_level(logging.WARNING, logger="suffixbeam._kernels")
    # ten independent toggles: 2^10 reachable markings fit in the search budget
    assert token_replay(toggles(10, range(10)), ("V",), partial=True).missing == 0
    assert caplog.records == []
    # thirteen toggles overflow it before any depth-10 marking is generated,
    # even though a ten-step enabling sequence exists; the truncation is
    # logged once, as the second replay reads the step from the net's graph
    net = toggles(13, range(3, 13))
    for _ in range(2):
        assert token_replay(net, ("V",), partial=True).missing == 10
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "silent search gave up after 4096 markings" in caplog.records[0].getMessage()


def test_a_label_whose_candidates_all_reach_the_cap_logs_one_warning(caplog):
    caplog.set_level(logging.WARNING, logger="suffixbeam._kernels")
    # two transitions carry V, and neither can be enabled within the cap;
    # their one shared search gives up once
    net = toggles(13, range(3, 13), range(2, 12))
    assert token_replay(net, ("V",), partial=True).missing == 10
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "silent search gave up after 4096 markings" in caplog.records[0].getMessage()
    assert_matches_reference(rebuilt(net), ("V",))


def silent_needs(net, ref):
    """ref's marking packed, each transition's tid, and the packed
    requirements of the kernel beside the reference's dict ones: each
    transition's inputs, then the final marking."""
    compiled = net.compiled
    marking = sum(n << 32 * compiled.place_index[p] for p, n in ref.marking.items())
    tid_of_row = [t.tid for t in net.transitions]
    needs = [(compiled.pre[row], ref.inputs[tid]) for row, tid in enumerate(tid_of_row)]
    needs.append((compiled.final_code, net.final_marking))
    return marking, tid_of_row, needs


def assert_silent_paths_match_reference(net, ref):
    """From ref's marking, the kernel's silent path to the inputs of each
    transition, and to the final marking, is the one the reference finds."""
    marking, tid_of_row, needs = silent_needs(net, ref)
    for req, need in needs:
        found = _kernels.silent_path_to(net.compiled, marking, (req,))
        assert found is None or found[0] == 0
        assert (None if found is None else [tid_of_row[row] for row in found[1]]) == ref._silent_path(need)


def assert_shared_search_matches_reference(net, ref, order):
    """From ref's marking, one search over the requirements in ``order``
    finds the first that the reference's search for each alone covers, with
    the reference's path."""
    marking, tid_of_row, needs = silent_needs(net, ref)
    needs = [needs[j] for j in order]
    paths = (ref._silent_path(need) for _, need in needs)
    want = next(((i, path) for i, path in enumerate(paths) if path is not None), None)
    found = _kernels.silent_path_to(net.compiled, marking, [req for req, _ in needs])
    assert (None if found is None else (found[0], [tid_of_row[row] for row in found[1]])) == want


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from("ABCD"), max_size=6))
def test_silent_path_kernel_matches_reference_on_random_nets(seed, variant):
    net = random_net(np.random.default_rng(seed))
    # the same net with every transition silent, so that searches often
    # have several shortest paths and the order of children decides
    twin = PetriNet(net.name, net.places, tuple(Transition(t.tid, None) for t in net.transitions),
                    net.arcs, net.initial_marking, net.final_marking)
    ref, twin_ref = RefReplay(net), RefReplay(twin)
    for label in (None, *variant):
        if label is not None:
            ref.step(label)
        twin_ref.marking = dict(ref.marking)
        assert_silent_paths_match_reference(net, ref)
        assert_silent_paths_match_reference(twin, twin_ref)


@pytest.mark.parametrize("n, needed", [(10, range(10)), (13, range(3, 13))], ids=["found", "capped"])
def test_silent_path_kernel_matches_reference_on_toggle_nets(n, needed):
    # V's search and the final marking's (no silent firing marks z) are long;
    # on 13 toggles both reach the cap
    net = toggles(n, needed)
    assert_silent_paths_match_reference(net, RefReplay(net))


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from("ABCD"), max_size=6), st.randoms(use_true_random=False))
def test_one_search_over_shuffled_requirements_matches_the_reference_on_random_nets(seed, variant, shuffler):
    net = random_net(np.random.default_rng(seed))
    twin = PetriNet(net.name, net.places, tuple(Transition(t.tid, None) for t in net.transitions),
                    net.arcs, net.initial_marking, net.final_marking)
    ref, twin_ref = RefReplay(net), RefReplay(twin)
    order = list(range(len(net.transitions) + 1))
    for label in (None, *variant):
        if label is not None:
            ref.step(label)
        twin_ref.marking = dict(ref.marking)
        shuffler.shuffle(order)
        assert_shared_search_matches_reference(net, ref, order)
        assert_shared_search_matches_reference(twin, twin_ref, order)


@pytest.mark.parametrize("n, needed", [(10, range(10)), (13, range(3, 13))], ids=["found", "capped"])
def test_one_search_over_shuffled_requirements_matches_the_reference_on_toggle_nets(n, needed):
    # rows n + 1 and n are the final marking and V, whose searches are long;
    # each toggle's input is covered at the start
    net = toggles(n, needed)
    rows = list(range(n + 2))
    for order in (rows, rows[::-1], random.Random(n).sample(rows, n + 2)):
        assert_shared_search_matches_reference(net, RefReplay(net), order)


token_counts = st.one_of(st.integers(0, 3), st.integers(0, INT32_MAX))


@settings(max_examples=200)
@given(st.lists(st.tuples(token_counts, token_counts), min_size=1, max_size=40))
def test_excess_kernel_matches_numpy(pairs):
    places = tuple(f"p{i}" for i in range(len(pairs)))
    compiled = PetriNet("n", places, (Transition("t", "A"),), (), {}, {}).compiled
    a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    code_a, code_b = (sum(int(n) << 32 * i for i, n in enumerate(side)) for side in (a, b))
    assert _kernels.excess(compiled, code_a, code_b) == int(np.maximum(a - b, 0).sum())
    assert _kernels.excess(compiled, code_b, code_a) == int(np.maximum(b - a, 0).sum())


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from("ABCD"), max_size=6))
def test_residual_and_finish_match_the_numpy_formulas_on_random_nets(seed, variant):
    # random nets have arc weights of 1-2 and 1-2 tokens in 1-2 initial
    # places; the final marking here spans 2 or more places
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    spanned = rng.choice(len(net.places), size=int(rng.integers(2, len(net.places) + 1)), replace=False)
    final = {net.places[p]: int(rng.integers(1, 4)) for p in spanned}
    net = PetriNet(net.name, net.places, net.transitions, net.arcs, net.initial_marking, final)
    compiled = net.compiled
    final_counts = np.array([final.get(p, 0) for p in net.places], dtype=np.int64)
    state = ReplayState(compiled)
    for label in (None, *variant):
        if label is not None:
            state.step(label)
        sid = compiled.state(state.code)
        assert compiled.residual[sid] == int(np.maximum(state.marking - final_counts, 0).sum())
        _, path = _kernels.silent_path_to(compiled, state.code, (compiled.final_code,)) or (0, [])
        code, _, consumed, produced = _kernels._fire(compiled, state.code, path)
        after = _kernels.unpack(code, len(net.places)).astype(np.int64)
        missing = int(np.maximum(final_counts - after, 0).sum())
        remaining = int(np.maximum(after - final_counts, 0).sum())
        reached = missing == 0 and remaining == 0
        assert compiled.complete(sid) == (missing, consumed + int(final_counts.sum()), produced, remaining, reached)


# ---------------------------------------------------------------------------
# fitness / compliance


def test_fitness_zero_denominators_warn():
    with pytest.warns(UserWarning, match="fitness undefined"):
        assert fitness(ReplayResult(0, 0, 0, 0, None)) == 0.0
    with pytest.warns(UserWarning):
        assert fitness(ReplayResult(3, 0, 0, 0, None)) == 0.0


def test_compliance_trailing_end_means_complete():
    net = chain_net(("A", "B"))
    assert compliance(net, ("A", "B", END)) == 1.0
    assert compliance(net, ("A", "B")) == 1.0  # partial=False default: complete
    assert compliance(net, ("A",), partial=True) == 1.0  # lenient default
    assert compliance(net, ("A",), partial=True, partial_mode="strict") == 0.75
    # trailing END wins over partial=True: the missing final token and the
    # stranded p1 token each cost half a point
    assert compliance(net, ("A", END), partial=True) == 0.5


def test_compliance_errors():
    net = chain_net(("A", "B"))
    with pytest.raises(ValueError, match="completion label inside"):
        compliance(net, ("A", END, "B"))
    with pytest.raises(ValueError, match="unknown partial_mode"):
        compliance(net, ("A",), partial=True, partial_mode="loose")


def test_flower_net_accepts_everything():
    net = flower_net(("B", "A", "B", "C"))
    assert [t.label for t in net.transitions] == ["A", "B", "C"]
    rng = np.random.default_rng(5)
    for _ in range(20):
        seq = tuple(str(x) for x in rng.choice(["A", "B", "C"], size=rng.integers(1, 8)))
        assert compliance(net, seq) == 1.0
        assert compliance(net, seq, partial=True, partial_mode="strict") == 1.0
    assert compliance(net, ()) == 1.0  # empty but complete: initial == final


# ---------------------------------------------------------------------------
# reference-replayer equivalence

SYNTH_VARIANTS = [
    ("Start", "B1a", "Unexpected", "Repairing"),
    ("Start", "B1a", "Unexpected", "Repairing", "B1b", "B1c"),
    ("Start", "B1a", "Unexpected", "Repairing", "B1c", "B1b"),
    ("Start", "B2a", "B2b", "B2c", "Unexpected", "Repairing"),
    ("Start", "B1a", "B1b", "B1c"),
    ("Start", "B2a", "B2b", "B2c"),
    ("Start", "B1a"),
    ("Start", "B2a", "B2c"),
    ("B1b", "Start", "???"),
    (),
]


@pytest.mark.parametrize("variant", SYNTH_VARIANTS, ids=["-".join(v) or "empty" for v in SYNTH_VARIANTS])
def test_reference_agreement_on_synthetic_net(variant):
    assert_matches_reference(SYNTH_NET, variant)


def test_reference_agreement_on_random_nets():
    rng = np.random.default_rng(42)
    for _ in range(120):
        net = random_net(rng)
        length = int(rng.integers(0, 7))
        variant = tuple(str(x) for x in rng.choice(["A", "B", "C", "D"], size=length))
        assert_matches_reference(net, variant)


@settings(max_examples=60)
@given(st.lists(st.sampled_from(["Start", "B1a", "B1b", "B1c", "B2a", "B2b", "B2c", "Unexpected", "Repairing", "junk"]), max_size=8))
def test_reference_agreement_hypothesis(variant):
    assert_matches_reference(SYNTH_NET, tuple(variant))


def counters(state):
    lenient, strict = state.result_partial(), state.result_partial(strict=True)
    done = state.result_complete()
    return (
        (lenient.produced, lenient.consumed, lenient.missing, lenient.remaining),
        (strict.produced, strict.consumed, strict.missing, strict.remaining),
        (done.produced, done.consumed, done.missing, done.remaining, done.final_reached),
    )


def assert_memo_matches_fresh_and_reference(net, variants):
    """Replay every variant twice on one net, so later steps hit its graph."""
    for variant in list(variants) * 2:
        state = ReplayState(net.compiled)
        ref = RefReplay(net)
        # a replay starts on a graph within its cap; inside, it may grow past it
        graph = net.compiled
        assert len(graph.codes) <= petri.REPLAY_MEMO_CAP
        assert {code: sid for sid, code in enumerate(graph.codes)} == graph.id_of
        for i, label in enumerate(variant):
            state.step(label)
            ref.step(label)
            assert marking_to_dict(net.compiled, state.marking) == {p: n for p, n in ref.marking.items() if n}
            seen = variant[: i + 1]
            fresh = ReplayState(rebuilt(net).compiled)
            for lab in seen:
                fresh.step(lab)
            reference = (
                reference_replay(net, seen, partial=True),
                reference_replay(net, seen, partial=True, strict=True),
                reference_replay(net, seen),
            )
            assert counters(state) == counters(fresh) == reference


# random nets: silent transitions, duplicate labels, arc weights of 1-2; "D" is
# unknown to every net
@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.lists(st.sampled_from("ABCD"), max_size=6).map(tuple), min_size=1, max_size=4),
)
def test_memoized_replay_matches_fresh_and_reference(seed, variants):
    assert_memo_matches_fresh_and_reference(random_net(np.random.default_rng(seed)), variants)


def assert_compliance_matches_reference(net, variant):
    want = [fitness(ReplayResult(*counts, None)) for counts in (
        reference_replay(net, variant, partial=True),
        reference_replay(net, variant, partial=True, strict=True),
        reference_replay(net, variant)[:4],
    )]
    got = [compliance(net, variant, partial=True), compliance(net, variant, partial=True, partial_mode="strict"),
           compliance(net, variant)]
    assert got == want


# trie nets: every label sits on one transition per prefix it follows, and
# every variant's end has a silent transition to the sink; "D" is unknown
@settings(max_examples=100)
@given(
    st.lists(st.lists(st.sampled_from("ABC"), max_size=5).map(tuple), min_size=1, max_size=8),
    st.lists(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6).map(tuple), max_size=4),
)
def test_replay_on_trie_nets_matches_the_reference(accepted, others):
    net = trie_net(accepted)
    for variant in [v for v in accepted if v] + others:  # one net, so later replays read its graph
        assert_matches_reference(net, variant)
        assert_compliance_matches_reference(net, variant)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_the_fallback_returns_the_index_of_a_full_scan_on_random_nets(seed):
    rng = np.random.default_rng(seed)
    compiled = random_net(rng).compiled
    for _ in range(8):
        marking = sum(int(n) << 32 * p for p, n in enumerate(rng.integers(0, 3, len(compiled.place_index))))
        for tids in compiled.label_tids.values():
            misses = [_kernels._consume(compiled, marking, t)[1] for t in tids]
            if min(misses):  # the fallback runs only when no candidate is enabled
                assert _kernels._fewest_missing(compiled, marking, tids) == misses.index(min(misses))


def test_a_cold_step_runs_one_silent_search_for_all_its_candidates(monkeypatch):
    searches = []  # the requirements of each search
    search = _kernels.silent_path_to

    def counted(net, marking, reqs):
        searches.append(reqs)
        return search(net, marking, reqs)

    monkeypatch.setattr(_kernels, "silent_path_to", counted)
    # B sits on three transitions: none is enabled from the start, and the
    # third is after D
    net = trie_net([("A", "B"), ("C", "B"), ("D", "B")])
    for variant in [("B",), ("D", "B")]:
        searches.clear()
        state = ReplayState(rebuilt(net).compiled)
        for label in variant:
            state.step(label)
        assert len(searches) == len(variant)  # one per cold step
        assert len(searches[-1]) == 3
        assert_matches_reference(rebuilt(net), variant)


def test_replayed_markings_stay_int32_and_read_only():
    # the graph keys states by packed int and a state shows its marking as a
    # view: an int64 view would read other bytes than the int32 marking it
    # stands for, and a writeable one would suggest that writing moves the state
    rng = np.random.default_rng(7)
    for net in (SYNTH_NET, *(random_net(rng) for _ in range(40))):
        labels = sorted({t.label for t in net.transitions if t.label} | {"junk"})
        state = ReplayState(net.compiled)
        for label in [*rng.choice(labels, size=6), *labels]:
            state.step(str(label))
            assert state.marking.dtype == np.int32
            assert not state.marking.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                state.marking[0] = 1
            state.result_complete()
            assert state.marking.dtype == np.int32
            assert not state.marking.flags.writeable


def test_replay_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(petri, "REPLAY_MEMO_CAP", 5)
    net = rebuilt(SYNTH_NET)
    graph = net.compiled
    assert graph.codes == [] and graph.id_of == {} and graph.steps == []  # each net starts cold
    # the longest variant alone visits 7 states, so replays must clear the graph
    assert_memo_matches_fresh_and_reference(net, SYNTH_VARIANTS)


# ---------------------------------------------------------------------------
# PNML


def test_pnml_round_trip(tmp_path):
    net = SYNTH_NET  # has silent transitions and multi-place markings
    path = tmp_path / "net.pnml"
    write_pnml(net, path)
    back = parse_pnml(str(path))
    assert back.name == net.name
    assert back.places == net.places
    assert back.transitions == net.transitions
    assert back.arcs == net.arcs
    assert back.initial_marking == net.initial_marking
    assert back.final_marking == net.final_marking
    assert back == net and type(back.initial_marking) is petri.Marking


def test_pnml_round_trip_weighted(tmp_path):
    net = PetriNet(
        "w",
        ("p", "q"),
        (Transition("t", "A & <odd> \"label\""),),
        (Arc("p", "t", weight=2), Arc("t", "q", weight=3)),
        {"p": 2},
        {"q": 3},
    )
    path = tmp_path / "w.pnml"
    write_pnml(net, path)
    back = parse_pnml(str(path))
    assert back.arcs == net.arcs
    assert back.transitions == net.transitions
    assert back.final_marking == {"q": 3}


def test_pnml_keeps_a_label_as_written(tmp_path):
    # the log readers keep a label's spaces, so the net must too
    path = tmp_path / "spaced.pnml"
    write_pnml(chain_net((" A ",)), path)
    back = parse_pnml(str(path))
    assert [t.label for t in back.transitions] == [" A "]
    assert fitness(token_replay(back, (" A ",))) == 1.0
    blank = b"""<pnml><net id="n"><page id="pg">
      <place id="a"><initialMarking><text> 1 </text></initialMarking></place>
      <place id="b"/>
      <transition id="t1"><name><text>  </text></name></transition>
      <arc id="a1" source="a" target="t1"><inscription><text> 2 </text></inscription></arc>
      <arc id="a2" source="t1" target="b"/>
    </page></net></pnml>"""
    net = parse_pnml(blank)
    assert net.transitions[0].label is None  # blank name text: silent
    assert net.initial_marking == {"a": 1}
    assert net.arcs[0].weight == 2


def test_parse_pnml_infers_final_marking_from_sinks():
    doc = b"""<pnml><net id="n"><page id="pg">
      <place id="src"><initialMarking><text>1</text></initialMarking></place>
      <place id="snk"/>
      <transition id="t1"><name><text>A</text></name></transition>
      <arc id="a1" source="src" target="t1"/>
      <arc id="a2" source="t1" target="snk"/>
    </page></net></pnml>"""
    net = parse_pnml(doc)
    assert net.final_marking == {"snk": 1}
    assert net.initial_marking == {"src": 1}


def test_parse_pnml_invisible_toolspecific():
    doc = b"""<pnml><net id="n"><page id="pg">
      <place id="a"><initialMarking><text>1</text></initialMarking></place>
      <place id="b"/>
      <transition id="t1"><name><text>skip</text></name>
        <toolspecific tool="ProM" version="6.4" activity="$invisible$"/>
      </transition>
      <arc id="a1" source="a" target="t1"/>
      <arc id="a2" source="t1" target="b"/>
    </page></net></pnml>"""
    net = parse_pnml(doc)
    assert net.transitions[0].label is None


def test_parse_pnml_rejects_negative_token_counts():
    def doc(initial, final):
        return f"""<pnml><net id="n"><page id="pg">
          <place id="src"><initialMarking><text>{initial}</text></initialMarking></place>
          <place id="snk"/>
          <transition id="t1"><name><text>A</text></name></transition>
          <arc id="a1" source="src" target="t1"/><arc id="a2" source="t1" target="snk"/>
        </page><finalmarkings><marking>
          <place idref="snk"><text>{final}</text></place>
        </marking></finalmarkings></net></pnml>""".encode()

    assert parse_pnml(doc(1, 1)).initial_marking == {"src": 1}
    with pytest.raises(ValueError, match="initial marking count of place 'src' must be >= 0, not -2"):
        parse_pnml(doc(-2, 1))
    with pytest.raises(ValueError, match="final marking count of place 'snk' must be >= 0, not -3"):
        parse_pnml(doc(1, -3))
    with pytest.raises(ValueError, match="initial marking has 3000000000 tokens in place 'src'"):
        parse_pnml(doc(3_000_000_000, 1))


@pytest.mark.parametrize("initial, weight, final, message", [
    ("1.5", "1", "1", "initial marking count of place 'src' must be an int, not '1.5'"),
    ("1", "two", "1", "weight of arc 'src' -> 't1' must be an int, not 'two'"),
    ("1", "1", "1e3", "final marking count of place 'snk' must be an int, not '1e3'"),
    ("1", "0", "1", "weight of arc 'src' -> 't1' must be >= 1, not 0"),
])
def test_parse_pnml_names_the_element_of_a_bad_count(initial, weight, final, message):
    doc = f"""<pnml><net id="n"><page id="pg">
      <place id="src"><initialMarking><text>{initial}</text></initialMarking></place>
      <place id="snk"/>
      <transition id="t1"><name><text>A</text></name></transition>
      <arc id="a1" source="src" target="t1"><inscription><text>{weight}</text></inscription></arc>
      <arc id="a2" source="t1" target="snk"/>
    </page><finalmarkings><marking>
      <place idref="snk"><text>{final}</text></place>
    </marking></finalmarkings></net></pnml>""".encode()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_pnml(doc)


def test_parse_pnml_errors():
    with pytest.raises(ValueError, match="malformed PNML at line"):
        parse_pnml(b"<pnml><net>")
    with pytest.raises(ValueError, match="no <net> element"):
        parse_pnml(b"<pnml></pnml>")
    with pytest.raises(ValueError, match="no sink place"):
        parse_pnml(
            b"""<pnml><net id="n">
              <place id="p"/><transition id="t"/>
              <arc id="a1" source="p" target="t"/><arc id="a2" source="t" target="p"/>
            </net></pnml>"""
        )
    with pytest.raises(ValueError, match="arc references unknown node"):
        parse_pnml(
            b"""<pnml><net id="n"><place id="p"/><transition id="t"/>
              <arc id="a1" source="p" target="ghost"/></net></pnml>"""
        )


@pytest.mark.parametrize(
    "element, message",
    [
        ("<place/>", "place without id"),
        ("<transition><name><text>A</text></name></transition>", "transition without id"),
        ('<arc id="a3" source="p"/>', "arc without source/target"),
        ('<arc id="a3" target="p"/>', "arc without source/target"),
    ],
)
def test_parse_pnml_rejects_a_node_without_an_id_and_an_arc_without_an_end(element, message):
    doc = f"""<pnml><net id="n"><place id="p"/><transition id="t"/>
      <arc id="a1" source="p" target="t"/>{element}</net></pnml>""".encode()
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_pnml(doc)


def test_parse_pnml_reads_a_number_written_without_a_text_element():
    doc = b"""<pnml><net id="n">
      <place id="a"><initialMarking> 3 </initialMarking></place><place id="b"/>
      <transition id="t"><name><text>A</text></name></transition>
      <arc id="a1" source="a" target="t"><inscription>2</inscription></arc>
      <arc id="a2" source="t" target="b"/>
    </net></pnml>"""
    net = parse_pnml(doc)
    assert net.initial_marking == {"a": 3}
    assert [arc.weight for arc in net.arcs] == [2, 1]


def test_parse_pnml_unknown_encoding_is_bad_input(tmp_path):
    path = tmp_path / "net.pnml"
    write_pnml(SYNTH_NET, path)
    doc = path.read_bytes().replace(b'encoding="UTF-8"', b'encoding="UTX-8"')
    with pytest.raises(ValueError, match="PNML: unknown encoding: UTX-8"):
        parse_pnml(doc)

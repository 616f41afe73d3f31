import hashlib
import math
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from suffixbeam import beam, petri
from suffixbeam.beam import (
    BeamConfig,
    BeamResult,
    baseline_beam,
    checked_beam,
    modulated_beam,
    perfect_fitness_checker,
    sweep_beams,
)
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants
from suffixbeam.petri import Arc, PetriNet, Transition, compliance
from suffixbeam.predictor import ranked_rows, train_ngram
from suffixbeam.synthgen import EXCEPTIONAL_VARIANTS, exceptional_process_net

from beam_oracle import enumerate_best
from nets import chain_net, flower_net, random_net, rebuilt, wide_net

AB_VOCAB = Vocabulary(labels=("A", "B", END))


class TablePredictor:
    """Constant next-label distribution; the simplest beam test double."""

    def __init__(self, vocab, probs):
        self.vocab = vocab
        self._probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, prefix):
        return self._probs.copy()

    def predict_proba_batch(self, prefixes):
        return np.tile(self._probs, (len(prefixes), 1))

    def ranked_batch(self, prefixes, k):
        return ranked_rows(self.predict_proba_batch(prefixes), k)


def ab_ngram(seed=3, n=40):
    rng = np.random.default_rng(seed)
    variants = [
        tuple(str(x) for x in rng.choice(["A", "B"], size=rng.integers(1, 6))) for _ in range(n)
    ]
    log = log_from_variants(variants)
    vocab = build_vocabulary(log)
    return train_ngram(build_prefix_log(log), vocab, order=3, alpha=0.01)


# ---------------------------------------------------------------------------
# config and step arithmetic


def test_config_validation():
    with pytest.raises(ValueError, match="^b_size must be >= 1, not 0$"):
        BeamConfig(b_size=0)
    with pytest.raises(ValueError, match="^max_iter must be >= 1, not 0$"):
        BeamConfig(max_iter=0)
    with pytest.raises(ValueError, match="w must be in"):
        BeamConfig(w=1.5)
    with pytest.raises(ValueError, match="max_size"):
        BeamConfig(max_size=0)
    with pytest.raises(ValueError, match="partial_mode"):
        BeamConfig(partial_mode="fuzzy")


@pytest.mark.parametrize(
    "field, value",
    [("b_size", 2.5), ("b_size", True), ("max_iter", 2.5), ("max_iter", "3"), ("max_size", 2.0),
     ("max_size", False)],
)
def test_config_sizes_must_be_ints(field, value):
    # 2.5 would fail only inside the beam, as a slice index; a bool is no size
    with pytest.raises(ValueError, match=f"^{field} must be an int, not {value!r}$"):
        BeamConfig(**{field: value})


@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_config_w_must_be_a_real_number(value):
    with pytest.raises(ValueError, match=f"^w must be a real number, not {value!r}$"):
        BeamConfig(w=value)


def test_config_takes_numpy_numbers_and_no_max_size():
    config = BeamConfig(b_size=np.int64(2), max_iter=np.int32(4), w=np.float64(0.5), max_size=None)
    assert (config.b_size, config.max_iter, config.w, config.max_size) == (2, 4, 0.5, None)


def test_a_float32_w_runs_as_the_float_it_equals(synth, synth_ngram):
    # a float32 w ran the whole beam in float32: log_score -0.41489837 for -0.4148984152502334
    net, pred = synth.net, synth_ngram
    config = BeamConfig(b_size=np.int64(2), max_iter=np.int32(6), w=np.float32(0.85))
    assert [type(v) for v in (config.b_size, config.max_iter, config.w)] == [int, int, float]
    plain = replace(config, w=float(np.float32(0.85)))
    for prefix in (("Start",), ("Start", "B1a"), ("Start", "B2a", "B2b")):
        got = modulated_beam(prefix, net, pred, config)
        assert got == modulated_beam(prefix, net, pred, plain)
        assert type(got.score) is float and type(got.log_score) is float
        swept = sweep_beams(prefix, net, pred, plain, (np.float32(0.85), np.float64(0.5)))
        assert swept == sweep_beams(prefix, net, pred, plain, (float(np.float32(0.85)), 0.5))
        assert swept[0] == got and type(swept[0].log_score) is float


def test_empty_prefix_rejected():
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="non-empty prefix"):
        baseline_beam((), pred, BeamConfig())
    with pytest.raises(ValueError, match="non-empty prefix"):
        checked_beam((), lambda v: True, pred, BeamConfig())


@pytest.mark.parametrize("prefix", [("A", END), (END,), (END, "A")])
def test_a_prefix_that_holds_end_is_rejected_by_every_beam(prefix):
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    net = chain_net(("A", "B"))
    searches = (
        lambda: baseline_beam(prefix, pred, BeamConfig()),
        lambda: modulated_beam(prefix, net, pred, BeamConfig(w=0.85)),
        lambda: sweep_beams(prefix, net, pred, BeamConfig(), (0.0, 0.85)),
        lambda: checked_beam(prefix, lambda v: True, pred, BeamConfig()),
    )
    for search in searches:
        with pytest.raises(ValueError, match="^a running prefix cannot hold the completion label __END__$"):
            search()


# ---------------------------------------------------------------------------
# retention and termination semantics


def test_terminated_candidates_stay_in_the_pool():
    # P(A) = 0.6 keeps the open branch on top for one round, but A-then-END
    # scores 0.24 < 0.4: without retention the 0.4 completion would be lost.
    pred = TablePredictor(AB_VOCAB, [0.6, 0.0, 0.4])
    res = baseline_beam(("A",), pred, BeamConfig(b_size=2, max_iter=10))
    assert res.suffix == ()
    assert res.log_score == math.log(0.4)
    assert res.forced_termination is False
    assert res.iterations == 2


def test_budget_exhaustion_returns_best_observed_completion():
    # END never outranks the open A-chain: the loop runs dry and the best
    # completion ever generated (the bare END at 0.2) is returned by force.
    pred = TablePredictor(AB_VOCAB, [0.8, 0.0, 0.2])
    res = baseline_beam(("A",), pred, BeamConfig(b_size=2, max_iter=2))
    assert res.suffix == ()
    assert res.log_score == math.log(0.2)
    assert res.forced_termination is True
    # that is also the true argmax over all completions of length <= 2
    labels, log = enumerate_best(("A",), pred, max_iter=2, w=0.0)
    assert labels == () and log == res.log_score


@pytest.mark.parametrize("w", [0.0, 1.0])
def test_a_certain_compliant_path_scores_positive_zero(w):
    # p(END) = 1 and a fitting completion: the log score is exactly +0.0,
    # not the -0.0 a negated sum of zeros would give
    pred = TablePredictor(AB_VOCAB, [0.0, 0.0, 1.0])
    net = chain_net(("A",))
    for res in (modulated_beam(("A",), net, pred, BeamConfig(w=w)), baseline_beam(("A",), pred, BeamConfig())):
        assert (res.suffix, res.score) == ((), 1.0)
        assert math.copysign(1.0, res.log_score) == 1.0


def test_no_completion_generated_closes_deepest_leader():
    # b_size 2 over three labels, END always third: no completion is ever
    # expanded, so the top open hypothesis is closed by fiat at the budget.
    pred = TablePredictor(AB_VOCAB, [0.6, 0.39, 0.01])
    res = baseline_beam(("A",), pred, BeamConfig(b_size=2, max_iter=4))
    assert res.suffix == ("A",) * 4
    assert res.forced_termination is True
    expected = 0.0
    for _ in range(4):
        expected += math.log(0.6)
    assert res.log_score == expected  # no END probability factor is charged


# ---------------------------------------------------------------------------
# equivalence with exhaustive enumeration (unpruned beam)


GRID_PREFIXES = [("A",), ("B",), ("A", "B"), ("B", "B", "A")]


@pytest.mark.parametrize("w", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_unpruned_beam_matches_enumeration(w, max_iter):
    model = ab_ngram()
    net = chain_net(("A", "B"))
    config = BeamConfig(b_size=120, max_iter=max_iter, w=w)
    for prefix in GRID_PREFIXES:
        got = modulated_beam(prefix, net, model, config)
        labels, log = enumerate_best(prefix, model, max_iter=max_iter, w=w, net=net)
        assert got.suffix == labels, (prefix, w, max_iter)
        assert got.log_score == log, (prefix, w, max_iter)
        # pool never filled up: the ranking really was exhaustive
        assert got.frontier_peak <= 2 ** (max_iter + 2) - 1


@pytest.mark.parametrize("partial_mode", ["strict", "lenient"])
def test_partial_mode_matches_enumeration(partial_mode):
    # a predictor that loves repeating A tempts the beam off the chain path;
    # how far off-path tokens are charged depends on the partial mode
    pred = TablePredictor(AB_VOCAB, [0.55, 0.05, 0.4])
    net = chain_net(("A", "B"))
    config = BeamConfig(b_size=120, max_iter=3, w=0.8, partial_mode=partial_mode)
    got = modulated_beam(("A",), net, pred, config)
    labels, log = enumerate_best(
        ("A",), pred, max_iter=3, w=0.8, net=net, partial_mode=partial_mode
    )
    assert got.suffix == labels
    assert got.log_score == log


def test_partial_modes_really_differ():
    # the winning path A -> (B, C) holds an in-flight token after B; strict
    # mode charges it against the final marking, lenient mode waives it
    vocab = Vocabulary(labels=("A", "B", "C", END))
    pred = TablePredictor(vocab, [0.05, 0.45, 0.3, 0.2])
    net = chain_net(("A", "B", "C"))
    strict = modulated_beam(("A",), net, pred, BeamConfig(b_size=120, max_iter=3, w=0.8))
    lenient = modulated_beam(
        ("A",), net, pred, BeamConfig(b_size=120, max_iter=3, w=0.8, partial_mode="lenient")
    )
    assert strict.suffix == lenient.suffix == ("B", "C")
    assert strict.log_score < lenient.log_score
    for mode, got in (("strict", strict), ("lenient", lenient)):
        labels, log = enumerate_best(("A",), pred, max_iter=3, w=0.8, net=net, partial_mode=mode)
        assert (got.suffix, got.log_score) == (labels, log)


class HashedRowPredictor:
    """A fixed pseudo-random row per prefix, about a quarter of it exactly zero."""

    def __init__(self, vocab, salt):
        self.vocab = vocab
        self.salt = salt

    def predict_proba(self, prefix):
        rng = np.random.default_rng(zlib.crc32(f"{self.salt}|{'|'.join(prefix)}".encode()))
        row = rng.random(len(self.vocab))
        row[row < 0.25] = 0.0  # zeros hit the probability floor
        row[-1] += 0.05
        return row / row.sum()

    def predict_proba_batch(self, prefixes):
        return np.array([self.predict_proba(prefix) for prefix in prefixes])

    def ranked_batch(self, prefixes, k):
        return ranked_rows(self.predict_proba_batch(prefixes), k)


# "D" is unknown to every net, A-C to the wide nets and some random ones
@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    branches=st.integers(0, 3),
    prefix=st.lists(st.sampled_from(["A", "B", "C", "D", "Start", "P0", "P1", "Close"]), min_size=1, max_size=4),
    max_iter=st.integers(1, 3),
    w=st.sampled_from([0.3, 0.85, 1.0]),
    partial_mode=st.sampled_from(["strict", "lenient"]),
)
def test_unpruned_beam_matches_enumeration_on_random_and_wide_nets(
    seed, branches, prefix, max_iter, w, partial_mode
):
    # random nets have silent transitions, duplicate labels and arc weights of
    # 1-2; a wide net reaches every label after Start only through silent
    # split, skip or join firings
    net = wide_net(branches) if branches else random_net(np.random.default_rng(seed))
    labels = sorted({t.label for t in net.transitions if t.label is not None} | {"D"})
    pred = HashedRowPredictor(Vocabulary(labels=tuple(labels) + (END,)), seed)
    config = BeamConfig(b_size=4096, max_iter=max_iter, w=w, partial_mode=partial_mode)
    got = modulated_beam(tuple(prefix), net, pred, config)
    assert got.frontier_peak <= config.b_size  # nothing was pruned
    want = enumerate_best(prefix, pred, max_iter=max_iter, w=w, net=net, partial_mode=partial_mode)
    assert (got.suffix, got.log_score) == want


REQUEST = st.tuples(
    st.lists(st.sampled_from(["A", "B", "C", "D", "Start", "P0", "P1", "Close"]), min_size=1, max_size=4),
    st.integers(1, 4),
    st.sampled_from([0.3, 0.85, 1.0]),
    st.sampled_from(["strict", "lenient"]),
)


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), branches=st.integers(0, 3), requests=st.lists(REQUEST, min_size=2, max_size=6))
def test_graph_clears_only_between_beams_and_changes_no_result(seed, branches, requests):
    # with a cap of 3 states a beam soon grows the graph past it, and the next
    # request starts by clearing it; every result must equal the one under the
    # default cap and the one on a cold net
    net = wide_net(branches) if branches else random_net(np.random.default_rng(seed))
    labels = sorted({t.label for t in net.transitions if t.label is not None} | {"D"})
    pred = HashedRowPredictor(Vocabulary(labels=tuple(labels) + (END,)), seed)
    calls = [
        (tuple(prefix), BeamConfig(b_size=3, max_iter=max_iter, w=w, partial_mode=mode))
        for prefix, max_iter, w, mode in requests
    ]

    def serve(net_of):
        results = []
        for prefix, config in calls:
            net_now = net_of()
            got = modulated_beam(prefix, net_now, pred, config)
            results += [got, compliance(net_now, prefix + got.suffix)]
        return results

    graph, clears = net.compiled, []

    def clear():  # spy: a graph is cleared only once it has passed the cap
        assert len(graph.codes) > 3
        clears.append(len(graph.codes))
        petri.CompiledNet.clear(graph)

    default, cold = serve(lambda warm=rebuilt(net): warm), serve(lambda: rebuilt(net))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(petri, "REPLAY_MEMO_CAP", 3)
        mp.setattr(graph, "clear", clear)
        tiny = serve(lambda: net)
    event(f"graph cleared: {bool(clears)}")
    assert tiny == default == cold


def test_zero_count_fitness_warns_inside_the_beam():
    # A only produces and B only consumes, from an empty marking: the prefix
    # and every all-A extension have consumed nothing, so their compliance is
    # the zero-count fallback, while extensions through B score normally
    net = PetriNet(
        "zero", ("p",), (Transition("tA", "A"), Transition("tB", "B")),
        (Arc("tA", "p"), Arc("p", "tB")), {}, {},
    )
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])

    def run(search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = search()
        return out, {(w.category, str(w.message), w.filename) for w in caught}

    got, beam_warnings = run(lambda: modulated_beam(("A",), net, pred, BeamConfig(b_size=120, max_iter=3, w=0.85)))
    want, oracle_warnings = run(lambda: enumerate_best(("A",), pred, max_iter=3, w=0.85, net=net))
    assert (got.suffix, got.log_score) == want
    assert got.log_score > float("-inf")
    assert beam_warnings == oracle_warnings == {
        (UserWarning, "fitness undefined for zero produced/consumed counts; returning 0.0", petri.__file__)
    }


# ---------------------------------------------------------------------------
# one call across a w grid


# every grid holds 0 and 1.0; the order and the w between them vary
W_GRID = st.lists(st.sampled_from([0.3, 0.5, 0.85]), unique=True).flatmap(
    lambda ws: st.permutations([0.0, 1.0, *ws])
)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    branches=st.integers(0, 2),
    prefix=st.lists(st.sampled_from(["A", "B", "C", "D", "Start", "P0", "P1", "Close"]), min_size=1, max_size=4),
    b_size=st.integers(1, 3),
    max_iter=st.integers(1, 4),
    partial_mode=st.sampled_from(["strict", "lenient"]),
    w_grid=W_GRID,
    with_net=st.booleans(),
)
def test_sweep_beams_equals_one_modulated_beam_per_config(
    seed, branches, prefix, b_size, max_iter, partial_mode, w_grid, with_net
):
    # random nets have silent transitions, duplicate labels and arc weights of
    # 1-2, and "D" is unknown to every net; a small max_iter makes forced
    # terminations, and b_size 1 often closes an open leader by fiat
    net = wide_net(branches) if branches else random_net(np.random.default_rng(seed))
    labels = sorted({t.label for t in net.transitions if t.label is not None} | {"D"})
    pred = HashedRowPredictor(Vocabulary(labels=tuple(labels) + (END,)), seed)
    net = net if with_net else None
    config = BeamConfig(b_size=b_size, max_iter=max_iter, w=0.5, partial_mode=partial_mode)  # w is not read
    got = sweep_beams(tuple(prefix), net, pred, config, w_grid)
    want = tuple(modulated_beam(tuple(prefix), net, pred, replace(config, w=w)) for w in w_grid)
    event(f"forced terminations: {sum(r.forced_termination for r in want)}")
    assert got == want  # suffix, scores, iterations and frontier peak, bit for bit


def test_sweep_beams_ranks_each_node_once_per_call():
    net = exceptional_process_net()
    labels = sorted({t.label for t in net.transitions if t.label is not None})
    pred = SeededTablePredictor(Vocabulary(labels=tuple(labels) + (END,)))
    rank = pred.ranked_batch

    def asks(search):
        """The prefixes the search hands to ranked_batch, in order."""
        asked = []
        pred.ranked_batch = lambda prefixes, k: asked.extend(prefixes) or rank(prefixes, k)
        search()
        del pred.ranked_batch
        return asked

    config, prefix = BeamConfig(b_size=3, max_iter=8), ("Start", "B2a")
    for ws in ((0.0, 0.3, 0.85, 1.0), (1.0, 0.85, 0.3, 0.0)):
        alone = [asks(lambda: modulated_beam(prefix, net, pred, replace(config, w=w))) for w in ws]
        asked = asks(lambda: sweep_beams(prefix, net, pred, config, ws))
        assert asked[: len(alone[0])] == alone[0]  # the grid's first beam ranks as it would alone
        # across the whole grid, w = 0 included, each node is ranked once
        assert len(asked) == len(set(asked)) < sum(map(len, alone))
        assert set(asked) == set().union(*alone)
        assert asks(lambda: sweep_beams(prefix, net, pred, config, ws[2:3])) == alone[2]


def test_sweep_beams_checks_each_w_as_beam_config_does():
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    net = exceptional_process_net()
    for w, message in ((True, "^w must be a real number, not True$"),
                       ("0.5", "^w must be a real number, not '0.5'$"),
                       (1.5, r"^w must be in \[0, 1\]$"),
                       (math.nan, r"^w must be in \[0, 1\]$")):
        with pytest.raises(ValueError, match=message):
            BeamConfig(w=w)
        for with_net in (net, None):  # without a net every w runs at 0, but is still checked
            with pytest.raises(ValueError, match=message):
                sweep_beams(("A",), with_net, pred, BeamConfig(), (0.3, w))
    with pytest.raises(ValueError, match="non-empty prefix"):
        sweep_beams((), net, pred, BeamConfig(), (0.3,))
    assert sweep_beams(("A",), net, pred, BeamConfig(), ()) == ()


def test_a_negative_zero_w_is_checked_as_zero():
    # -0.0 == 0.0, but a report would print it as -0.00
    assert math.copysign(1.0, BeamConfig(w=-0.0).w) == 1.0
    assert math.copysign(1.0, BeamConfig(w=np.float64(-0.0)).w) == 1.0
    assert BeamConfig(w=0.5).w == 0.5


def one_beam_per_w(prefix, net, pred, config, ws) -> tuple:
    return tuple(modulated_beam(prefix, net, pred, replace(config, w=w)) for w in ws)


def test_a_step_ranks_only_its_open_candidates_without_a_record(monkeypatch):
    # at w = 1 the beam keeps ("B2a", "B2b"), which the w = 0.3 beam never
    # expanded, beside ("B1a", "Unexpected"), which it did: that step asks
    # ranked_batch for the new node alone and scores the other from its record
    net = exceptional_process_net()
    labels = sorted({t.label for t in net.transitions if t.label is not None})
    pred = SeededTablePredictor(Vocabulary(labels=tuple(labels) + (END,)))
    prefix, config, ws = ("Start",), BeamConfig(b_size=2, max_iter=6), (0.3, 1.0)
    expand, rank = beam._expand, pred.ranked_batch
    calls = []  # per _expand call: its w, whether it records, its open candidates, those without a record, those ranked

    def spy(pool, prefix, predictor, b_size, w=0.0, compiled=None, strict=True, records=None):
        opened = [prefix + cand[2] for cand in pool if not cand[3]]
        unrecorded = [prefix + cand[2] for cand in pool if not cand[3] and (records is None or cand[2] not in records)]
        asked = []
        pred.ranked_batch = lambda prefixes, k: asked.extend(prefixes) or rank(prefixes, k)
        out = expand(pool, prefix, predictor, b_size, w, compiled, strict, records)
        calls.append((w, records is not None, opened, unrecorded, asked))
        return out

    def steps_alone(w):
        """Each step's open candidates in one beam at w."""
        calls.clear()
        modulated_beam(prefix, net, pred, replace(config, w=w))
        return [opened for _, _, opened, _, _ in calls]

    monkeypatch.setattr(beam, "_expand", spy)
    alone = {w: steps_alone(w) for w in ws}
    calls.clear()
    got = sweep_beams(prefix, net, pred, config, ws)
    monkeypatch.undo()
    del pred.ranked_batch
    assert got == one_beam_per_w(prefix, net, pred, config, ws)
    # a step whose open candidates all have a record makes no call; the first
    # miss of any other ranks exactly the step's open candidates that lack one
    recorded, want, mixed = set(), [], []
    for w in ws:
        for opened in alone[w]:
            missing = [node for node in opened if node not in recorded]
            if missing:
                want.append((w, True, missing, missing, missing))
                recorded.update(missing)
            if 0 < len(missing) < len(opened):
                mixed.append((opened, missing))
    assert calls == want
    leaders = ("Start", "B1a", "Unexpected"), ("Start", "B2a", "B2b")
    assert (list(leaders), [leaders[1]]) in mixed


def test_exact_ties_through_recorded_steps_go_to_the_lower_ids(monkeypatch):
    # uniform rows over a net that every trace fits: at every w the children
    # of one depth tie exactly, so each pool keeps the lowest ids, the A-chains;
    # END (the highest id) never makes the cut, and the leader is closed by fiat
    pred = TablePredictor(AB_VOCAB, [1 / 3] * 3)
    net, prefix, config, ws = flower_net(("A", "B")), ("A",), BeamConfig(b_size=2, max_iter=4), (0.0, 0.3, 0.85, 1.0)
    expand = beam._expand
    plain_steps, misses = [], []  # per single-beam step, the scores of its children; per miss, its w and records

    def spy(pool, prefix, predictor, b_size, w=0.0, compiled=None, strict=True, records=None):
        out = expand(pool, prefix, predictor, b_size, w, compiled, strict, records)
        if records is None:
            plain_steps.append({cand[0] for cand in out})
        else:
            misses.append((w, records))
        return out

    monkeypatch.setattr(beam, "_expand", spy)
    got = sweep_beams(prefix, net, pred, config, ws)
    want = one_beam_per_w(prefix, net, pred, config, ws)
    monkeypatch.undo()
    assert got == want
    assert [(res.suffix, res.forced_termination) for res in got] == [(("A",) * 4, True)] * len(ws)
    # the w = 0 beam records one step at a time; every step of the w = 0.3, 0.85 and 1 beams reads only records
    assert [w for w, _ in misses] == [0.0] * (config.max_iter + 1)
    (records,) = {id(records): records for _, records in misses}.values()
    assert len(records) == 1 + 2 * config.max_iter  # the root, then two open nodes a step
    # each record's children share one log p and one log C, so each recorded step
    # ties exactly at every w, as each step of one beam per w does
    assert all(len({(log_p, lc) for log_p, lc, *_ in record}) == 1 for record in records.values())
    assert len(plain_steps) == len(ws) * (config.max_iter + 1)
    assert all(len(scores) == 1 for scores in plain_steps)  # one exact tie per step


def record_tables(monkeypatch) -> list:
    """The record table (None on the single-beam step) of each ``_expand`` call from now on."""
    expand, tables = beam._expand, []

    def spy(pool, prefix, predictor, b_size, w=0.0, compiled=None, strict=True, records=None):
        tables.append(records)
        return expand(pool, prefix, predictor, b_size, w, compiled, strict, records)

    monkeypatch.setattr(beam, "_expand", spy)
    return tables


def test_a_baseline_reading_records_of_zero_fitness_keeps_a_finite_score(monkeypatch):
    # strict scores on labels the net does not know: every child's fitness is
    # 0 (log C = -inf), which the w = 0 beam reads from the shared records and
    # must not multiply by its w of 0 (0 * -inf is NaN)
    pred = TablePredictor(Vocabulary(labels=("X", "Y", END)), [0.5, 0.3, 0.2])
    net, prefix, config, ws = chain_net(("A", "B")), ("X",), BeamConfig(b_size=2, max_iter=3), (0.5, 0.0, 1.0)
    tables = record_tables(monkeypatch)
    got = sweep_beams(prefix, net, pred, config, ws)
    monkeypatch.undo()
    (records,) = {id(records): records for records in tables}.values()
    assert records and all(lc == -math.inf for record in records.values() for _, lc, *_ in record)
    assert got[1] == baseline_beam(prefix, pred, config) and math.isfinite(got[1].log_score)
    assert got == one_beam_per_w(prefix, net, pred, config, ws)


def test_a_grid_without_a_w_above_zero_keeps_no_records_and_compiles_no_net(monkeypatch):
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    net, prefix, config = chain_net(("A", "B")), ("A",), BeamConfig(b_size=2, max_iter=3)
    tables = record_tables(monkeypatch)
    zeros = sweep_beams(prefix, net, pred, config, (0.0, 0.0, 0.0))
    netless = sweep_beams(prefix, None, pred, config, (0.0, 0.5, 1.0))
    monkeypatch.undo()
    assert tables and all(records is None for records in tables)
    assert "compiled" not in vars(net)
    assert zeros == netless == (baseline_beam(prefix, pred, config),) * 3


def test_lenient_closures_through_shared_records_match_one_beam_per_w():
    # b_size 2 over A, B and END, with END least likely: no completion is ever
    # generated, so every beam closes its leader by fiat, folding in complete
    # compliance; the lenient scores differ from the strict ones at every w > 0
    pred = TablePredictor(AB_VOCAB, [0.6, 0.39, 0.01])
    net, prefix, ws = chain_net(("A", "B", "A")), ("A",), (0.0, 0.3, 0.85, 1.0)
    lenient, strict = (BeamConfig(b_size=2, max_iter=4, partial_mode=mode) for mode in ("lenient", "strict"))
    got = sweep_beams(prefix, net, pred, lenient, ws)
    assert got == one_beam_per_w(prefix, net, pred, lenient, ws)
    assert all(res.forced_termination and res.iterations == lenient.max_iter + 1 for res in got)
    by_strict = sweep_beams(prefix, net, pred, strict, ws)
    assert [a.log_score == b.log_score for a, b in zip(got, by_strict)] == [True, False, False, False]


# ---------------------------------------------------------------------------
# the prefix replay: one walk, petri's ReplayState.step


@pytest.mark.parametrize(
    "prefix", [("Start",), ("Start", "B1a", "Unexpected"), ("Bogus", "Start", "B2a", "B2b")]
)
def test_a_beam_replays_its_prefix_through_replay_state_once(synth, synth_ngram, monkeypatch, prefix):
    stepped = []
    step = petri.ReplayState.step

    def spy(state, label):
        stepped.append(label)
        step(state, label)

    monkeypatch.setattr(petri.ReplayState, "step", spy)

    def steps_of(search):
        stepped.clear()
        search()
        return tuple(stepped)

    config = BeamConfig(b_size=3, max_iter=8)
    ws = (0.0, 0.3, 0.85)
    at_85 = replace(config, w=0.85)
    assert steps_of(lambda: modulated_beam(prefix, synth.net, synth_ngram, at_85)) == prefix
    assert steps_of(lambda: sweep_beams(prefix, synth.net, synth_ngram, config, ws)) == prefix
    assert steps_of(lambda: sweep_beams(prefix, synth.net, synth_ngram, config, ws[1:2])) == prefix
    assert steps_of(lambda: baseline_beam(prefix, synth_ngram, at_85)) == ()
    assert steps_of(lambda: modulated_beam(prefix, synth.net, synth_ngram, config)) == ()
    assert steps_of(lambda: modulated_beam(prefix, None, synth_ngram, at_85)) == ()
    assert steps_of(lambda: sweep_beams(prefix, synth.net, synth_ngram, at_85, ws[:1] * 2)) == ()


# ---------------------------------------------------------------------------
# w = 0 short-circuit


def test_w_zero_is_bitwise_baseline(synth, synth_ngram):
    from suffixbeam.eventlog import variant_of

    config = BeamConfig(b_size=3, max_iter=8, w=0.0)
    for trace in synth.test_log.traces[::25]:
        prefix = variant_of(trace)[:3]
        mod = modulated_beam(prefix, synth.net, synth_ngram, config)
        base = baseline_beam(prefix, synth_ngram, config)
        assert mod == base


def test_baseline_ignores_configured_w(synth, synth_ngram):
    from suffixbeam.eventlog import variant_of

    prefix = variant_of(synth.test_log.traces[0])[:3]
    with_w = baseline_beam(prefix, synth_ngram, BeamConfig(b_size=3, max_iter=8, w=0.9))
    without = baseline_beam(prefix, synth_ngram, BeamConfig(b_size=3, max_iter=8, w=0.0))
    assert with_w == without


# ---------------------------------------------------------------------------
# checked beam


def test_checked_beam_returns_first_compliant_completion():
    net = chain_net(("A", "B"))
    pred = TablePredictor(AB_VOCAB, [0.2, 0.7, 0.1])
    res = checked_beam(("A",), perfect_fitness_checker(net), pred, BeamConfig(b_size=10, max_iter=6))
    assert res is not None
    assert res.suffix == ("B",)
    assert res.forced_termination is False
    assert res.log_score == math.log(0.7) + math.log(0.1)


def test_checked_beam_queue_cap_can_starve_completions():
    net = chain_net(("A", "B"))
    pred = TablePredictor(AB_VOCAB, [0.2, 0.7, 0.1])
    # the top three expansions are always open hypotheses, so every
    # completion is cut before it can be checked
    res = checked_beam(
        ("A",), perfect_fitness_checker(net), pred, BeamConfig(b_size=10, max_iter=6, max_size=3)
    )
    assert res is None


def test_checked_beam_exhausts_to_none():
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    res = checked_beam(("A",), lambda v: False, pred, BeamConfig(b_size=3, max_iter=3))
    assert res is None


def test_checked_beam_skips_non_compliant_completions():
    net = chain_net(("A", "B"))
    pred = TablePredictor(AB_VOCAB, [0.2, 0.3, 0.5])
    # the bare END ranks first but replays short of the final marking; the
    # checker rejects it and the search continues to the fitting suffix
    res = checked_beam(("A",), perfect_fitness_checker(net), pred, BeamConfig(b_size=10, max_iter=6))
    assert res is not None
    assert res.suffix == ("B",)


def test_perfect_fitness_checker_refuses_a_trace_with_one_missing_token_of_a_billion():
    # A puts 10**9 tokens on p and B takes 10**9 + 1: one token is missing
    # out of 1,000,000,003 consumed, so the fitness is 0.9999999995, not 1
    net = PetriNet(
        "heavy", ("i", "p", "o"), (Transition("a", "A"), Transition("b", "B")),
        (Arc("i", "a"), Arc("a", "p", weight=10**9), Arc("p", "b", weight=10**9 + 1), Arc("b", "o")),
        {"i": 1}, {"o": 1},
    )
    replay = petri.token_replay(net, ("A", "B"))
    assert (replay.missing, replay.consumed, replay.remaining) == (1, 10**9 + 3, 0)
    assert compliance(net, ("A", "B")) == 0.9999999995
    check = perfect_fitness_checker(net)
    assert check(("A", "B")) is False and check(("A", "B", END)) is False
    fitting = replace(net, arcs=net.arcs[:2] + (Arc("p", "b", weight=10**9),) + net.arcs[3:])
    assert perfect_fitness_checker(fitting)(("A", "B")) is True


def test_result_is_immutable():
    res = BeamResult(("B",), 0.5, math.log(0.5), False, 2, 3)
    for name in BeamResult._fields:
        with pytest.raises(AttributeError):
            setattr(res, name, None)
    assert res == BeamResult(("B",), 0.5, math.log(0.5), False, 2, 3)
    assert repr(res) == (
        "BeamResult(suffix=('B',), score=0.5, log_score=-0.6931471805599453, forced_termination=False,"
        " iterations=2, frontier_peak=3)"
    )


def test_result_shape(synth, synth_ngram):
    from suffixbeam.eventlog import variant_of

    prefix = variant_of(synth.test_log.traces[0])[:3]
    res = modulated_beam(prefix, synth.net, synth_ngram, BeamConfig(b_size=3, max_iter=8, w=0.85))
    assert isinstance(res, BeamResult)
    assert END not in res.suffix
    assert res.score == pytest.approx(math.exp(res.log_score))
    assert res.iterations >= 1
    assert res.frontier_peak >= 1


# ---------------------------------------------------------------------------
# bit-level lock on every beam's output


class SeededTablePredictor:
    """A fixed pseudo-random row per prefix, some entries exactly zero.

    A prefix of an exceptional variant also leans, at random strength,
    toward that variant's next label, so some completions fit the net.
    """

    def __init__(self, vocab):
        self.vocab = vocab

    def predict_proba_batch(self, prefixes):
        rows = []
        for prefix in prefixes:
            rng = np.random.default_rng(zlib.crc32("|".join(prefix).encode()))
            row = rng.random(len(self.vocab))
            row[row < 0.15] = 0.0  # zeros hit the probability floor
            row[-1] += 0.05  # END always keeps some mass
            for variant in EXCEPTIONAL_VARIANTS:
                if variant[: len(prefix)] == prefix:
                    nxt = variant[len(prefix)] if len(prefix) < len(variant) else END
                    row[self.vocab.index_of(nxt)] += rng.random()
            rows.append(row / row.sum())
        return np.array(rows)

    def ranked_batch(self, prefixes, k):
        return ranked_rows(self.predict_proba_batch(prefixes), k)


# SHA-256 of the repr of every result below; any change to a beam's output moves it
BEAM_LOCK_DIGEST = "7d7e30774bf8923a769d4ba17c0306c8bea2cc170dbe29b094ed35d72699974f"


def test_beam_outputs_are_locked_bit_for_bit():
    net = exceptional_process_net()
    labels = sorted({t.label for t in net.transitions if t.label is not None})
    pred = SeededTablePredictor(Vocabulary(labels=tuple(labels) + (END,)))

    def pseudo_random_checker(variant):
        return zlib.crc32("|".join(variant).encode()) % 3 == 0

    rng = np.random.default_rng(20231)
    results = []
    for _ in range(300):
        if rng.random() < 0.5:
            variant = EXCEPTIONAL_VARIANTS[int(rng.integers(len(EXCEPTIONAL_VARIANTS)))]
            prefix = variant[: int(rng.integers(1, len(variant)))]
        else:
            prefix = tuple(str(lab) for lab in rng.choice(labels, size=int(rng.integers(1, 5))))
        config = BeamConfig(
            b_size=int(rng.integers(1, 6)),
            max_iter=int(rng.integers(1, 9)),
            w=float(rng.choice([0.0, 0.3, 0.85, 1.0])),
            max_size=int(rng.integers(1, 8)),
            partial_mode=str(rng.choice(["strict", "lenient"])),
        )
        results.append(
            (
                baseline_beam(prefix, pred, config),
                modulated_beam(prefix, net, pred, config),
                checked_beam(prefix, perfect_fitness_checker(net), pred, config),
                checked_beam(prefix, pseudo_random_checker, pred, config),
            )
        )
    assert hashlib.sha256(repr(results).encode()).hexdigest() == BEAM_LOCK_DIGEST

"""End-to-end acceptance suite.

One test per shipping criterion; each prints a single PASS line so the
suite doubles as a release checklist. Tolerances are deliberately frozen
here rather than imported from the modules under test.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from suffixbeam.attention import (
    AttentionConfig,
    AttentionModel,
    train_attention,
)
from suffixbeam.beam import BeamConfig, baseline_beam, modulated_beam
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants
from suffixbeam.harness import (
    MICRO,
    run_reallife_experiment,
    run_synthetic_experiment,
    split_by_prefix,
    write_comparison_csv,
)
from suffixbeam.metrics import dl_distance, dl_similarity
from suffixbeam.petri import (
    Arc,
    PetriNet,
    Transition,
    fitness,
    parse_pnml,
    token_replay,
    write_pnml,
)
from suffixbeam.predictor import train_ngram

from beam_oracle import enumerate_best
from gradient_oracle import finite_difference_check
from nets import chain_net, flower_net
from replay_reference import reference_replay
from test_metrics import brute_osa


def _random_ab_ngram(rng):
    variants = [("A", "B"), ("B", "A")]  # anchor both labels into the vocabulary
    for _ in range(int(rng.integers(10, 40))):
        size = int(rng.integers(1, 7))
        variants.append(tuple("AB"[int(b)] for b in rng.integers(0, 2, size=size)))
    log = log_from_variants(variants)
    order = int(rng.integers(1, 4))
    alpha = float(rng.choice((0.01, 0.1, 0.5, 1.0)))
    return train_ngram(build_prefix_log(log), build_vocabulary(log), order=order, alpha=alpha)


def _random_ab_prefix(rng, max_len=4):
    size = int(rng.integers(1, max_len + 1))
    return tuple("AB"[int(b)] for b in rng.integers(0, 2, size=size))


def test_beam_search_matches_exhaustive_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    net = chain_net(("A", "B"))
    w_grid = (0.0, 0.25, 0.5, 0.75, 0.9)
    cases = 0
    for seed in range(250):
        model = _random_ab_ngram(rng)
        for max_iter in (1, 2, 3, 4):
            w = w_grid[(seed + max_iter) % len(w_grid)]
            mode = ("strict", "lenient")[(seed + max_iter) % 2]
            prefix = _random_ab_prefix(rng)
            config = BeamConfig(b_size=27, max_iter=max_iter, w=w, partial_mode=mode)
            got = modulated_beam(prefix, net, model, config)
            want_suffix, want_log = enumerate_best(
                prefix, model, max_iter, w, net=net, partial_mode=mode
            )
            assert got.suffix == want_suffix
            assert abs(got.log_score - want_log) <= 1e-12
            cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 1000
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 (beam equals enumeration, {cases} cases, {elapsed:.1f}s): PASS")


def test_zero_weight_modulation_equals_baseline():
    rng = np.random.default_rng(99)
    nets = (
        chain_net(("A", "B")),
        chain_net(("B", "A")),
        flower_net(("A", "B")),
        chain_net(("A", "B", "A", "B")),
    )
    model = None
    for i in range(500):
        if i % 25 == 0:
            model = _random_ab_ngram(rng)
        config = BeamConfig(
            b_size=(1, 2, 3, 27)[i % 4],
            max_iter=1 + i % 5,
            w=0.0,
            partial_mode=("strict", "lenient")[i % 2],
        )
        prefix = _random_ab_prefix(rng)
        assert modulated_beam(prefix, nets[i % 4], model, config) == baseline_beam(
            prefix, model, config
        )
    print("ACCEPTANCE 2 (w=0 collapses to baseline, 500 fixtures): PASS")


def _hand_nets():
    choice = PetriNet(
        "choice",
        ("p0", "p1"),
        (Transition("t0", "A"), Transition("t1", "B")),
        (Arc("p0", "t0"), Arc("t0", "p1"), Arc("p0", "t1"), Arc("t1", "p1")),
        {"p0": 1},
        {"p1": 1},
    )
    parallel = PetriNet(
        "parallel",
        ("p0", "pa", "pb", "qa", "qb", "pf"),
        (
            Transition("split", None),
            Transition("ta", "A"),
            Transition("tb", "B"),
            Transition("join", None),
        ),
        (
            Arc("p0", "split"), Arc("split", "pa"), Arc("split", "pb"),
            Arc("pa", "ta"), Arc("ta", "qa"),
            Arc("pb", "tb"), Arc("tb", "qb"),
            Arc("qa", "join"), Arc("qb", "join"), Arc("join", "pf"),
        ),
        {"p0": 1},
        {"pf": 1},
    )
    skip = PetriNet(
        "skip",
        ("p0", "p1", "p2", "p3"),
        (Transition("t0", "A"), Transition("tau", None), Transition("t1", "B")),
        (
            Arc("p0", "t0"), Arc("t0", "p1"),
            Arc("p1", "tau"), Arc("tau", "p2"),
            Arc("p2", "t1"), Arc("t1", "p3"),
        ),
        {"p0": 1},
        {"p3": 1},
    )
    dup = PetriNet(
        "dup",
        ("p0", "q", "r", "f"),
        (Transition("t0", "A"), Transition("t1", "A"), Transition("t2", "B")),
        (
            Arc("p0", "t0"), Arc("t0", "q"),
            Arc("p0", "t1"), Arc("t1", "r"),
            Arc("q", "t2"), Arc("t2", "f"),
        ),
        {"p0": 1},
        {"f": 1},
    )
    weighted = PetriNet(
        "weighted",
        ("p0", "p1", "p2"),
        (Transition("t0", "A"), Transition("t1", "B")),
        (Arc("p0", "t0"), Arc("t0", "p1", 2), Arc("p1", "t1", 2), Arc("t1", "p2")),
        {"p0": 1},
        {"p2": 1},
    )
    loop = PetriNet(
        "loop",
        ("p0",),
        (Transition("t0", "A"),),
        (Arc("p0", "t0"), Arc("t0", "p0")),
        {"p0": 1},
        {"p0": 1},
    )
    from suffixbeam.synthgen import exceptional_process_net

    chain3 = chain_net(("A", "B", "C"), name="chain3")
    return [
        (chain3, ("A", "B", "C")),
        (chain3, ("A", "C")),
        (chain3, ("B", "B", "B")),
        (chain3, ()),
        (chain_net(("A", "B"), name="chain2"), ("A", "X", "B")),
        (chain_net(("A",), name="chain1"), ("A",)),
        (choice, ("A",)),
        (choice, ("A", "B")),
        (parallel, ("A", "B")),
        (parallel, ("B", "A")),
        (skip, ("A", "B")),
        (dup, ("A", "B")),
        (dup, ("A", "A", "B")),
        (weighted, ("A", "B")),
        (weighted, ("A",)),
        (loop, ("A", "A", "A")),
        (flower_net(("A", "B", "C")), ("C", "A", "B", "A")),
        (exceptional_process_net(), ("Start", "B2a", "B2b", "B2c", "Unexpected", "Repairing")),
    ]


def test_token_replay_matches_independent_reference():
    rows = _hand_nets()
    assert len({net.name for net, _ in rows}) >= 10
    for net, variant in rows:
        got = token_replay(net, variant)
        assert (
            got.produced, got.consumed, got.missing, got.remaining, got.final_reached
        ) == reference_replay(net, variant)
        part = token_replay(net, variant, partial=True)
        assert (part.produced, part.consumed, part.missing, part.remaining) == (
            reference_replay(net, variant, partial=True)
        )
        if got.consumed > 0 and got.produced > 0:
            by_hand = 0.5 * (1.0 - got.missing / got.consumed) + 0.5 * (
                1.0 - got.remaining / got.produced
            )
            assert abs(fitness(got) - by_hand) <= 1e-9
    worked = token_replay(chain_net(("A", "B", "C"), name="chain3"), ("A", "C"))
    assert abs(fitness(worked) - 2.0 / 3.0) <= 1e-9
    print(f"ACCEPTANCE 3 (token replay oracle, {len(rows)} rows): PASS")


def test_synthetic_benchmark_modulation_gain():
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # prefix lengths 6-7 exceed the longest trace
        result = run_synthetic_experiment()
    elapsed = time.monotonic() - start
    gain = result.best_micro - result.baseline_micro
    assert gain >= 0.15
    assert result.cell(MICRO, 0.95).mean_similarity < result.best_micro
    assert elapsed < 600.0
    print(
        f"ACCEPTANCE 4 (synthetic gain {gain:.3f} at w={result.best_w:.2f}, "
        f"{elapsed:.1f}s): PASS"
    )


def test_attention_gradients_match_finite_differences():
    start = time.monotonic()
    vocab = Vocabulary(("A", "B", "C", END))
    config = AttentionConfig(
        l_max=5, d_model=8, n_heads=2, n_layers=1, d_ff=16, dropout=0.0, seed=5
    )
    model = AttentionModel(vocab, config)
    prefixes = [("A",), ("B", "C"), ("A", "B", "C", "A")]
    x, mask = model._encode(prefixes)
    targets = np.array([vocab.index_of("B"), vocab.index_of(END), vocab.index_of("C")])
    worst = finite_difference_check(model, x, mask, targets)
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 (gradient check {worst:.2e}, {elapsed:.1f}s): PASS")


def test_attention_trains_on_the_synthetic_log(synth):
    plog = build_prefix_log(synth.train_log)
    vocab = build_vocabulary(synth.train_log)
    config = AttentionConfig(
        l_max=7, d_model=16, n_heads=2, n_layers=1, d_ff=32, dropout=0.0, seed=3
    )
    model, history = train_attention(
        plog, vocab, config, epochs=8, batch_size=64, learning_rate=3e-3
    )
    ceiling = 0.8 * np.log(len(vocab.labels))
    assert history[-1].train_loss < ceiling

    rng = np.random.default_rng(11)
    activities = vocab.labels[:-1]
    for _ in range(100):
        size = int(rng.integers(1, 7))
        prefix = tuple(activities[int(i)] for i in rng.integers(0, len(activities), size=size))
        probs = model.predict_proba(prefix)
        assert abs(float(np.sum(probs)) - 1.0) <= 1e-6
        x, mask = model._encode([prefix])
        clean, _ = model.forward(x, mask)
        dirty = x.copy()
        dirty[0, min(size, config.l_max - 1):, :] = 7.5  # garbage where the mask is off
        noisy, _ = model.forward(dirty, mask)
        assert np.array_equal(clean, noisy)
    print(
        f"ACCEPTANCE 6 (training CE {history[-1].train_loss:.3f} < {ceiling:.3f}, "
        "100 padding cases): PASS"
    )


def test_edit_distance_matches_brute_force():
    strings = [
        tuple(p) for k in range(5) for p in itertools.product("abc", repeat=k)
    ]
    assert len(strings) == 121
    for a in strings:
        for b in strings:
            assert dl_distance(a, b) == brute_osa(a, b)
    assert dl_similarity(("A", "B", "C"), ("A", "B", "C")) == 1.0
    assert dl_similarity(("A", "B"), ("B", "A")) == 0.5
    assert dl_similarity(("A", "B", "C", "D"), ("A", "B", "D")) == 0.75
    print(f"ACCEPTANCE 7 (edit distance vs brute force, {len(strings) ** 2} pairs): PASS")


def test_prefix_split_recount():
    variants = (
        [("A", "B", "C", "D")] * 12   # cases 1-12
        + [("A", "B", "C", "E")] * 12  # cases 13-24
        + [("A", "B", "F")] * 5        # cases 25-29
        + [("G", "H", "I")] * 10       # cases 30-39
        + [("G", "H", "J")] * 4        # cases 40-43
        + [("A", "B")] * 3             # cases 44-46: too short for k=2
        + [("X", "Y", "Z")] * 4        # cases 47-50: single-variant cluster
    )
    log = log_from_variants(variants)
    assert len(log.traces) == 50

    train, held = split_by_prefix(log, 2)
    assert train is log
    # (A,B): ABCD and ABCE tie on 12 cases each, so the lexicographically
    # larger ABCE is the runner-up; (G,H) holds out the 4 GHJ cases.
    expected_ids = [f"case_{i:04d}" for i in list(range(13, 25)) + list(range(40, 44))]
    assert [t.case_id for t in held.traces] == expected_ids
    assert [t.activities for t in held.traces] == (
        [("A", "B", "C", "E")] * 12 + [("G", "H", "J")] * 4
    )

    _, held3 = split_by_prefix(log, 3)
    assert [t.case_id for t in held3.traces] == [f"case_{i:04d}" for i in range(13, 25)]
    print("ACCEPTANCE 8 (50-trace split recount, k=2 and k=3): PASS")


def test_reallife_pipeline_emits_comparison_table(synth, tmp_path):
    alphabet = sorted({a for t in synth.train_log.traces for a in t.activities})
    write_pnml(synth.net, tmp_path / "bk_k3.pnml")
    write_pnml(flower_net(alphabet), tmp_path / "bk_k4.pnml")

    results = []
    for k, pnml in ((3, "bk_k3.pnml"), (4, "bk_k4.pnml")):
        net = parse_pnml(tmp_path / pnml)
        results.append(
            run_reallife_experiment(
                "repair",
                synth.train_log,
                net,
                w_grid=(0.0, 0.5, 0.85),
                prefix_lengths=(k,),
            )
        )
    assert results[0].cell(3, 0.0).n_cases == 174
    assert results[1].cell(4, 0.0).n_cases == 24

    out = tmp_path / "comparison.csv"
    write_comparison_csv(out, results)
    lines = out.read_text().splitlines()
    assert lines[0] == "dataset,k,baseline,modulated,diff"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["3", "micro", "4", "micro"]
    for r in rows:
        base, mod, diff = float(r[2]), float(r[3]), float(r[4])
        assert 0.0 <= base <= 1.0 and 0.0 <= mod <= 1.0
        assert diff == mod - base
    # a flower net accepts everything, so modulation cannot change the ranking
    flower_result = results[1]
    assert flower_result.best_w == 0.0
    assert float(rows[2][4]) == 0.0
    # with a single prefix length the micro row must mirror the k row
    assert rows[0][2:] == rows[1][2:]
    assert rows[2][2:] == rows[3][2:]
    print("ACCEPTANCE 9 (end-to-end per-k run, comparison table shape): PASS")

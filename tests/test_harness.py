import csv
import hashlib
import re
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from logs import made_columns, made_traces, repetitive_variants
from nets import random_net, trie_net

from suffixbeam import harness, petri
from suffixbeam.beam import (
    BeamConfig, BeamResult, _finish, _sweep_runs, baseline_beam, modulated_beam, sweep_beams,
)
from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import EventLog, build_prefix_log, log_from_variants, variant_of
from suffixbeam.harness import (
    DEFAULT_PREFIX_LENGTHS,
    DEFAULT_W_GRID,
    MICRO,
    SYNTHETIC_PREFIX_LENGTHS,
    SweepCell,
    SweepResult,
    evaluate_dataset,
    format_w,
    run_reallife_experiment,
    run_synthetic_experiment,
    split_by_prefix,
    train_predictor,
    write_comparison_csv,
    write_sweep_csv,
)
from suffixbeam.metrics import dl_similarity, micro_average
from suffixbeam.predictor import NGramModel, train_ngram
from suffixbeam.synthgen import SynthConfig, exceptional_process_net, generate


def test_default_grid_shape():
    assert DEFAULT_W_GRID[0] == 0.0
    assert DEFAULT_W_GRID[-1] == 0.95
    assert len(DEFAULT_W_GRID) == 20
    assert DEFAULT_PREFIX_LENGTHS == (3, 4, 5, 6, 7)
    assert SYNTHETIC_PREFIX_LENGTHS == (3, 4, 5)


# ---------------------------------------------------------------------------
# the second-variant holdout


def holdout_variants(log, k):
    train, held = split_by_prefix(log, k)
    assert train is log  # training data is the whole log, by design
    return [variant_of(t) for t in held.traces]


def test_split_holds_out_second_most_common_continuation():
    log = log_from_variants(
        [("A", "B", "C")] * 5 + [("A", "B", "D")] * 3 + [("A", "B", "C", "C")] * 1
    )
    held = holdout_variants(log, 2)
    # cluster (A, B): C-continuation counts 5, D 3, CC 1 -> hold the D traces
    assert held == [("A", "B", "D")] * 3


def test_split_breaks_count_ties_lexicographically():
    log = log_from_variants([("A", "B", "D")] * 3 + [("A", "B", "C")] * 3)
    held = holdout_variants(log, 2)
    # equal counts: ABC ranks first, ABD is the runner-up to hold out
    assert held == [("A", "B", "D")] * 3


def test_split_ignores_short_traces_and_single_variant_clusters():
    log = log_from_variants(
        [("A", "B")] * 4  # length <= k: no suffix to predict
        + [("X", "Y", "Z")] * 6  # only variant of its cluster
        + [("G", "H", "I")] * 2
        + [("G", "H", "J")] * 5
    )
    held = holdout_variants(log, 2)
    assert held == [("G", "H", "I")] * 2


def test_split_sorts_held_out_by_case_id():
    log = log_from_variants([("A", "B", "C"), ("A", "B", "D"), ("A", "B", "C"), ("A", "B", "D")])
    _, held = split_by_prefix(log, 2)
    ids = [t.case_id for t in held.traces]
    assert ids == sorted(ids)


def test_split_errors():
    log = log_from_variants([("A", "B", "C")] * 3)
    with pytest.raises(ValueError, match="k must be >= 1"):
        split_by_prefix(log, 0)
    with pytest.raises(ValueError, match="no length-2 prefix is shared"):
        split_by_prefix(log, 2)
    with pytest.raises(ValueError, match="no length-9 prefix"):
        split_by_prefix(log, 9)


def test_split_checks_k_as_the_sweep_does():
    log = log_from_variants([("A", "B", "C")] * 3 + [("A", "B", "D")])
    # True would hold out as k = 1, and 2.0 cannot slice
    for k in (True, 2.0):
        with pytest.raises(ValueError, match=f"^k must be an int, not {re.escape(repr(k))}$"):
            split_by_prefix(log, k)
    assert split_by_prefix(log, np.int64(2)) == split_by_prefix(log, 2)
    assert holdout_variants(log, np.int64(2)) == [("A", "B", "D")]


def per_trace_split(log, k):
    """Reference: split_by_prefix as it walked every trace to build its clusters."""
    clusters = {}
    for trace in log.traces:
        v = variant_of(trace)
        if len(v) > k:
            clusters.setdefault(v[:k], {}).setdefault(v, []).append(trace)
    held_out = []
    for pref in sorted(clusters):
        if len(clusters[pref]) > 1:
            ranked = sorted(clusters[pref].items(), key=lambda item: (-len(item[1]), item[0]))
            held_out.extend(ranked[1][1])
    if not held_out:
        raise ValueError(f"no length-{k} prefix is shared by two variants; nothing to hold out")
    held_out.sort(key=lambda t: t.case_id)
    return log, EventLog(tuple(held_out))


@st.composite
def clustered_variants(draw):
    """Variants over two labels, so that short prefixes are shared, each drawn at least once, in random order."""
    pool = draw(st.lists(st.lists(st.sampled_from("AB"), min_size=2, max_size=5).map(tuple), min_size=3, max_size=6,
                         unique=True))
    repeats = draw(st.lists(st.integers(0, len(pool) - 1), max_size=20))
    return [pool[i] for i in draw(st.permutations([*range(len(pool)), *repeats]))]


@settings(max_examples=200)
@given(clustered_variants(), st.integers(1, 3), st.data())
def test_split_by_variant_counts_equals_a_per_trace_split(variants, k, data):
    # few case ids, so that held-out traces share one and their order shows
    case_ids = data.draw(st.lists(st.sampled_from("abc"), min_size=len(variants), max_size=len(variants)))
    log = log_from_variants(variants, case_ids)
    try:
        want = per_trace_split(log, k)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            split_by_prefix(log, k)
        return
    got = split_by_prefix(log, k)
    assert got[0] is log
    assert len(got[1].traces) == len(want[1].traces)
    assert all(a is b for a, b in zip(got[1].traces, want[1].traces))  # the same traces, in the same order
    assert got[1] == want[1]


# ---------------------------------------------------------------------------
# sweeping


@pytest.fixture(scope="module")
def small_sweep(synth, synth_ngram):
    test_log = EventLog(synth.test_log.traces[:60])
    with pytest.warns(UserWarning, match="k=9 skipped"):
        result = evaluate_dataset(
            "demo",
            test_log,
            synth_ngram,
            synth.net,
            BeamConfig(b_size=3, max_iter=8),
            w_grid=(0.0, 0.85),
            prefix_lengths=(3, 4, 9),
        )
    return test_log, result


def test_evaluate_dataset_shape(small_sweep):
    test_log, result = small_sweep
    assert result.dataset == "demo"
    assert result.prefix_lengths == (3, 4)  # k=9 had no cases and was skipped
    assert result.w_grid == (0.0, 0.85)
    ks = {c.k for c in result.cells}
    assert ks == {3, 4, MICRO}
    n3 = sum(1 for t in test_log.traces if len(t) > 3)
    n4 = sum(1 for t in test_log.traces if len(t) > 4)
    for w in (0.0, 0.85):
        c3, c4, cm = result.cell(3, w), result.cell(4, w), result.cell(MICRO, w)
        assert (c3.n_cases, c4.n_cases, cm.n_cases) == (n3, n4, n3 + n4)
        assert cm.mean_similarity == micro_average(
            [(c3.mean_similarity, n3), (c4.mean_similarity, n4)]
        )
        assert cm.forced_terminations == c3.forced_terminations + c4.forced_terminations
        for c in (c3, c4, cm):
            assert 0.0 <= c.mean_similarity <= 1.0
    with pytest.raises(KeyError):
        result.cell(5, 0.0)


def test_modulation_helps_on_the_synthetic_holdout(small_sweep):
    _, result = small_sweep
    assert result.cell(MICRO, 0.85).mean_similarity > result.cell(MICRO, 0.0).mean_similarity
    assert result.best_w == 0.85
    assert result.baseline_micro == result.cell(MICRO, 0.0).mean_similarity
    assert result.best_micro == result.cell(MICRO, 0.85).mean_similarity


def reference_sweep(dataset, test_log, predictor, net, config, w_grid, prefix_lengths, beam=None):
    """evaluate_dataset written as one beam per (test trace, k, w).

    ``beam(prefix, config)``, when given, stands in for the baseline and
    modulated beams.
    """
    if beam is None:
        def beam(prefix, cfg):
            if cfg.w == 0.0:
                return baseline_beam(prefix, predictor, cfg)
            return modulated_beam(prefix, net, predictor, cfg)

    cells = []
    for w in w_grid:
        cfg = BeamConfig(b_size=config.b_size, max_iter=config.max_iter, w=w)
        k_cells = []
        for k in prefix_lengths:
            sims, forced = [], 0
            for trace in test_log.traces:
                v = variant_of(trace)
                if len(v) <= k:
                    continue
                res = beam(v[:k], cfg)
                sims.append(dl_similarity(res.suffix, v[k:]))
                forced += res.forced_termination
            k_cells.append(SweepCell(dataset, k, w, sum(sims) / len(sims), len(sims), forced))
        micro = micro_average([(c.mean_similarity, c.n_cases) for c in k_cells])
        n = sum(c.n_cases for c in k_cells)
        forced = sum(c.forced_terminations for c in k_cells)
        cells += k_cells + [SweepCell(dataset, MICRO, w, micro, n, forced)]
    return SweepResult(dataset, tuple(cells), tuple(prefix_lengths), tuple(w_grid))


def counting(fn, counter, key):
    def wrapped(*a, **kw):
        counter[key(*a)] += 1
        return fn(*a, **kw)

    return wrapped


def test_sweep_predicts_each_distinct_case_once_with_identical_results(
    synth, synth_ngram, tmp_path, monkeypatch
):
    test_log = EventLog(synth.test_log.traces[:40])
    args = ("repeats", test_log, synth_ngram)
    w_grid = (0.0, 0.5, 0.85)
    kwargs = dict(w_grid=w_grid, prefix_lengths=(3, 4, 5))
    config = BeamConfig(b_size=3, max_iter=8)
    assert len({variant_of(t) for t in test_log.traces}) < len(test_log.traces)  # repeats
    cases = {(v[:k], v[k:]) for v in map(variant_of, test_log.traces) for k in (3, 4, 5) if len(v) > k}
    assert len({pref for pref, _ in cases}) < len(cases)  # one prefix, several truths

    beams, scored, sliced = Counter(), Counter(), Counter()
    monkeypatch.setattr(harness, "_sweep_runs", counting(_sweep_runs, beams, lambda p, _, __, c, ws: (p, c, ws)))
    monkeypatch.setattr(harness, "dl_similarity", counting(dl_similarity, scored, lambda s, t: (s, t)))
    monkeypatch.setattr(harness, "suffix", counting(harness.suffix, sliced, lambda v, k: (v, k)))
    got = evaluate_dataset(*args, synth.net, config, **kwargs)
    monkeypatch.undo()
    # each distinct variant is sliced once per k, not once per test trace
    assert sliced == Counter({(v, k): 1 for v in test_log.variants for k in (3, 4, 5) if len(v) > k})
    assert beams == Counter({(pref, config, w_grid): 1 for pref, _ in cases})  # the whole grid, in grid order
    # one score per distinct (predicted, true) suffix pair over the whole sweep
    pairs = {(res.suffix, truth) for pref, truth in cases
             for res in sweep_beams(pref, exceptional_process_net(), synth_ngram, config, w_grid)}
    assert scored == Counter(dict.fromkeys(pairs, 1))
    assert len(pairs) < len(cases) * len(w_grid)  # some pairs recur across w
    want = reference_sweep(*args, exceptional_process_net(), config, **kwargs)
    assert got == want  # floats compared exactly
    for writer in (write_sweep_csv, write_comparison_csv):
        writer(tmp_path / "got.csv", got)
        writer(tmp_path / "want.csv", want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=60)
@given(
    variants=repetitive_variants(),
    net_seed=st.integers(0, 2**16),
    prefix_lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
    w_grid=st.lists(st.sampled_from((0.3, 0.85, 1.0)), unique=True).map(lambda ws: (0.0, *ws)),
)
def test_sweep_sums_each_k_over_its_cases_with_one_beam_per_prefix_and_w(
    variants, net_seed, prefix_lengths, w_grid
):
    # only the ks that have cases: the reference has no rule for skipping one
    prefix_lengths = [k for k in prefix_lengths if any(len(v) > k for v in variants)]
    assume(prefix_lengths)
    log = log_from_variants(variants)
    predictor = train_ngram(build_prefix_log(log), build_vocabulary(log), order=3, alpha=0.01)
    net = random_net(np.random.default_rng(net_seed))
    config = BeamConfig(b_size=2, max_iter=6)
    kwargs = dict(w_grid=w_grid, prefix_lengths=prefix_lengths)
    beams = Counter()
    with mock.patch.object(harness, "_sweep_runs",
                           counting(_sweep_runs, beams, lambda p, _, __, c, ws: (p, c, ws))):
        got = evaluate_dataset("d", log, predictor, net, config, **kwargs)
    prefixes = {v[:k] for v in variants for k in prefix_lengths if len(v) > k}
    assert beams == Counter({(pref, config, tuple(w_grid)): 1 for pref in prefixes})
    assert got == reference_sweep("d", log, predictor, net, config, **kwargs)  # floats compared exactly


@st.composite
def alternating_patterns(draw):
    """3-6 outcome patterns, one per w, that end in an alternation a, b, a."""
    head = draw(st.lists(st.integers(0, 2), max_size=3))
    a = draw(st.integers(0, 2))
    return [*head, a, (a + draw(st.integers(1, 2))) % 3, a]


@settings(max_examples=200)
@given(
    variants=repetitive_variants(),
    unique=st.booleans(),
    prefix_lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
    patterns=alternating_patterns(),
    data=st.data(),
)
def test_sweep_reuses_a_ws_sums_only_where_its_outcomes_repeat(variants, unique, prefix_lengths, patterns, data):
    # each w's beams give the outcomes of its pattern, so w values whose
    # patterns repeat, next to each other or not, repeat every outcome
    if unique:
        variants = list(dict.fromkeys(variants))  # a log whose cases do not repeat
    prefix_lengths = [k for k in prefix_lengths if any(len(v) > k for v in variants)]
    assume(prefix_lengths)
    prefixes = sorted({v[:k] for v in variants for k in prefix_lengths if len(v) > k})
    suffixes = st.lists(st.sampled_from("ABCD"), max_size=4).map(tuple)
    outcome = {(j, pref): data.draw(st.tuples(suffixes, st.booleans()))
               for j in sorted(set(patterns)) for pref in prefixes}
    w_grid = tuple(round(0.1 * i, 1) for i in range(len(patterns)))
    pattern_at = dict(zip(w_grid, patterns))

    def beam(prefix, config):
        suffix, forced = outcome[pattern_at[config.w], prefix]
        return BeamResult(suffix, 1.0, 0.0, forced, 1, 1)

    log, net, config = log_from_variants(variants), random_net(np.random.default_rng(0)), BeamConfig()
    kwargs = dict(w_grid=w_grid, prefix_lengths=prefix_lengths)
    def runs(pref, _, __, cfg, ws):  # each result as the run a beam loop returns: (winner, forced, iterations, peak)
        results = [beam(pref, replace(cfg, w=w)) for w in ws]
        return [((-res.log_score, (), res.suffix, True, None), res.forced_termination, res.iterations,
                 res.frontier_peak) for res in results]

    with mock.patch.object(harness, "_sweep_runs", runs):
        got = evaluate_dataset("d", log, None, net, config, **kwargs)
    want = reference_sweep("d", log, None, net, config, beam=beam, **kwargs)
    assert repr(got) == repr(want)  # every field; floats by repr


def seeded_variants(rng):
    """Repeated variants in shuffled order: three that share the prefixes A
    and A, B, a few more of 2-5 labels, each 1-5 times, and one of 7 labels
    once, so that k = 6 has exactly one case. D is unknown to the net."""
    def labels(n):
        return tuple("ABCD"[i] for i in rng.integers(0, 4, n))

    pool = [("A", "B", "C", *labels(rng.integers(0, 3))), ("A", "B", "D", *labels(rng.integers(0, 3))),
            ("A", "C", *labels(rng.integers(0, 3)))]
    pool += [labels(rng.integers(2, 6)) for _ in range(rng.integers(1, 4))]
    variants = [v for v in pool for _ in range(rng.integers(1, 6))] + [labels(7)]
    return [variants[i] for i in rng.permutation(len(variants))]


@pytest.mark.parametrize("seed", range(8))
def test_the_sweeps_books_equal_the_per_case_loop(seed):
    # repeated variants, a k with one case (itemgetter's one-row edge) and,
    # at max_iter 1, forced terminations, counted from the multiplicities
    rng = np.random.default_rng(seed)
    log = log_from_variants(seeded_variants(rng))
    assert len(log.variants) < len(log)
    predictor = train_ngram(build_prefix_log(log), build_vocabulary(log), order=3, alpha=0.01)
    net = random_net(rng)
    kwargs = dict(w_grid=(0.0, 0.3, 0.85, 1.0), prefix_lengths=(1, 3, 6))
    for max_iter in (1, 7):
        config = BeamConfig(b_size=2, max_iter=max_iter)
        got = evaluate_dataset("d", log, predictor, net, config, **kwargs)
        want = reference_sweep("d", log, predictor, net, config, **kwargs)
        assert got == want and repr(got) == repr(want)  # floats compared exactly
        assert got.cell(6, 0.0).n_cases == 1
        if max_iter == 1:  # forced terminations beyond one per cell: the multiplicities count
            assert max(c.forced_terminations for c in got.cells if c.k != MICRO) > 1


@pytest.mark.parametrize("seed", range(4))
def test_the_reallife_books_equal_the_per_case_loop_and_skip_an_empty_holdout(seed):
    rng = np.random.default_rng(seed)
    log = log_from_variants(seeded_variants(rng))
    net = random_net(rng)
    w_grid, ks = (0.0, 0.3, 0.85), (1, 2, 6)  # at k = 6 one variant is longer: no cluster has two
    with pytest.warns(UserWarning, match="^d: k=6 skipped: it has no test case$"):
        got = run_reallife_experiment("d", log, net, w_grid=w_grid, prefix_lengths=ks)
    # run_reallife_experiment's predictor and beam, and per k one per-case loop over its holdout
    predictor = train_ngram(build_prefix_log(log), build_vocabulary(log), order=3, alpha=0.01)
    config = BeamConfig(b_size=3, max_iter=7)
    k_cells, populated = {}, []
    for k in ks:
        try:
            held_out = split_by_prefix(log, k)[1]
        except ValueError:
            continue
        part = reference_sweep("d", held_out, predictor, net, config, w_grid, (k,))
        k_cells.update(((c.k, c.w), c) for c in part.cells if c.k != MICRO)
        populated.append(k)
    assert populated == [1, 2]
    cells = []
    for w in w_grid:
        row = [k_cells[k, w] for k in populated]
        cells += row + [SweepCell("d", MICRO, w, micro_average((c.mean_similarity, c.n_cases) for c in row),
                                  sum(c.n_cases for c in row), sum(c.forced_terminations for c in row))]
    want = SweepResult("d", tuple(cells), tuple(populated), w_grid)
    assert got == want and repr(got) == repr(want)  # floats compared exactly


def test_a_graph_clear_inside_a_sweep_changes_no_cell(synth, synth_ngram, monkeypatch):
    # with a cap of 3 states, the graph is cleared at the start of almost
    # every grid run, between the prefixes of one sweep
    test_log = EventLog(synth.test_log.traces[:30])
    config = BeamConfig(b_size=3, max_iter=8)
    kwargs = dict(w_grid=(0.0, 0.3, 0.85, 1.0), prefix_lengths=(3, 4, 5))
    want = reference_sweep("clears", test_log, synth_ngram, exceptional_process_net(), config, **kwargs)
    net = exceptional_process_net()
    graph, clears = net.compiled, []

    def clear():  # spy
        clears.append(len(graph.codes))
        petri.CompiledNet.clear(graph)

    monkeypatch.setattr(petri, "REPLAY_MEMO_CAP", 3)
    monkeypatch.setattr(graph, "clear", clear)
    sweeps = Counter()
    monkeypatch.setattr(harness, "_sweep_runs", counting(_sweep_runs, sweeps, lambda *a: "call"))
    got = evaluate_dataset("clears", test_log, synth_ngram, net, config, **kwargs)
    assert 1 < len(clears) < sweeps["call"]  # the first call starts on an empty graph
    assert got == want  # floats compared exactly


@pytest.mark.parametrize("n_exceptional", [200, 20])
@pytest.mark.parametrize("seed", [17, 3])
def test_a_sweep_on_the_warm_shared_net_equals_one_on_a_cold_copy(seed, n_exceptional, tmp_path):
    # every generate result holds one net, whose graph earlier sweeps have
    # filled; a replaced net replays from an empty graph of its own
    generated = generate(SynthConfig(seed=seed, n_train_exceptional=n_exceptional))
    model, _ = train_predictor(generated.train_log, "ngram", 3, 0.01, 10)
    config = harness._beam_config(generated.train_log, 3)
    kwargs = dict(w_grid=DEFAULT_W_GRID, prefix_lengths=(3, 4, 5))
    evaluate_dataset("synthetic", generated.test_log, model, generated.net, config, **kwargs)
    cold = replace(generated.net)
    assert generated.net.compiled.codes and "compiled" not in vars(cold)
    results = {}
    for name, net in (("warm", generated.net), ("cold", cold)):
        results[name] = evaluate_dataset("synthetic", generated.test_log, model, net, config, **kwargs)
        write_sweep_csv(tmp_path / f"{name}_sweep.csv", results[name])
        write_comparison_csv(tmp_path / f"{name}_comparison.csv", results[name])
    assert results["warm"].cells == results["cold"].cells  # floats compared exactly
    for table in ("sweep", "comparison"):
        assert (tmp_path / f"warm_{table}.csv").read_bytes() == (tmp_path / f"cold_{table}.csv").read_bytes()


def test_default_synthetic_experiment_csvs_are_locked(tmp_path):
    result = run_synthetic_experiment()
    write_sweep_csv(tmp_path / "sweep.csv", result)
    write_comparison_csv(tmp_path / "comparison.csv", result)
    digests = {name: hashlib.md5((tmp_path / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "comparison.csv")}
    assert digests == {
        "sweep.csv": "e2f62b8a7fbe244a86caea45526a4b9e",
        "comparison.csv": "530051ebea746a47684972a5d2a0e310",
    }


def test_the_default_synthetic_experiment_warns_nothing():
    # its default ks are the ones its test log populates, so none is skipped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_synthetic_experiment()
    assert [str(w.message) for w in caught] == []
    assert result.prefix_lengths == SYNTHETIC_PREFIX_LENGTHS


def test_the_default_synthetic_experiment_makes_no_trace():
    # set-up and sweep read the logs' variant columns and the prefix log's
    # counts: a Trace, its minute table and a prefix log's entries are made
    # only to be read
    with made_traces() as made, made_columns() as columns:
        run_synthetic_experiment()
    assert made == [] and columns == []


def test_a_synthetic_experiment_after_the_first_builds_no_net_and_at_most_two_beam_configs(monkeypatch):
    # the settings are checked without a throwaway net or per-w configs:
    # one config before generate checks b_size, one after it holds the depth;
    # and every run in a process shares the one synthetic net
    run_synthetic_experiment(SynthConfig(seed=3), w_grid=(0.0,), prefix_lengths=(3,))
    built = Counter()
    for cls in (petri.PetriNet, BeamConfig):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__, built, lambda self: type(self)))
    run_synthetic_experiment()
    assert built[petri.PetriNet] == 0
    assert built[BeamConfig] <= 2


def test_the_default_synthetic_sweep_builds_no_result_and_ranks_each_node_once_per_prefix(monkeypatch):
    # a work count: the sweep reads the grid runner's raw runs, and the 20
    # beams of a distinct prefix, w = 0 included, rank each node they expand once
    finished, grids, asked = Counter(), [], []
    rank = NGramModel.ranked_batch
    monkeypatch.setattr(NGramModel, "ranked_batch", lambda self, batch, k: asked.extend(batch) or rank(self, batch, k))
    monkeypatch.setattr("suffixbeam.beam._finish", counting(_finish, finished, lambda *a: "call"))

    def grid_runs(prefix, net, predictor, config, ws):
        asked.clear()
        runs = _sweep_runs(prefix, net, predictor, config, ws)
        grids.append((prefix, net, predictor, config, ws, tuple(asked)))
        return runs

    monkeypatch.setattr(harness, "_sweep_runs", grid_runs)
    run_synthetic_experiment()
    assert finished == Counter()  # no BeamResult
    test_variants = generate().test_log.variants
    assert sorted(prefix for prefix, *_ in grids) == sorted(
        {v[:k] for v in test_variants for k in SYNTHETIC_PREFIX_LENGTHS if len(v) > k})
    for prefix, net, predictor, config, ws, ranked in grids:
        assert ws == DEFAULT_W_GRID and len(ranked) == len(set(ranked))
        asked.clear()
        for w in ws:
            modulated_beam(prefix, net, predictor, replace(config, w=w))
        assert set(ranked) == set(asked)  # the nodes one beam per w expands
    assert (len(grids), sum(len(ranked) for *_, ranked in grids)) == (7, 38)


def test_evaluate_dataset_with_no_cases_at_all(synth, synth_ngram):
    test_log = EventLog(synth.test_log.traces[:5])
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="no prefix length has any test case"):
            evaluate_dataset(
                "empty",
                test_log,
                synth_ngram,
                synth.net,
                BeamConfig(b_size=3, max_iter=8),
                w_grid=(0.0,),
                prefix_lengths=(30,),
            )


@pytest.mark.parametrize("k", [0, -1])
def test_evaluate_dataset_rejects_a_prefix_length_below_one(synth, synth_ngram, k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluate_dataset(
            "bad", synth.test_log, synth_ngram, synth.net, BeamConfig(b_size=3, max_iter=8),
            w_grid=(0.0,), prefix_lengths=(3, k),
        )


# ---------------------------------------------------------------------------
# the sweep's settings, checked by every entry before any work

ENTRIES = ("evaluate", "synthetic", "reallife")
BAD_SETTINGS = {
    "empty w grid": (dict(w_grid=()), "no w value given", ENTRIES),
    "empty ks": (dict(prefix_lengths=()), "no prefix length given", ENTRIES),
    "repeated w": (dict(w_grid=(0.0, 0.5, 0.5)), "w value 0.5 is given more than once", ENTRIES),
    "0 and -0": (dict(w_grid=(0.0, -0.0)), "w value 0.0 is given more than once", ENTRIES),
    "repeated k": (dict(prefix_lengths=(3, 4, 3)), "prefix length 3 is given more than once", ENTRIES),
    "k=0": (dict(prefix_lengths=(3, 0)), "k must be >= 1", ENTRIES),
    # True would sweep k = 1 and write True in the k column; 3.0 cannot slice
    "k=True": (dict(prefix_lengths=(True,)), "k must be an int, not True", ENTRIES),
    "k=3.0": (dict(prefix_lengths=(3, 3.0)), "k must be an int, not 3.0", ENTRIES),
    "w=1.5": (dict(w_grid=(0.0, 1.5)), r"w must be in \[0, 1\]", ENTRIES),
    # True would sweep w = 1 and write True in the w cells, and beside 1.0 look like a repeat
    "w=True": (dict(w_grid=(0.0, True)), "w must be a real number, not True", ENTRIES),
    "w=True and 1.0": (dict(w_grid=(0.0, True, 1.0)), "w must be a real number, not True", ENTRIES),
    "w='0.5'": (dict(w_grid=(0.0, "0.5")), "w must be a real number, not '0.5'", ENTRIES),
    # evaluate_dataset takes a built BeamConfig, which cannot hold b_size 0
    "b_size=0": (dict(b_size=0), "b_size must be >= 1, not 0", ("synthetic", "reallife")),
    "b_size=2.5": (dict(b_size=2.5), "b_size must be an int, not 2.5", ("synthetic", "reallife")),
    # only the experiments compare against w = 0
    "no w=0": (dict(w_grid=(0.5, 0.85)), "w grid must hold 0", ("synthetic", "reallife")),
    # the synthetic experiment brings its own net
    "w>0 without a net": (dict(net=None), "w 0.85 needs a net", ("evaluate", "reallife")),
}


def run_entry(entry, synth, predictor, settings):
    s = dict(net=synth.net, b_size=3, w_grid=(0.0, 0.85), prefix_lengths=(3, 4)) | settings
    grid = dict(w_grid=s["w_grid"], prefix_lengths=s["prefix_lengths"])
    if entry == "evaluate":
        config = BeamConfig(b_size=s["b_size"], max_iter=8)
        return evaluate_dataset("bad", synth.test_log, predictor, s["net"], config, **grid)
    if entry == "synthetic":
        return run_synthetic_experiment(b_size=s["b_size"], **grid)
    return run_reallife_experiment("bad", synth.train_log, s["net"], b_size=s["b_size"], **grid)


@pytest.mark.parametrize(
    "entry,setting",
    [(entry, name) for name, (_, _, entries) in BAD_SETTINGS.items() for entry in entries],
)
def test_every_entry_rejects_a_bad_setting_before_any_work(synth, synth_ngram, monkeypatch, entry, setting):
    settings, fragment, _ = BAD_SETTINGS[setting]
    work = []
    monkeypatch.setattr(harness, "generate", lambda *a, **kw: work.append("generate"))
    monkeypatch.setattr(harness, "train_predictor", lambda *a, **kw: work.append("train"))
    monkeypatch.setattr(harness, "_cases_by_k", lambda *a, **kw: work.append("split"))
    with pytest.raises(ValueError, match=fragment):
        run_entry(entry, synth, synth_ngram, settings)
    assert work == []


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_takes_numpy_prefix_lengths_as_the_ints_they_equal(synth, synth_ngram, tmp_path, entry):
    settings = dict(w_grid=(0.0, 0.85), prefix_lengths=(np.int64(3), np.int32(4)))
    got = run_entry(entry, synth, synth_ngram, settings)
    want = run_entry(entry, synth, synth_ngram, dict(settings, prefix_lengths=(3, 4)))
    assert got == want
    write_sweep_csv(tmp_path / "got.csv", got)
    write_sweep_csv(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_sweeps_a_fraction_grid_as_the_floats_it_equals(synth, synth_ngram, tmp_path, entry):
    # a fraction passed the w rule, then format_w could not write it and best_w came back a fraction
    got = run_entry(entry, synth, synth_ngram, dict(w_grid=(Fraction(0), Fraction(17, 20))))
    want = run_entry(entry, synth, synth_ngram, dict(w_grid=(0.0, 0.85)))
    assert got == want
    assert [type(w) for w in got.w_grid] == [float, float] and type(got.best_w) is float
    for writer in (write_sweep_csv, write_comparison_csv):
        writer(tmp_path / "got.csv", got)
        writer(tmp_path / "want.csv", want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_evaluate_dataset_without_a_net_runs_the_baseline(synth, synth_ngram):
    test_log = EventLog(synth.test_log.traces[:40])
    args = ("base", test_log, synth_ngram)
    kwargs = dict(w_grid=(0.0,), prefix_lengths=(3, 4))
    config = BeamConfig(b_size=3, max_iter=8)
    assert evaluate_dataset(*args, None, config, **kwargs) == evaluate_dataset(*args, synth.net, config, **kwargs)


def test_best_w_prefers_smallest_on_ties():
    cells = tuple(
        SweepCell("d", k, w, sim, 4, 0)
        for (k, w, sim) in [
            (3, 0.0, 0.5),
            (MICRO, 0.0, 0.5),
            (3, 0.3, 0.9),
            (MICRO, 0.3, 0.9),
            (3, 0.6, 0.9),
            (MICRO, 0.6, 0.9),
        ]
    )
    result = SweepResult(dataset="d", cells=cells, prefix_lengths=(3,), w_grid=(0.0, 0.3, 0.6))
    assert result.best_w == 0.3


# ---------------------------------------------------------------------------
# real-life experiment wiring


def test_reallife_experiment_recombines_micro(synth):
    with pytest.warns(UserWarning, match="k=20 skipped"):
        result = run_reallife_experiment(
            "repair",
            synth.train_log,
            synth.net,
            w_grid=(0.0, 0.85),
            prefix_lengths=(3, 4, 20),
        )
    assert result.prefix_lengths == (3, 4)
    # k=3 holds the branch-1 CB tail (24) plus the whole B2 exceptional
    # cluster (150); at k=4 only the CB tail cluster survives
    assert result.cell(3, 0.0).n_cases == 174
    assert result.cell(4, 0.0).n_cases == 24
    for w in (0.0, 0.85):
        groups = [
            (result.cell(k, w).mean_similarity, result.cell(k, w).n_cases) for k in (3, 4)
        ]
        assert result.cell(MICRO, w).mean_similarity == micro_average(groups)


def test_reallife_experiment_requires_some_holdout(synth):
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="no prefix length has any test case"):
            run_reallife_experiment(
                "repair", synth.train_log, synth.net, w_grid=(0.0,), prefix_lengths=(20,)
            )


def test_reallife_experiment_checks_the_holdouts_before_training(synth, monkeypatch):
    trained = []
    monkeypatch.setattr(harness, "train_ngram", lambda *a, **kw: trained.append(a))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="no prefix length has any test case"):
            run_reallife_experiment(
                "repair", synth.train_log, synth.net, w_grid=(0.0,), prefix_lengths=(20, 30)
            )
    assert trained == []


@pytest.mark.parametrize("k", [0, -1])
def test_reallife_experiment_rejects_a_prefix_length_below_one(synth, monkeypatch, k):
    trained = []
    monkeypatch.setattr(harness, "train_ngram", lambda *a, **kw: trained.append(a))
    with pytest.raises(ValueError, match="k must be >= 1"):
        run_reallife_experiment("repair", synth.train_log, synth.net, w_grid=(0.0,), prefix_lengths=(3, k))
    assert trained == []


def per_k_reallife(dataset, log, net, w_grid, prefix_lengths):
    """The real-life sweep composed as one evaluate_dataset per k's holdout,
    then micro averages over the k cells: {(k, w): cell}."""
    predictor = train_ngram(build_prefix_log(log), build_vocabulary(log), order=3, alpha=0.01)
    config = BeamConfig(b_size=3, max_iter=max(len(t) for t in log.traces), partial_mode="strict")
    cells, populated = {}, []
    for k in prefix_lengths:
        try:
            _, held_out = split_by_prefix(log, k)
        except ValueError:
            continue
        part = evaluate_dataset(dataset, held_out, predictor, net, config, w_grid=w_grid, prefix_lengths=(k,))
        cells.update(((k, w), part.cell(k, w)) for w in w_grid)
        populated.append(k)
    if not populated:
        return cells, ()
    for w in w_grid:
        k_cells = [cells[k, w] for k in populated]
        cells[MICRO, w] = SweepCell(
            dataset, MICRO, w, micro_average((c.mean_similarity, c.n_cases) for c in k_cells),
            sum(c.n_cases for c in k_cells), sum(c.forced_terminations for c in k_cells),
        )
    return cells, tuple(populated)


@st.composite
def branching_variants(draw):
    """Variants that leave one trunk at random points, so prefixes are shared."""
    labels = st.sampled_from("ABCD")  # D is unknown to the net
    trunk = draw(st.lists(labels, min_size=5, max_size=5))
    return [
        (*trunk[: draw(st.integers(1, 5))], *draw(st.lists(labels, min_size=1, max_size=3)))
        for _ in range(draw(st.integers(2, 14)))
    ]


@settings(max_examples=100)
@given(
    variants=branching_variants(),
    net_seed=st.integers(0, 2**16),
    prefix_lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
    w_grid=st.lists(st.sampled_from((0.3, 0.85, 1.0)), unique=True).map(lambda ws: (0.0, *ws)),
)
def test_reallife_sweep_equals_the_per_k_composition(variants, net_seed, prefix_lengths, w_grid):
    log = log_from_variants(variants)
    net = random_net(np.random.default_rng(net_seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        want, populated = per_k_reallife("d", log, net, w_grid, prefix_lengths)
        if not populated:
            with pytest.raises(ValueError, match="no prefix length has any test case"):
                run_reallife_experiment("d", log, net, w_grid=w_grid, prefix_lengths=prefix_lengths)
            return
        got = run_reallife_experiment("d", log, net, w_grid=w_grid, prefix_lengths=prefix_lengths)
    assert got.prefix_lengths == populated
    assert {(c.k, c.w): c for c in got.cells} == want  # floats compared exactly
    # for each w, the k rows in the given order and then the micro row
    assert [(c.k, c.w) for c in got.cells] == [(k, w) for w in w_grid for k in populated + (MICRO,)]


def playout_variants(seed, n_traces):
    """Start, a noisily ordered pick of P0..P4, then Close or Reject: many variants over seven labels."""
    rng = np.random.default_rng(seed)
    variants = []
    for _ in range(n_traces):
        body = sorted((j for j in range(5) if rng.random() < 0.8), key=lambda j: j + rng.normal(0, 1.5))
        variants.append(("Start", *(f"P{j}" for j in body), "Close" if rng.random() < 0.7 else "Reject"))
    return variants


# SHA-256 of the repr of the cells below; any change to a replay step or a
# beam on this net moves it
TRIE_LOCK_DIGEST = "cb876e8e1602c9161ab265005b1faa2b5c57223f042bd2f29a415f399f0a7f42"


def test_a_reallife_sweep_over_a_trie_net_is_locked():
    # the net accepts each of the log's variants: labels sit on many
    # transitions, and every variant's end has its own silent transition
    log = log_from_variants(playout_variants(1, 400))
    net = trie_net(log.variants)
    assert (len(log.variants), len(net.places), len(net.transitions)) == (192, 373, 563)
    result = run_reallife_experiment("trie", log, net, w_grid=(0.0, 0.3, 0.6, 0.9), prefix_lengths=(3, 4, 5))
    assert hashlib.sha256(repr(result.cells).encode()).hexdigest() == TRIE_LOCK_DIGEST


# ---------------------------------------------------------------------------
# CSV reports


def test_sweep_csv_round_trips_floats(small_sweep, tmp_path):
    _, result = small_sweep
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "k", "w", "mean_similarity", "n_cases", "forced_terminations"]
    body = rows[1:]
    assert len(body) == len(result.cells)
    for row, cell in zip(body, result.cells):
        assert row[0] == "demo"
        assert row[1] == str(cell.k)
        assert row[2] == f"{cell.w:.2f}"
        assert float(row[3]) == cell.mean_similarity  # repr() loses nothing
        assert int(row[4]) == cell.n_cases
        assert int(row[5]) == cell.forced_terminations
    assert {row[1] for row in body} == {"3", "4", "micro"}


def test_sweep_csv_writes_w_in_full_where_two_decimals_would_round_it(tmp_path):
    ws = (0.0, 0.1, 0.12, 0.121, 0.125, 0.95, 1.0)
    cells = tuple(SweepCell("d", MICRO, w, 0.5, 1, 0) for w in ws)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, SweepResult("d", cells, (), ws))
    with open(path, newline="") as fh:
        written = [row[2] for row in csv.reader(fh)][1:]
    assert written == ["0.00", "0.10", "0.12", "0.121", "0.125", "0.95", "1.00"]
    assert [float(w) for w in written] == list(ws)


def test_comparison_csv_layout(small_sweep, tmp_path):
    _, result = small_sweep
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, result)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "k", "baseline", "modulated", "diff"]
    assert [row[1] for row in rows[1:]] == ["3", "4", "micro"]
    for row in rows[1:]:
        k = int(row[1]) if row[1] != "micro" else MICRO
        base = result.cell(k, 0.0).mean_similarity
        mod = result.cell(k, result.best_w).mean_similarity
        assert float(row[2]) == base
        assert float(row[3]) == mod
        assert float(row[4]) == mod - base


def test_a_grid_without_w0_has_no_baseline_and_writes_no_comparison(synth, synth_ngram, small_sweep, tmp_path):
    _, with_w0 = small_sweep
    config = BeamConfig(b_size=3, max_iter=8)
    result = evaluate_dataset("no-w0", synth.test_log, synth_ngram, synth.net, config, w_grid=(0.5,),
                              prefix_lengths=(3,))
    message = "^w grid must hold 0, the baseline the comparison table is measured against$"
    with pytest.raises(ValueError, match=message):
        result.baseline_micro
    assert result.best_micro == result.cell(MICRO, 0.5).mean_similarity
    path = tmp_path / "comparison.csv"
    for results in (result, [with_w0, result], iter([with_w0, result])):  # checked before the file is opened
        with pytest.raises(ValueError, match=message):
            write_comparison_csv(path, results)
        assert not path.exists()
    write_comparison_csv(path, iter([with_w0]))  # a one-pass iterable is read once
    assert len(path.read_text().splitlines()) == 1 + len(with_w0.prefix_lengths) + 1


def test_csv_writers_accept_lists(small_sweep, tmp_path):
    _, result = small_sweep
    path = tmp_path / "multi.csv"
    write_sweep_csv(path, [result, result])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * len(result.cells)


def csv_writer_sweep(path, results) -> None:
    """The sweep table as the csv.writer row loop writes it: the byte oracle of write_sweep_csv."""
    if isinstance(results, SweepResult):
        results = [results]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "k", "w", "mean_similarity", "n_cases", "forced_terminations"])
        for result in results:
            for c in result.cells:
                writer.writerow(
                    [c.dataset, c.k, format_w(c.w), repr(c.mean_similarity), c.n_cases, c.forced_terminations]
                )


AWKWARD_DATASETS = ("a,b", 'say "hi"', "cr\rlf\n", "\r\n", " leading space", "naïve – ü 名前", "", "plain")


def hand_built(dataset, ws, seed) -> SweepResult:
    """A result shaped as a sweep's: for each w the cells of ks 3 and 4, then the micro cell."""
    rng = np.random.default_rng(seed)
    cells = tuple(SweepCell(dataset, k, w, float(rng.random()), int(rng.integers(1, 500)), int(rng.integers(0, 5)))
                  for w in ws for k in (3, 4, MICRO))
    return SweepResult(dataset, cells, (3, 4), tuple(ws))


def assert_same_bytes_as_the_csv_writer(tmp_path, results):
    write_sweep_csv(tmp_path / "got.csv", results)
    csv_writer_sweep(tmp_path / "want.csv", results)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("dataset", AWKWARD_DATASETS)
def test_sweep_csv_writes_the_bytes_of_the_csv_writer(dataset, tmp_path):
    # 0.125 and 1/3 are off the two-decimal grid, so format_w writes them in full
    assert_same_bytes_as_the_csv_writer(tmp_path, hand_built(dataset, (0.0, 0.05, 0.125, 1 / 3, 0.95, 1.0), 0))


def test_sweep_csv_writes_the_bytes_of_the_csv_writer_for_mixed_results(small_sweep, tmp_path):
    _, swept = small_sweep
    results = [hand_built(name, (0.0, 0.5, 0.121), seed) for seed, name in enumerate(AWKWARD_DATASETS)]
    results.append(swept)
    # cells that share fewer objects: a dataset that changes from cell to cell, -0.0 beside 0.0, 0.5 twice
    mixed = hand_built("x", (0.0, -0.0, 0.5, float("0.5")), 9)
    mixed = replace(mixed, cells=tuple(c._replace(dataset=f"name{',y' * (i % 2)}") for i, c in enumerate(mixed.cells)))
    results.append(mixed)
    assert_same_bytes_as_the_csv_writer(tmp_path, swept)
    assert_same_bytes_as_the_csv_writer(tmp_path, [])
    assert_same_bytes_as_the_csv_writer(tmp_path, results)
    write_sweep_csv(tmp_path / "once.csv", iter(results))  # a one-pass iterable is read once
    assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_train_predictor_rejects_an_unknown_kind():
    log = log_from_variants([("A", "B")])
    with pytest.raises(ValueError, match="^unknown predictor kind 'lstm'$"):
        harness.train_predictor(log, "lstm", 3, 0.01, 1)

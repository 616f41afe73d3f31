import csv

import pytest

from suffixbeam.beam import BeamConfig, baseline_beam, modulated_beam
from suffixbeam.eventlog import EventLog, log_from_variants, variant_of
from suffixbeam.harness import (
    DEFAULT_PREFIX_LENGTHS,
    DEFAULT_W_GRID,
    MICRO,
    SweepCell,
    SweepResult,
    evaluate_dataset,
    run_reallife_experiment,
    split_by_prefix,
    write_comparison_csv,
    write_sweep_csv,
)
from suffixbeam.metrics import dl_similarity, micro_average
from suffixbeam.synthgen import exceptional_process_net


def test_default_grid_shape():
    assert DEFAULT_W_GRID[0] == 0.0
    assert DEFAULT_W_GRID[-1] == 0.95
    assert len(DEFAULT_W_GRID) == 20
    assert DEFAULT_PREFIX_LENGTHS == (3, 4, 5, 6, 7)


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


# ---------------------------------------------------------------------------
# sweeping


@pytest.fixture(scope="module")
def small_sweep(synth, synth_ngram):
    test_log = EventLog.from_traces(synth.test_log.traces[:60])
    with pytest.warns(UserWarning, match="k=9; skipping"):
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


def reference_sweep(dataset, test_log, predictor, net, config, w_grid, prefix_lengths):
    """evaluate_dataset written as one beam per (test trace, k, w)."""
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
                if w == 0.0:
                    res = baseline_beam(v[:k], predictor, cfg)
                else:
                    res = modulated_beam(v[:k], net, predictor, cfg)
                sims.append(dl_similarity(res.suffix, v[k:]))
                forced += res.forced_termination
            k_cells.append(SweepCell(dataset, k, w, sum(sims) / len(sims), len(sims), forced))
        micro = micro_average([(c.mean_similarity, c.n_cases) for c in k_cells])
        n = sum(c.n_cases for c in k_cells)
        forced = sum(c.forced_terminations for c in k_cells)
        cells += k_cells + [SweepCell(dataset, MICRO, w, micro, n, forced)]
    return SweepResult(dataset, tuple(cells), tuple(prefix_lengths), tuple(w_grid))


def test_sweep_predicts_each_distinct_case_once_with_identical_results(synth, synth_ngram, tmp_path):
    test_log = EventLog.from_traces(synth.test_log.traces[:40])
    args = ("repeats", test_log, synth_ngram)
    kwargs = dict(w_grid=(0.0, 0.5, 0.85), prefix_lengths=(3, 4, 5))
    config = BeamConfig(b_size=3, max_iter=8)
    assert len({variant_of(t) for t in test_log.traces}) < len(test_log.traces)  # repeats
    got = evaluate_dataset(*args, synth.net, config, **kwargs)
    want = reference_sweep(*args, exceptional_process_net(), config, **kwargs)
    assert got == want  # floats compared exactly
    for writer in (write_sweep_csv, write_comparison_csv):
        writer(tmp_path / "got.csv", got)
        writer(tmp_path / "want.csv", want)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_evaluate_dataset_with_no_cases_at_all(synth, synth_ngram):
    test_log = EventLog.from_traces(synth.test_log.traces[:5])
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
        with pytest.raises(ValueError, match="every prefix length produced an empty holdout"):
            run_reallife_experiment(
                "repair", synth.train_log, synth.net, w_grid=(0.0,), prefix_lengths=(20,)
            )


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


def test_csv_writers_accept_lists(small_sweep, tmp_path):
    _, result = small_sweep
    path = tmp_path / "multi.csv"
    write_sweep_csv(path, [result, result])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * len(result.cells)

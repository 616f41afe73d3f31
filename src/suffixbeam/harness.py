"""Experiment harness: prefix/suffix splits, w-sweeps, and CSV reports.

Two experiment shapes are supported:

* synthetic — generate a log with a known exceptional sub-process, train a
  predictor on all of it, and evaluate suffix prediction on the exceptional
  traces for every modulation weight on the grid;
* real-life — given an event log and a background-knowledge net, hold out
  per prefix-length the traces that continue a shared prefix with the
  *second*-most-frequent continuation variant. The model trains on the whole
  log; the held-out traces are the ones whose continuations the predictor is
  biased against, which is exactly where modulation can help.

Both shapes differ only in the variants each prefix length's (prefix, true
suffix) cases come from; one per-k rule (:func:`_cases_by_k`) builds the
cases and one sweep scores them: once per sweep it maps each case to the
index of its distinct case and searches each distinct prefix with the one
beam config at every w of the grid in one call (the runs of
:func:`~suffixbeam.beam.sweep_beams`, of which it reads each w's predicted
suffix and forced flag), scores each distinct (predicted, true) suffix pair
once, and for each w sums each k's cells by index, or reuses the previous
w's sums when its outcomes per distinct case repeat.
Every entry first checks its settings once, by one rule set
(:func:`_check_settings`), so a bad setting raises before any split,
prefix log or training. Results land
in two CSVs: a long-format sweep table (``dataset,k,w,mean_similarity,
n_cases,forced_terminations``; for each w the per-k rows, then a
``k=micro`` row for their weighted average) and a compact comparison table
(``dataset,k,baseline,modulated,diff``) using the best sweep weight.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

from ._numbers import as_int
from .beam import BeamConfig, _check_w, _sweep_runs
from .eventlog import EventLog, build_prefix_log, prefix, suffix
from .metrics import dl_similarity, micro_average
from .petri import PetriNet
from .predictor import train_ngram
from .encoding import build_vocabulary
from .synthgen import SynthConfig, generate

DEFAULT_W_GRID = tuple(round(0.05 * i, 2) for i in range(20))  # 0.00 .. 0.95
DEFAULT_PREFIX_LENGTHS = (3, 4, 5, 6, 7)
SYNTHETIC_PREFIX_LENGTHS = (3, 4, 5)  # the ks the synthetic test log populates: its traces have 4 or 6 labels
MICRO = "micro"
_NO_BASELINE = "w grid must hold 0, the baseline the comparison table is measured against"


@dataclass(frozen=True)
class SweepCell:
    dataset: str
    k: object  # prefix length, or the string "micro"
    w: float
    mean_similarity: float
    n_cases: int
    forced_terminations: int


@dataclass(frozen=True)
class SweepResult:
    dataset: str
    cells: tuple
    prefix_lengths: tuple  # the populated ones
    w_grid: tuple

    def cell(self, k, w) -> SweepCell:
        for c in self.cells:
            if c.k == k and c.w == w:
                return c
        raise KeyError((k, w))

    def micro_by_w(self) -> dict:
        return {c.w: c.mean_similarity for c in self.cells if c.k == MICRO}

    @property
    def best_w(self) -> float:
        micro = self.micro_by_w()
        return max(sorted(micro), key=lambda w: micro[w])  # ties: smallest w

    @property
    def baseline_micro(self) -> float:
        if 0.0 not in self.w_grid:
            raise ValueError(_NO_BASELINE)
        return self.micro_by_w()[0.0]

    @property
    def best_micro(self) -> float:
        return self.micro_by_w()[self.best_w]


def split_by_prefix(log: EventLog, k: int):
    """Hold out, per shared length-k prefix, the second-most-common variant.

    Traces of length <= k are never held out (there is no suffix to
    predict). Within a prefix cluster, variants rank by descending trace
    count, ties broken toward the lexicographically smaller variant; all
    traces of the rank-1 (second) variant go to the held-out set, sorted by
    case id, then by cluster in prefix order, then in log order. Training
    data is the entire log. Raises ValueError for a k that is not an int
    >= 1 (nor a bool), or when no cluster has two variants (an empty split).

    Clusters and ranks come from the log's variant counts, each trace's
    variant from ``trace_variants``; only case ids are read from traces.
    """
    k = as_int("k", k, 1)
    clusters: dict = {}
    for v, n in log.variants.items():
        if len(v) > k:
            clusters.setdefault(prefix(v, k), []).append((-n, v))
    place_of = {}  # held-out variant -> its cluster's place in prefix order
    for place, pref in enumerate(sorted(clusters)):
        if len(clusters[pref]) > 1:
            place_of[sorted(clusters[pref])[1][1]] = place
    if not place_of:
        raise ValueError(f"no length-{k} prefix is shared by two variants; nothing to hold out")
    keys = [(trace.case_id, place_of[v], row)
            for row, (trace, v) in enumerate(zip(log.traces, log.trace_variants)) if v in place_of]
    return log, log.select(row for _, _, row in sorted(keys))


def _cases_by_k(dataset: str, prefix_lengths, variants_of) -> dict:
    """``{k: cases}`` over the prefix lengths, in the given order, that have cases.

    A case is the (prefix, true suffix) of one of ``variants_of(k)`` longer
    than k, in their order; each distinct variant is sliced once per k and
    its repeats share its case. A k without cases is skipped with a warning,
    and no cases at all raise.
    """
    cases_by_k = {}
    for k in prefix_lengths:
        variants = [v for v in variants_of(k) if len(v) > k]
        case_of = {v: (prefix(v, k), suffix(v, k)) for v in dict.fromkeys(variants)}
        cases = list(map(case_of.__getitem__, variants))
        if cases:
            cases_by_k[k] = cases
        else:
            warnings.warn(f"{dataset}: k={k} skipped: it has no test case")
    if not cases_by_k:
        raise ValueError(f"{dataset}: no prefix length has any test case")
    return cases_by_k


def _check_settings(w_grid, prefix_lengths, has_net: bool, comparison: bool) -> tuple:
    """The w grid as floats and the prefix lengths as ints, or ValueError unless they pass.

    Neither the w grid nor the prefix lengths may be empty or repeat a
    value (a repeat would be swept, and written, twice), every k is an
    integer (not a bool) of at least 1, and a w above 0 needs a net
    (without one the beam runs the baseline).
    A ``comparison`` measures against w = 0, so its grid must hold 0.
    Each w is checked as :class:`BeamConfig` checks it (a bool is not a w)
    before any repeat is looked for, as True would equal 1.0.
    """
    prefix_lengths = tuple(as_int("k", k, 1) for k in prefix_lengths)
    w_grid = tuple(map(_check_w, w_grid))
    for values, what in ((w_grid, "w value"), (prefix_lengths, "prefix length")):
        if not values:
            raise ValueError(f"no {what} given")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{what} {v} is given more than once")
    if comparison and 0.0 not in w_grid:
        raise ValueError(_NO_BASELINE)
    if not has_net and max(w_grid) > 0:
        raise ValueError(f"w {max(w_grid)} needs a net; without one the beam runs the w = 0 baseline")
    return w_grid, prefix_lengths


def _sweep(dataset: str, cases_by_k: dict, predictor, net: PetriNet | None, config, w_grid) -> SweepResult:
    """For each w of the grid, one cell per k and then the micro row.

    ``cases_by_k`` maps each prefix length to its (prefix, true suffix)
    cases. Once per sweep each k's cases become rows of indices into the
    distinct cases, and each distinct prefix is predicted at every w of the
    checked grid by one :func:`~suffixbeam.beam._sweep_runs` call, of whose
    runs only the winners' labels and the forced flags are read. Each
    distinct (predicted, true) suffix pair is
    scored once per sweep; a k cell then sums its rows in case order, so
    means are bit-identical to a per-case loop. A w whose similarities and
    forced flags, per distinct case, equal the previous w's reuses its sums.
    """
    index_of = {}
    rows_by_k = {k: [index_of.setdefault(c, len(index_of)) for c in cases] for k, cases in cases_by_k.items()}
    prefixes = list(dict.fromkeys(pref for pref, _ in index_of))
    runs_of = {pref: _sweep_runs(pref, net, predictor, config, w_grid) for pref in prefixes}
    similarity = {}  # true suffix -> {predicted suffix: similarity}
    columns = []
    for pref, truth in index_of:
        sim_of = similarity.setdefault(truth, {})
        suffixes = [run[0][2] for run in runs_of[pref]]  # the winning candidate's labels
        sim_of.update((s, dl_similarity(s, truth)) for s in dict.fromkeys(suffixes) if s not in sim_of)
        columns.append(list(map(sim_of.__getitem__, suffixes)))
    forced_at = zip(*([run[1] for run in runs_of[pref]] for pref, _ in index_of))
    cells = []
    outcomes = None
    for w, sims, forced in zip(w_grid, zip(*columns), forced_at):  # per w, one value per distinct case
        if (sims, forced) != outcomes:
            outcomes = sims, forced
            sums = [(sum(map(sims.__getitem__, rows)), sum(map(forced.__getitem__, rows)))
                    for rows in rows_by_k.values()]
        k_cells = [
            SweepCell(dataset, k, w, total / len(rows), len(rows), n_forced)
            for (k, rows), (total, n_forced) in zip(rows_by_k.items(), sums)
        ]
        cells.extend(k_cells)
        cells.append(SweepCell(dataset, MICRO, w, micro_average((c.mean_similarity, c.n_cases) for c in k_cells),
                               sum(c.n_cases for c in k_cells), sum(c.forced_terminations for c in k_cells)))
    return SweepResult(dataset, tuple(cells), tuple(cases_by_k), tuple(w_grid))


def evaluate_dataset(
    dataset: str,
    test_log: EventLog,
    predictor,
    net: PetriNet | None,
    beam_config: BeamConfig,
    w_grid=DEFAULT_W_GRID,
    prefix_lengths=DEFAULT_PREFIX_LENGTHS,
) -> SweepResult:
    """Sweep the modulation weight over the test log's cases at each prefix length.

    The grid need not hold w = 0: no comparison is made here, and
    ``beam_config.w`` is not read.
    """
    w_grid, prefix_lengths = _check_settings(w_grid, prefix_lengths, net is not None, comparison=False)
    cases_by_k = _cases_by_k(dataset, prefix_lengths, lambda k: test_log.trace_variants)
    return _sweep(dataset, cases_by_k, predictor, net, beam_config, w_grid)


def format_w(w: float) -> str:
    """w as reports print it: two decimals, or in full where two would round it."""
    text = f"{w:.2f}"
    return text if float(text) == w else repr(w)


def write_sweep_csv(path, results) -> None:
    """Long-format sweep table; accepts one result or a list."""
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


def write_comparison_csv(path, results) -> None:
    """Per-k baseline vs best-w modulated table (micro row last per dataset); each grid must hold w = 0."""
    results = [results] if isinstance(results, SweepResult) else list(results)
    if any(0.0 not in result.w_grid for result in results):
        raise ValueError(_NO_BASELINE)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "k", "baseline", "modulated", "diff"])
        for result in results:
            best = result.best_w
            for k in list(result.prefix_lengths) + [MICRO]:
                base = result.cell(k, 0.0).mean_similarity
                mod = result.cell(k, best).mean_similarity
                writer.writerow([result.dataset, k, repr(base), repr(mod), repr(mod - base)])


def train_predictor(train_log: EventLog, kind: str, ngram_order: int, ngram_alpha: float, epochs: int):
    """(model, history) trained on the whole log; history is the attention
    model's per-epoch stats and None for the n-gram."""
    vocab = build_vocabulary(train_log)
    plog = build_prefix_log(train_log)
    if kind == "ngram":
        return train_ngram(plog, vocab, order=ngram_order, alpha=ngram_alpha), None
    if kind == "attention":
        from .attention import AttentionConfig, train_attention

        l_max = max(map(len, train_log.variants)) + 1
        return train_attention(plog, vocab, AttentionConfig(l_max=l_max), epochs=epochs)
    raise ValueError(f"unknown predictor kind {kind!r}")


def _beam_config(train_log: EventLog, b_size: int) -> BeamConfig:
    """The sweep's beam: at most as many steps as the longest training trace, strict partial scores."""
    return BeamConfig(b_size=b_size, max_iter=max(map(len, train_log.variants)), partial_mode="strict")


def run_synthetic_experiment(
    config: SynthConfig = SynthConfig(),
    predictor_kind: str = "ngram",
    b_size: int = 3,
    w_grid=DEFAULT_W_GRID,
    prefix_lengths=SYNTHETIC_PREFIX_LENGTHS,
    ngram_order: int = 3,
    ngram_alpha: float = 0.01,
    epochs: int = 10,
) -> SweepResult:
    """Check the settings, generate the synthetic log, check the exceptional
    traces' cases, train, and sweep on those cases."""
    # b_size and the sweep's settings raise before generate, which brings the
    # net; the beam's depth comes from the generated log
    BeamConfig(b_size=b_size)
    w_grid, prefix_lengths = _check_settings(w_grid, prefix_lengths, has_net=True, comparison=True)
    generated = generate(config)
    beam_config = _beam_config(generated.train_log, b_size)
    cases_by_k = _cases_by_k("synthetic", prefix_lengths, lambda k: generated.test_log.trace_variants)
    predictor, _ = train_predictor(generated.train_log, predictor_kind, ngram_order, ngram_alpha, epochs)
    return _sweep("synthetic", cases_by_k, predictor, generated.net, beam_config, w_grid)


def run_reallife_experiment(
    dataset: str,
    log: EventLog,
    net: PetriNet,
    predictor_kind: str = "ngram",
    b_size: int = 3,
    w_grid=DEFAULT_W_GRID,
    prefix_lengths=DEFAULT_PREFIX_LENGTHS,
    ngram_order: int = 3,
    ngram_alpha: float = 0.01,
    epochs: int = 10,
) -> SweepResult:
    """Check the settings, take the per-k second-variant holdout of a real log
    and check it before training, then run the same sweep."""
    beam_config = _beam_config(log, b_size)
    w_grid, prefix_lengths = _check_settings(w_grid, prefix_lengths, net is not None, comparison=True)

    def held_out_variants(k):
        try:
            return split_by_prefix(log, k)[1].trace_variants
        except ValueError:  # an empty holdout
            return ()

    cases_by_k = _cases_by_k(dataset, prefix_lengths, held_out_variants)
    predictor, _ = train_predictor(log, predictor_kind, ngram_order, ngram_alpha, epochs)
    return _sweep(dataset, cases_by_k, predictor, net, beam_config, w_grid)

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

Both shapes differ only in the log each prefix length's (prefix, true
suffix) cases come from; one per-k rule (:func:`_cases_by_k`) builds the
cases from the log's counted variants, one per distinct variant, with each
trace's index among them, and one sweep scores them: it searches each
distinct prefix with the one beam config at every w of the grid in one call
(the runs of :func:`~suffixbeam.beam.sweep_beams`, of which it reads each
w's predicted suffix and forced flag), scores each distinct (predicted,
true) suffix pair once, and for each w sums each k's similarities by index
and counts its forced terminations by multiplicity, or reuses the previous
w's means and counts when its outcomes per distinct case repeat.
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
import io
import warnings
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

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


class SweepCell(NamedTuple):
    """One row of the sweep table; a plain tuple, cheap to build (a sweep builds one per k and w)."""

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


def _cases_by_k(dataset: str, prefix_lengths, log_of) -> dict:
    """``{k: (cases, counts, rows)}`` over the prefix lengths, in the given order, that have cases.

    A case is the (prefix, true suffix) of a trace of ``log_of(k)`` longer
    than k. A k's cases follow the log's counted ``variants``: ``cases``
    holds the case of each distinct variant longer than k, sliced once, and
    ``counts`` its number of traces; ``rows`` holds each such trace's case,
    in log order, as its index among the distinct cases of all the ks so far
    (one lookup per trace). Two ks share no case, as their prefixes differ
    in length. A k without cases is skipped with a warning, and no cases at
    all raise.
    """
    cases_by_k = {}
    n_distinct = 0
    for k in prefix_lengths:
        log = log_of(k)
        long = [v for v in log.variants if len(v) > k]
        if not long:
            warnings.warn(f"{dataset}: k={k} skipped: it has no test case")
            continue
        index_of = dict(zip(long, range(n_distinct, n_distinct + len(long))))
        rows = [i for i in map(index_of.get, log.trace_variants) if i is not None]
        cases = [(prefix(v, k), suffix(v, k)) for v in long]
        cases_by_k[k] = cases, list(map(log.variants.__getitem__, long)), rows
        n_distinct += len(long)
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

    ``cases_by_k`` is :func:`_cases_by_k`'s: each k's distinct cases, their
    numbers of traces and each trace's row. Each distinct prefix is
    predicted at every w of the checked grid by one
    :func:`~suffixbeam.beam._sweep_runs` call, of whose runs only the
    winners' labels and the forced flags are read, and each distinct
    (predicted, true) suffix pair is scored once per sweep. At a w, a k cell
    takes its rows' similarities in case order, in one ``itemgetter`` pass,
    and sums them, so means are bit-identical to a per-case loop; its forced
    terminations are the trace counts of its forced distinct cases. A w
    whose similarities and forced flags, per distinct case, equal the
    previous w's reuses its means and counts.
    """
    cases = [case for k_cases, _, _ in cases_by_k.values() for case in k_cases]
    runs_of = {pref: _sweep_runs(pref, net, predictor, config, w_grid) for pref in dict.fromkeys(p for p, _ in cases)}
    similarity = {}  # true suffix -> {predicted suffix: similarity}
    columns = []
    for pref, truth in cases:
        sim_of = similarity.setdefault(truth, {})
        suffixes = [run[0][2] for run in runs_of[pref]]  # the winning candidate's labels
        sim_of.update((s, dl_similarity(s, truth)) for s in dict.fromkeys(suffixes) if s not in sim_of)
        columns.append(list(map(sim_of.__getitem__, suffixes)))
    forced_at = zip(*([run[1] for run in runs_of[pref]] for pref, _ in cases))
    books = []  # per k: k, n_cases, its rows' getter, its distinct cases' span and trace counts
    start = 0
    for k, (_, counts, rows) in cases_by_k.items():
        take = itemgetter(*rows) if len(rows) > 1 else lambda sims, i=rows[0]: (sims[i],)  # one row: a tuple still
        books.append((k, len(rows), take, slice(start, start + len(counts)), counts))
        start += len(counts)
    n_micro = sum(n for _, n, _, _, _ in books)
    cells = []
    outcomes = None
    for w, sims, forced in zip(w_grid, zip(*columns), forced_at):  # per w, one value per distinct case
        if (sims, forced) != outcomes:
            outcomes = sims, forced
            k_rows = [(k, sum(take(sims)) / n, n, sum(compress(counts, forced[span])))
                      for k, n, take, span, counts in books]
            micro = (micro_average((mean, n) for _, mean, n, _ in k_rows), n_micro,
                     sum(n_forced for _, _, _, n_forced in k_rows))
        cells.extend([SweepCell(dataset, k, w, mean, n, n_forced) for k, mean, n, n_forced in k_rows])
        cells.append(SweepCell(dataset, MICRO, w, *micro))
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
    cases_by_k = _cases_by_k(dataset, prefix_lengths, lambda k: test_log)
    return _sweep(dataset, cases_by_k, predictor, net, beam_config, w_grid)


def format_w(w: float) -> str:
    """w as reports print it: two decimals, or in full where two would round it."""
    text = f"{w:.2f}"
    return text if float(text) == w else repr(w)


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it among other fields: quoted only where it must be."""
    line = io.StringIO()
    csv.writer(line).writerow((value, ""))  # the default line end, as CR and LF count in quoting
    return line.getvalue()[:-3]  # less the ",\r\n" of the empty last field


def write_sweep_csv(path, results) -> None:
    """Long-format sweep table; accepts one result or a list.

    Writes the bytes of ``csv.writer`` with one row per cell, as one
    formatted line per cell in a single write. A result's cells share their
    dataset, k and w objects, so each is quoted by the csv module, or its w
    formatted, once: the dataset and w where they change from the cell
    before, and each k on its first cell.
    """
    if isinstance(results, SweepResult):
        results = [results]
    lines = ["dataset,k,w,mean_similarity,n_cases,forced_terminations\r\n"]
    for result in results:
        k_fields = {}  # id(k) -> its field; the cells hold each k, so no id is reused
        dataset = w = object()  # no cell's
        for c in result.cells:
            if c.dataset is not dataset:
                dataset, dataset_field = c.dataset, _csv_field(c.dataset)
            if c.w is not w:
                w, w_field = c.w, format_w(c.w)  # a number's text: never quoted
            k_field = k_fields.get(id(c.k))
            if k_field is None:
                k_field = k_fields[id(c.k)] = _csv_field(c.k)
            lines.append(f"{dataset_field},{k_field},{w_field},{c.mean_similarity!r},{c.n_cases},"
                         f"{c.forced_terminations}\r\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


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
    cases_by_k = _cases_by_k("synthetic", prefix_lengths, lambda k: generated.test_log)
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

    def held_out(k):
        try:
            return split_by_prefix(log, k)[1]
        except ValueError:  # an empty holdout
            return EventLog(())

    cases_by_k = _cases_by_k(dataset, prefix_lengths, held_out)
    predictor, _ = train_predictor(log, predictor_kind, ngram_order, ngram_alpha, epochs)
    return _sweep(dataset, cases_by_k, predictor, net, beam_config, w_grid)

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

Both shapes differ only in how they build each prefix length's (prefix,
true suffix) cases; one sweep then scores them. Results land in two CSVs: a
long-format sweep table (``dataset,k,w,mean_similarity,n_cases,
forced_terminations``; for each w the per-k rows, then a ``k=micro`` row for
their weighted average) and a compact comparison table
(``dataset,k,baseline,modulated,diff``) using the best sweep weight.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

from .beam import BeamConfig, modulated_beam
from .eventlog import EventLog, build_prefix_log, prefix, suffix, variant_of
from .metrics import dl_similarity, micro_average
from .petri import PetriNet
from .predictor import train_ngram
from .encoding import build_vocabulary
from .synthgen import SynthConfig, generate

DEFAULT_W_GRID = tuple(round(0.05 * i, 2) for i in range(20))  # 0.00 .. 0.95
DEFAULT_PREFIX_LENGTHS = (3, 4, 5, 6, 7)
MICRO = "micro"


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
        return self.micro_by_w()[0.0]

    @property
    def best_micro(self) -> float:
        return self.micro_by_w()[self.best_w]


def split_by_prefix(log: EventLog, k: int):
    """Hold out, per shared length-k prefix, the second-most-common variant.

    Traces of length <= k are never held out (there is no suffix to
    predict). Within a prefix cluster, variants rank by descending trace
    count, ties broken toward the lexicographically smaller variant; all
    traces of the rank-1 (second) variant go to the held-out set. Training
    data is the entire log. Raises ValueError when no cluster has two
    variants, i.e. the split would be empty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    clusters: dict = {}
    for trace in log.traces:
        v = variant_of(trace)
        if len(v) <= k:
            continue
        clusters.setdefault(prefix(v, k), {}).setdefault(v, []).append(trace)
    held_out = []
    for pref in sorted(clusters):
        by_variant = clusters[pref]
        if len(by_variant) < 2:
            continue
        ranked = sorted(by_variant.items(), key=lambda item: (-len(item[1]), item[0]))
        held_out.extend(ranked[1][1])
    if not held_out:
        raise ValueError(f"no length-{k} prefix is shared by two variants; nothing to hold out")
    held_out.sort(key=lambda t: t.case_id)
    return log, EventLog.from_traces(tuple(held_out))


def _sweep(dataset: str, cases_by_k: dict, predictor, net: PetriNet | None, beam_config: BeamConfig,
           w_grid) -> tuple:
    """The sweep's cells: for each w, one cell per k and then the micro row.

    ``cases_by_k`` maps each prefix length to its (prefix, true suffix)
    cases. Each distinct prefix is predicted once per w, and each distinct
    case scored once; the outcomes are then read back per case, in order,
    so means accumulate exactly as a per-case loop would.
    """
    distinct = list(dict.fromkeys(case for cases in cases_by_k.values() for case in cases))
    prefixes = list(dict.fromkeys(pref for pref, _ in distinct))
    cells = []
    for w in w_grid:
        cfg = replace(beam_config, w=w)
        result_of = {pref: modulated_beam(pref, net, predictor, cfg) for pref in prefixes}
        outcome_of = {
            (pref, truth): (dl_similarity(result_of[pref].suffix, truth), result_of[pref].forced_termination)
            for pref, truth in distinct
        }
        k_cells = []
        for k, cases in cases_by_k.items():
            outcomes = [outcome_of[case] for case in cases]
            sims = [sim for sim, _ in outcomes]
            forced = sum(flag for _, flag in outcomes)
            k_cells.append(SweepCell(dataset, k, w, sum(sims) / len(sims), len(sims), forced))
        cells.extend(k_cells)
        cells.append(SweepCell(
            dataset,
            MICRO,
            w,
            micro_average((c.mean_similarity, c.n_cases) for c in k_cells),
            sum(c.n_cases for c in k_cells),
            sum(c.forced_terminations for c in k_cells),
        ))
    return tuple(cells)


def _cases(variants, k: int) -> list:
    """The (prefix, true suffix) case of every variant longer than k, in order."""
    return [(prefix(v, k), suffix(v, k)) for v in variants if len(v) > k]


def evaluate_dataset(
    dataset: str,
    test_log: EventLog,
    predictor,
    net: PetriNet | None,
    beam_config: BeamConfig,
    w_grid=DEFAULT_W_GRID,
    prefix_lengths=DEFAULT_PREFIX_LENGTHS,
) -> SweepResult:
    """Sweep the modulation weight over the test log's cases at each prefix length."""
    variants = [variant_of(trace) for trace in test_log.traces]
    cases_by_k = {}
    for k in prefix_lengths:
        cases = _cases(variants, k)
        if cases:
            cases_by_k[k] = cases
        else:
            warnings.warn(f"{dataset}: no test trace is longer than k={k}; skipping")
    if not cases_by_k:
        raise ValueError(f"{dataset}: no prefix length has any test case")
    cells = _sweep(dataset, cases_by_k, predictor, net, beam_config, w_grid)
    return SweepResult(dataset, cells, tuple(sorted(cases_by_k)), tuple(w_grid))


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
                    [c.dataset, c.k, f"{c.w:.2f}", repr(c.mean_similarity), c.n_cases, c.forced_terminations]
                )


def write_comparison_csv(path, results) -> None:
    """Per-k baseline vs best-w modulated table (micro row last per dataset)."""
    if isinstance(results, SweepResult):
        results = [results]
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

        l_max = max(len(t) for t in train_log.traces) + 1
        return train_attention(plog, vocab, AttentionConfig(l_max=l_max), epochs=epochs)
    raise ValueError(f"unknown predictor kind {kind!r}")


def _beam_config(train_log: EventLog, b_size: int) -> BeamConfig:
    """The sweep's beam: at most as many steps as the longest training trace, strict partial scores."""
    return BeamConfig(b_size=b_size, max_iter=max(len(t) for t in train_log.traces), partial_mode="strict")


def run_synthetic_experiment(
    config: SynthConfig = SynthConfig(),
    predictor_kind: str = "ngram",
    b_size: int = 3,
    w_grid=DEFAULT_W_GRID,
    prefix_lengths=DEFAULT_PREFIX_LENGTHS,
    ngram_order: int = 3,
    ngram_alpha: float = 0.01,
    epochs: int = 10,
) -> SweepResult:
    """Generate the synthetic log, train, and sweep on the exceptional traces."""
    generated = generate(config)
    predictor, _ = train_predictor(generated.train_log, predictor_kind, ngram_order, ngram_alpha, epochs)
    return evaluate_dataset(
        "synthetic",
        generated.test_log,
        predictor,
        generated.net,
        _beam_config(generated.train_log, b_size),
        w_grid=w_grid,
        prefix_lengths=prefix_lengths,
    )


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
    """Per-k second-variant holdout on a real log, then the same sweep.

    Prefix lengths whose holdout is empty are skipped with a warning; at
    least one must survive, which is checked before the predictor trains.
    """
    cases_by_k = {}
    for k in prefix_lengths:
        try:
            _, held_out = split_by_prefix(log, k)
        except ValueError as exc:
            warnings.warn(f"{dataset}: k={k} skipped ({exc})")
            continue
        cases_by_k[k] = _cases(map(variant_of, held_out.traces), k)
    if not cases_by_k:
        raise ValueError(f"{dataset}: every prefix length produced an empty holdout")
    predictor, _ = train_predictor(log, predictor_kind, ngram_order, ngram_alpha, epochs)
    cells = _sweep(dataset, cases_by_k, predictor, net, _beam_config(log, b_size), w_grid)
    return SweepResult(dataset, cells, tuple(cases_by_k), tuple(w_grid))

"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed gives the same
log and running-case stream, byte for byte once written out. The program
under test only ever sees the generated files and prefixes.

The wide net is the replay-heavy counterpart of the synthetic benchmark:

    Start -> tau-split -> P0 | P1 | ... | P5 -> tau-join -> Close | Escalate | Reject

Each ``Pj`` sits on its own branch next to a silent skip, so the net has 16
places, six-way concurrency and eight silent transitions. Replaying a noisy
or partial trace on it keeps the silent search busy, and the interleavings of
the parallel block give many distinct variants with a skewed frequency.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np

from suffixbeam.eventlog import log_from_variants, variant_of
from suffixbeam.petri import Arc, PetriNet, Transition
from suffixbeam.synthgen import SynthConfig, generate

N_PARALLEL = 6
PARALLEL_LABELS = tuple(f"P{j}" for j in range(N_PARALLEL))
OUTCOMES = ("Close", "Escalate", "Reject")
OUTCOME_WEIGHTS = (0.6, 0.25, 0.15)
EXECUTE_PROBABILITY = 0.85  # each parallel activity runs, else its silent skip fires
ORDER_BIAS = 4.0  # Plackett-Luce weight ratio between Pj and P(j+1)
SWAP_NOISE = 0.10  # share of log traces with one adjacent pair swapped

WIDE_LOG_TRACES = 300


def wide_net(name: str = "wide_parallel") -> PetriNet:
    """The 16-place AND-split/XOR-close net described in the module docstring."""
    places = ["i", "s"]
    places += [f"a{j}" for j in range(N_PARALLEL)] + [f"b{j}" for j in range(N_PARALLEL)]
    places += ["j", "o"]
    transitions = [Transition("start", "Start"), Transition("split", None)]
    arcs = [Arc("i", "start"), Arc("start", "s"), Arc("s", "split")]
    for j, label in enumerate(PARALLEL_LABELS):
        transitions += [Transition(f"do{j}", label), Transition(f"skip{j}", None)]
        arcs += [Arc("split", f"a{j}")]
        for tid in (f"do{j}", f"skip{j}"):
            arcs += [Arc(f"a{j}", tid), Arc(tid, f"b{j}")]
        arcs += [Arc(f"b{j}", "join")]
    transitions.append(Transition("join", None))
    arcs.append(Arc("join", "j"))
    for label in OUTCOMES:
        tid = label.lower()
        transitions.append(Transition(tid, label))
        arcs += [Arc("j", tid), Arc(tid, "o")]
    return PetriNet(
        name=name,
        places=tuple(places),
        transitions=tuple(transitions),
        arcs=tuple(arcs),
        initial_marking={"i": 1},
        final_marking={"o": 1},
    )


@lru_cache(maxsize=None)
def wide_variants() -> tuple:
    """Every noise-free variant of :func:`wide_net` with its playout probability.

    A playout runs each ``Pj`` with probability EXECUTE_PROBABILITY, orders
    the ones it runs by a Plackett-Luce draw that favours the canonical order
    P0..P5, and ends with a weighted outcome. Returns (variants, cumulative
    probabilities), most likely variant first.
    """
    atoms = []
    for mask in range(2**N_PARALLEL):
        executed = [j for j in range(N_PARALLEL) if mask >> j & 1]
        p_subset = 1.0
        for j in range(N_PARALLEL):
            p_subset *= EXECUTE_PROBABILITY if j in executed else 1.0 - EXECUTE_PROBABILITY
        for order in itertools.permutations(executed):
            p_order, left = 1.0, set(order)
            for j in order:
                p_order *= ORDER_BIAS ** -j / sum(ORDER_BIAS ** -i for i in left)
                left.remove(j)
            for outcome, p_outcome in zip(OUTCOMES, OUTCOME_WEIGHTS):
                variant = ("Start",) + tuple(PARALLEL_LABELS[j] for j in order) + (outcome,)
                atoms.append((-p_subset * p_order * p_outcome, variant))
    atoms.sort()
    return tuple(v for _, v in atoms), np.cumsum([-p for p, _ in atoms])


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _draw(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """n stratified draws of indices into ``cdf``: the likely ones get their
    expected share in every sample, the rare ones vary with the generator."""
    picks = np.searchsorted(cdf, _stratified(rng, n) * cdf[-1], side="right")
    return np.minimum(picks, len(cdf) - 1)


def _with_noise(variants: list, rng: np.random.Generator) -> list:
    """Swap one adjacent pair in exactly SWAP_NOISE of the traces."""
    out = list(variants)
    for i in rng.permutation(len(out))[: round(SWAP_NOISE * len(out))]:
        labels = list(out[i])
        pos = int(rng.integers(len(labels) - 1))
        labels[pos], labels[pos + 1] = labels[pos + 1], labels[pos]
        out[i] = tuple(labels)
    return out


def wide_log(seed: int, n_traces: int = WIDE_LOG_TRACES):
    """Noisy playouts of the wide net as an event log."""
    rng = np.random.default_rng([seed, 1])
    variants, cdf = wide_variants()
    return log_from_variants(_with_noise([variants[i] for i in _draw(rng, cdf, n_traces)], rng))


def _running_cases(rng: np.random.Generator, variants: tuple, cdf: np.ndarray, block: int = 100):
    """Endless stream of (prefix, true suffix): a variant drawn from ``cdf``,
    cut at a uniform point that leaves at least one event on each side.

    Each block of requests is a stratified draw over all (variant, cut)
    pairs, so every block has nearly the same mix of cases.
    """
    lengths = np.array([len(v) for v in variants])
    pair_variant = np.repeat(np.arange(len(variants)), lengths - 1)
    pair_cut = np.concatenate([np.arange(1, n) for n in lengths])
    weight = np.repeat(np.diff(cdf, prepend=0.0) / (lengths - 1), lengths - 1)
    order = np.argsort(-weight, kind="stable")  # most likely pair first
    pair_variant, pair_cut, pair_cdf = pair_variant[order], pair_cut[order], np.cumsum(weight[order])
    while True:
        for i in _draw(rng, pair_cdf, block):
            variant, k = variants[pair_variant[i]], int(pair_cut[i])
            yield variant[:k], variant[k:]


def wide_running_cases(seed: int):
    """Running cases of the wide net: fresh noise-free playouts, cut."""
    return _running_cases(np.random.default_rng([seed, 2]), *wide_variants())


def synthetic_running_cases(seed: int):
    """Running cases of the synthetic process, drawn with the variant
    frequencies of the seed's synthgen training log."""
    counts = Counter(variant_of(t) for t in generate(SynthConfig(seed=seed)).train_log.traces)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    variants = tuple(v for v, _ in ranked)
    cdf = np.cumsum([n for _, n in ranked]) / sum(counts.values())
    return _running_cases(np.random.default_rng([seed, 3]), variants, cdf)

import hashlib
import math
import zlib

import numpy as np
import pytest

from suffixbeam.beam import (
    BeamConfig,
    BeamResult,
    baseline_beam,
    checked_beam,
    modulated_beam,
    perfect_fitness_checker,
)
from suffixbeam.encoding import Vocabulary, build_vocabulary
from suffixbeam.eventlog import END, build_prefix_log, log_from_variants
from suffixbeam.petri import chain_net
from suffixbeam.predictor import train_ngram
from suffixbeam.synthgen import EXCEPTIONAL_VARIANTS, exceptional_process_net

from beam_oracle import enumerate_best

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
    with pytest.raises(ValueError, match="b_size and max_iter"):
        BeamConfig(b_size=0)
    with pytest.raises(ValueError, match="b_size and max_iter"):
        BeamConfig(max_iter=0)
    with pytest.raises(ValueError, match="w must be in"):
        BeamConfig(w=1.5)
    with pytest.raises(ValueError, match="max_size"):
        BeamConfig(max_size=0)
    with pytest.raises(ValueError, match="partial_mode"):
        BeamConfig(partial_mode="fuzzy")


def test_empty_prefix_rejected():
    pred = TablePredictor(AB_VOCAB, [0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="non-empty prefix"):
        baseline_beam((), pred, BeamConfig())
    with pytest.raises(ValueError, match="non-empty prefix"):
        checked_beam((), lambda v: True, pred, BeamConfig())


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

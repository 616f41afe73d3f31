"""The benchmark's inputs are pure functions of the seed, and valid for the net."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import generators  # noqa: E402
from suffixbeam.eventlog import variant_of, write_xes  # noqa: E402
from suffixbeam.petri import compliance, write_pnml  # noqa: E402


def _variants(log):
    return [variant_of(t) for t in log.traces]


def test_wide_net_shape():
    net = generators.wide_net()
    assert len(net.places) == 16
    assert sum(t.label is None for t in net.transitions) == 8  # split, six skips, join


def test_wide_variants_are_a_distribution_the_net_accepts():
    variants, cdf = generators.wide_variants()
    assert cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf) >= 0)
    net = generators.wide_net()
    for v in variants[:100] + variants[-20:]:
        assert compliance(net, v) == 1.0


@pytest.mark.parametrize("seed", [0, 17])
def test_wide_log_is_deterministic(tmp_path, seed):
    a, b = generators.wide_log(seed), generators.wide_log(seed)
    assert _variants(a) == _variants(b)
    write_xes(a, tmp_path / "a.xes")
    write_xes(b, tmp_path / "b.xes")
    assert (tmp_path / "a.xes").read_bytes() == (tmp_path / "b.xes").read_bytes()
    assert _variants(generators.wide_log(seed + 1)) != _variants(a)
    assert len(a) == generators.WIDE_LOG_TRACES


def test_wide_net_file_is_deterministic(tmp_path):
    write_pnml(generators.wide_net(), tmp_path / "a.pnml")
    write_pnml(generators.wide_net(), tmp_path / "b.pnml")
    assert (tmp_path / "a.pnml").read_bytes() == (tmp_path / "b.pnml").read_bytes()


@pytest.mark.parametrize("stream", [generators.wide_running_cases, generators.synthetic_running_cases])
def test_running_cases_are_deterministic_cuts(stream):
    first = list(itertools.islice(stream(5), 250))
    assert first == list(itertools.islice(stream(5), 250))
    assert first != list(itertools.islice(stream(6), 250))
    assert all(prefix and truth for prefix, truth in first)


def test_wide_running_cases_are_playouts_of_the_net():
    net = generators.wide_net()
    for prefix, truth in itertools.islice(generators.wide_running_cases(3), 100):
        assert compliance(net, prefix + truth) == 1.0

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logs import made_columns, made_traces
from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import build_prefix_log, variant_of
from suffixbeam.predictor import train_ngram
from suffixbeam.petri import compliance
from suffixbeam.synthgen import (
    EXC_B1_SHORT,
    EXC_B1_TAIL_BC,
    EXC_B1_TAIL_CB,
    EXC_B2,
    EXCEPTIONAL_VARIANTS,
    NORMAL_B1_BC,
    NORMAL_B1_CB,
    NORMAL_B2,
    SynthConfig,
    _split,
    exceptional_process_net,
    generate,
)


def test_config_validation():
    with pytest.raises(ValueError, match="non-negative"):
        SynthConfig(n_train_normal=-1)
    with pytest.raises(ValueError, match=r"branch_probability must be in \[0, 1\]"):
        SynthConfig(branch_probability=1.2)
    with pytest.raises(ValueError, match="short_exceptional_fraction"):
        SynthConfig(short_exceptional_fraction=-0.5)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "17"),
    ("n_train_normal", 2.5), ("n_train_normal", -1), ("n_train_exceptional", True), ("n_train_exceptional", None),
])
def test_config_needs_non_negative_integer_seed_and_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a non-negative integer, not {value!r}"):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("value", [True, "0.5", None, float("nan"), 1.2])
def test_config_needs_fractions_in_the_unit_interval(value):
    with pytest.raises(ValueError, match=rf"branch_probability must be in \[0, 1\], not {value!r}"):
        SynthConfig(branch_probability=value)


def test_config_takes_numpy_integers():
    config = SynthConfig(seed=np.int64(3), n_train_normal=np.int32(8), n_train_exceptional=np.uint8(4))
    assert len(generate(config).train_log) == 12


def test_default_variant_counts(synth):
    counts = Counter(variant_of(t) for t in synth.train_log.traces)
    # 800 normals split 70/30, 200 exceptionals split 25/75, the 50 branch-1
    # exceptionals split 4% short / 96% tailed, tails split evenly
    assert counts[NORMAL_B2] == 240
    assert counts[NORMAL_B1_BC] + counts[NORMAL_B1_CB] == 560
    assert counts[EXC_B1_SHORT] == 2
    assert counts[EXC_B1_TAIL_BC] == 24
    assert counts[EXC_B1_TAIL_CB] == 24
    assert counts[EXC_B2] == 150
    assert sum(counts.values()) == 1000
    # the B1b/B1c interleaving is sampled, not fixed
    assert counts[NORMAL_B1_BC] > 200 and counts[NORMAL_B1_CB] > 200


def test_test_log_is_the_exceptional_slice_of_train(synth):
    test_ids = [t.case_id for t in synth.test_log.traces]
    assert len(test_ids) == 200
    by_id = {t.case_id: t for t in synth.train_log.traces}
    for trace in synth.test_log.traces:
        assert by_id[trace.case_id] is trace  # same objects, not copies
    assert Counter(variant_of(t) for t in synth.test_log.traces) == {
        EXC_B1_SHORT: 2,
        EXC_B1_TAIL_BC: 24,
        EXC_B1_TAIL_CB: 24,
        EXC_B2: 150,
    }


def test_generation_is_deterministic():
    a = generate(SynthConfig(n_train_normal=40, n_train_exceptional=12))
    b = generate(SynthConfig(n_train_normal=40, n_train_exceptional=12))
    assert [variant_of(t) for t in a.train_log.traces] == [
        variant_of(t) for t in b.train_log.traces
    ]
    c = generate(SynthConfig(seed=99, n_train_normal=40, n_train_exceptional=12))
    assert [variant_of(t) for t in a.train_log.traces] != [
        variant_of(t) for t in c.train_log.traces
    ]


def train_log_digest(log) -> str:
    digest = hashlib.md5()
    for t in log.traces:
        digest.update(repr((t.case_id, t.activities, tuple(ts.isoformat() for ts in t.timestamps))).encode())
    return digest.hexdigest()


def test_default_train_log_is_locked(synth):
    # the draw order, case ids and timestamps as they were when the lock was
    # taken; test_generation_is_deterministic only compares the code with itself
    assert train_log_digest(synth.train_log) == "9ba8281a13dba25ef6c7f72767cddde6"


def test_generate_and_ngram_set_up_make_no_trace():
    with made_traces() as made:
        with made_columns() as columns:
            generated = generate(SynthConfig())
            log = generated.train_log
            train_ngram(build_prefix_log(log), build_vocabulary(log), order=3, alpha=0.01)
        assert len(generated.test_log) == 200 and made == []
        assert columns == []  # nor a minute table, nor the prefix log's entries
        # the traces are made on the first read, as the lock has them
        assert train_log_digest(log) == "9ba8281a13dba25ef6c7f72767cddde6"
        assert len(made) == 1000
        assert all(t is log.traces[int(t.case_id[5:]) - 1] for t in generated.test_log.traces)
        assert len(made) == 1000  # the test log's traces are the training log's objects


def pair_build_columns(config):
    """Reference: the train and test variant columns of the build that shuffled (variant, flag) pairs."""
    rng = np.random.default_rng(config.seed)
    n_b1_norm, n_b2_norm = _split(config.n_train_normal, config.branch_probability)
    n_b1_exc, n_b2_exc = _split(config.n_train_exceptional, config.exceptional_branch1_fraction)
    n_short, n_tailed = _split(n_b1_exc, config.short_exceptional_fraction)
    n_tail_bc, n_tail_cb = _split(n_tailed, 0.5)
    entries = [(NORMAL_B1_BC if r < 0.5 else NORMAL_B1_CB, False) for r in rng.random(n_b1_norm)]
    entries.extend((NORMAL_B2, False) for _ in range(n_b2_norm))
    entries.extend((EXC_B1_SHORT, True) for _ in range(n_short))
    entries.extend((EXC_B1_TAIL_BC, True) for _ in range(n_tail_bc))
    entries.extend((EXC_B1_TAIL_CB, True) for _ in range(n_tail_cb))
    entries.extend((EXC_B2, True) for _ in range(n_b2_exc))
    rng.shuffle(entries)
    return tuple(v for v, _ in entries), tuple(v for v, is_exc in entries if is_exc)


fractions = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60)
@given(st.builds(SynthConfig, seed=st.integers(0, 2**32 - 1), n_train_normal=st.integers(0, 300),
                 n_train_exceptional=st.integers(1, 120), branch_probability=fractions,
                 exceptional_branch1_fraction=fractions, short_exceptional_fraction=fractions))
def test_generate_draws_the_columns_of_the_pair_build(config):
    train, test = pair_build_columns(config)
    got = generate(config)
    assert got.train_log.trace_variants == train and got.test_log.trace_variants == test


@pytest.mark.parametrize("seed", [0, 17, 31, 2**32 - 1])
def test_generate_draws_the_default_sized_columns_of_the_pair_build(seed):
    config = SynthConfig(seed=seed)
    train, test = pair_build_columns(config)
    got = generate(config)
    assert got.train_log.trace_variants == train and got.test_log.trace_variants == test


def test_no_exceptional_traces_is_an_error():
    with pytest.raises(ValueError, match="no exceptional traces"):
        generate(SynthConfig(n_train_normal=10, n_train_exceptional=0))


def test_net_accepts_exactly_the_exceptional_variants(synth):
    net = synth.net
    for variant in EXCEPTIONAL_VARIANTS:
        assert compliance(net, variant) == 1.0, variant
    for variant in (NORMAL_B1_BC, NORMAL_B1_CB, NORMAL_B2):
        assert compliance(net, variant) < 1.0, variant
    # prefix of an exceptional run that stops right after the repair:
    # legitimate completion in branch 1 (the short variant), not in branch 2
    assert compliance(net, EXC_B1_SHORT) == 1.0
    assert compliance(net, EXC_B2[:-1]) < 1.0


def test_net_blueprint_is_stable():
    net = exceptional_process_net()
    assert len(net.places) == 14
    assert len(net.transitions) == 14
    assert sum(1 for t in net.transitions if t.label is None) == 3
    assert net.initial_marking == {"p0": 1}
    assert net.final_marking == {"p_end": 1}


def test_custom_counts_follow_the_fractions():
    result = generate(
        SynthConfig(
            n_train_normal=100,
            n_train_exceptional=40,
            branch_probability=0.5,
            exceptional_branch1_fraction=0.5,
            short_exceptional_fraction=0.5,
        )
    )
    counts = Counter(variant_of(t) for t in result.train_log.traces)
    assert counts[NORMAL_B2] == 50
    assert counts[EXC_B1_SHORT] == 10
    assert counts[EXC_B1_TAIL_BC] == 5
    assert counts[EXC_B1_TAIL_CB] == 5
    assert counts[EXC_B2] == 20
    assert len(result.test_log) == 40

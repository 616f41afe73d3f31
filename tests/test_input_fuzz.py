"""Fuzz contract of the input readers.

Bytes mutated from ``write_xes``, ``write_pnml`` and CSV output either give
a valid object or raise ``ValueError``, which the CLI reports as exit 1.
Model files mutated entry by entry (a saved n-gram's JSON, an attention
model's ``.npz`` arrays) make ``suffixbeam predict`` exit 0 or 1, never 2.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam.attention import AttentionConfig, AttentionModel
from suffixbeam.cli import main
from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import EventLog, build_prefix_log, log_from_variants, parse_csv, parse_xes, write_xes
from suffixbeam.petri import PetriNet, parse_pnml, write_pnml
from suffixbeam.predictor import train_ngram
from suffixbeam.synthgen import exceptional_process_net

CSV_SEED = (
    b"case,activity,time\n"
    b"c1,A,2021-01-01T10:00:00Z\n"
    b"c2,X,1609459200000\n"
    b'c1,"B,b",2021-01-01T10:30:00+02:00\n'
)
READERS = {
    "xes": (parse_xes, EventLog),
    "pnml": (parse_pnml, PetriNet),
    "csv": (lambda doc: parse_csv(doc, "case", "activity", "time"), EventLog),
}
TOKENS = [
    b"<", b">", b"/>", b"</", b"&", b"&amp;", b'"', b"=", b",", b"\n", b"\r", b"\x00", b"\xff",
    b"\xc3", b"-", b"9", b"99999999999999999999", b"1e5", b"+24:00", b"<!-- c -->",
    b'<list key="m">', b"</list>", b"<event>", b"</event>", b"<trace>", b"</trace>",
    b'<string key="concept:name" value="X"/>', b'<date key="time:timestamp" value="-1"/>',
    b"<net>", b"</net>", b'<place id="p"/>', b"<text>", b"</text>", b"<text>0</text>",
    b'<toolspecific tool="invisible"/>', b'<place idref="p"><text>2</text></place>',
    b'xmlns="urn:x"', b" id", b" idref",
]
ENCODINGS = [b"UTF-8", b"UTX-8", b"ascii", b"latin-1", b"utf-16", b"utf-32"]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("seeds")
    log = log_from_variants([("A", "B", "C"), ("B",)], case_ids=["x", "y&z"])
    write_xes(log, root / "log.xes")
    write_pnml(exceptional_process_net(), root / "net.pnml")
    return {
        "xes": (root / "log.xes").read_bytes(),
        "pnml": (root / "net.pnml").read_bytes(),
        "csv": CSV_SEED,
    }


edits = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["insert", "delete", "overwrite", "repeat"]),
        st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)),
        st.integers(min_value=1, max_value=60),
    ),
    min_size=1,
    max_size=4,
)


def mutate(doc: bytes, encoding: bytes, steps) -> bytes:
    data = bytearray(doc.replace(b'encoding="UTF-8"', b'encoding="%s"' % encoding))
    for where, op, token, n in steps:
        i = int(where * len(data))
        if op == "insert":
            data[i:i] = token
        elif op == "delete":
            del data[i:i + n]
        elif op == "overwrite":
            data[i:i + len(token)] = token
        else:
            data[i:i] = data[i:i + n]
    return bytes(data)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=250)
@given(encoding=st.sampled_from(ENCODINGS), steps=edits)
def test_mutated_documents_parse_or_raise_value_error(seeds, kind, encoding, steps):
    read, kind_of_result = READERS[kind]
    try:
        result = read(mutate(seeds[kind], encoding, steps))
    except ValueError:
        return
    assert isinstance(result, kind_of_result)
    if isinstance(result, PetriNet):
        compiled = result.compiled  # one packed row per transition, one 32-bit field per place
        assert len(compiled.pre) == len(compiled.post) == len(result.transitions)
        assert all(0 <= row < 1 << 32 * len(result.places) for row in compiled.pre + compiled.post)
    else:
        assert result.traces and all(t.activities for t in result.traces)


# ---------------------------------------------------------------------------
# model files

ODD_VALUES = [
    None, True, False, 0, -1, 2, 3.5, 10**30, float("nan"), float("inf"), float("-inf"),
    "", "A", "3", [], [0], [[0], [1, 2]], {}, {"A": 1},
]
RESHAPES = [
    lambda a: a[..., :-1], lambda a: a.reshape(-1), lambda a: a[None], lambda a: np.zeros(()),
]
DTYPES = [np.int64, np.bool_, np.complex128, np.float32, np.str_, object]
NON_FINITE = [np.nan, np.inf, -np.inf]
model_edits = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.sampled_from(["delete", "replace", "reshape", "non-finite", "retype"]),
        st.integers(min_value=0, max_value=len(ODD_VALUES) - 1),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def model_seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    log = log_from_variants([("A", "B", "C"), ("A", "C"), ("B", "A")])
    vocab = build_vocabulary(log)
    train_ngram(build_prefix_log(log), vocab, order=2).save(root / "seed.json")
    config = AttentionConfig(l_max=4, d_model=4, n_heads=2, n_layers=1, d_ff=4, seed=1)
    AttentionModel(vocab, config).save(root / "seed.npz")
    with np.load(root / "seed.npz") as data:
        arrays = {name: data[name] for name in data.files}
    return root, json.loads((root / "seed.json").read_text()), arrays


def _slots(node):
    """Every (container, key) of a JSON tree, each container before its items."""
    keys = range(len(node)) if isinstance(node, list) else list(node) if isinstance(node, dict) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


def mutate_json(doc, edits):
    """``doc`` with entries deleted or replaced by a value of another type."""
    doc = copy.deepcopy(doc)
    for where, op, pick in edits:
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = slots[int(where * len(slots))]
        if op == "delete":
            del node[key]
        else:
            node[key] = copy.deepcopy(ODD_VALUES[pick])
    return doc


def mutate_arrays(arrays, edits):
    """Model arrays with entries deleted, replaced, reshaped, made non-finite or retyped.

    An edit that lands on ``__meta__`` edits its JSON instead; one that lands
    on an entry no longer a real array replaces it.
    """
    arrays = dict(arrays)
    for where, op, pick in edits:
        if not arrays:
            break
        name = sorted(arrays)[int(where * len(arrays))]
        value = arrays[name]
        if op == "delete":
            del arrays[name]
        elif name == "__meta__":  # a second position, for the entry inside the JSON
            edit = (where * 7 % 1, "delete" if pick % 2 else "replace", pick)
            arrays[name] = np.array(json.dumps(mutate_json(json.loads(str(value)), [edit])))
        elif op == "replace" or value.dtype.kind not in "biuf" or 0 in (value.ndim, value.size):
            arrays[name] = np.array(ODD_VALUES[pick], dtype=object)
        elif op == "reshape":
            arrays[name] = RESHAPES[pick % len(RESHAPES)](value)
        elif op == "non-finite":
            value = value.astype(float)
            value.flat[pick % value.size] = NON_FINITE[pick % len(NON_FINITE)]
            arrays[name] = value
        else:
            with np.errstate(invalid="ignore"):  # a NaN cast to int is just another bad entry
                arrays[name] = value.astype(DTYPES[pick % len(DTYPES)])
    return arrays


def predict_exit_code(path) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["predict", "--model", str(path), "--prefix", "A,B", "--algorithm", "baseline"])
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == out.getvalue().startswith("suffix:"), err.getvalue()
    return code


def test_unmutated_model_files_predict(model_seeds):
    root, _, _ = model_seeds
    assert predict_exit_code(root / "seed.json") == predict_exit_code(root / "seed.npz") == 0


@settings(max_examples=60)
@given(edits=model_edits)
def test_mutated_ngram_files_exit_0_or_1(model_seeds, edits):
    root, payload, _ = model_seeds
    path = root / "mutated.json"
    path.write_text(json.dumps(mutate_json(payload, edits)))
    predict_exit_code(path)


@settings(max_examples=60)
@given(edits=model_edits)
def test_mutated_attention_files_exit_0_or_1(model_seeds, edits):
    root, _, arrays = model_seeds
    path = root / "mutated.npz"
    np.savez(path, **mutate_arrays(arrays, edits))
    predict_exit_code(path)

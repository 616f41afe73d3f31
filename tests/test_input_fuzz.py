"""Fuzz contract of the input readers.

Bytes mutated from ``write_xes``, ``write_pnml`` and CSV output either give
a valid object or raise ``ValueError``, which the CLI reports as exit 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam.eventlog import EventLog, log_from_variants, parse_csv, parse_xes, write_xes
from suffixbeam.petri import PetriNet, parse_pnml, write_pnml
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
        assert result.compiled.in_w.shape == (len(result.transitions), len(result.places))
    else:
        assert result.traces and all(t.events for t in result.traces)

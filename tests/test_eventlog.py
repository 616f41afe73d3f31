import dataclasses
import io
import pickle
import re
from collections import Counter
from datetime import datetime, timedelta, timezone
from itertools import accumulate, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import eventlog
from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import (
    END,
    EventLog,
    PrefixLog,
    Trace,
    build_prefix_log,
    log_from_variants,
    parse_csv,
    parse_xes,
    prefix,
    suffix,
    variant_of,
    write_xes,
)
from suffixbeam.predictor import train_ngram

from logs import made_columns, made_traces, repetitive_variants

UTC = timezone.utc


EPOCH = datetime(1970, 1, 1, tzinfo=UTC)


def at(*minutes):
    return tuple(datetime(2021, 3, 4, tzinfo=UTC) + timedelta(minutes=m) for m in minutes)


def in_time_order(events):
    """Reference: the (label, epoch-ms) events of one case as its two columns, stably sorted by time."""
    ordered = sorted(events, key=lambda e: e[1])  # sorted() is stable
    labels = tuple(label for label, _ in ordered)
    return labels, tuple(EPOCH + timedelta(milliseconds=ms) for _, ms in ordered)


def columns(log):
    return [(t.case_id, t.activities, t.timestamps) for t in log.traces]


# few distinct instants, so that ties are common
MILLIS = st.sampled_from([0, 1000, 2000])


# ---------------------------------------------------------------------------
# construction / validation


def test_event_requires_activity_and_case():
    with pytest.raises(ValueError, match="trace 'c1' has an event with empty activity label"):
        Trace(case_id="c1", activities=("A", ""), timestamps=at(0, 1))
    with pytest.raises(ValueError, match="empty case id"):
        Trace(case_id="", activities=("A",), timestamps=at(0))


def test_trace_rejects_empty_and_foreign_events():
    # the case id is held once per trace, so every event belongs to it
    with pytest.raises(ValueError, match="trace 'c1' has no events"):
        Trace(case_id="c1", activities=(), timestamps=())
    assert Trace(case_id="c1", activities=("A",), timestamps=at(0)).case_id == "c1"


def test_trace_rejects_a_case_id_or_label_that_is_not_a_string():
    with pytest.raises(ValueError, match="trace 7 has a case id that is not a string"):
        Trace(case_id=7, activities=("A",), timestamps=at(0))
    with pytest.raises(ValueError, match="trace 'c1' has an event whose activity label 3 is not a string"):
        Trace(case_id="c1", activities=("A", 3), timestamps=at(0, 1))
    # through the log builder: a ValueError at once, not a TypeError from a later sort or write
    with pytest.raises(ValueError, match="trace 'case_0001' has an event whose activity label 3 is not"):
        log_from_variants([("A", 3)])
    with pytest.raises(ValueError, match="trace 7 has a case id that is not a string"):
        log_from_variants([("A", "B")], case_ids=[7])
    with pytest.raises(ValueError, match=re.escape("trace 'case_0002' has an event whose activity label ['B']")):
        log_from_variants([("A",), ("A", ["B"])])  # an unhashable label


def test_trace_validates_its_columns():
    with pytest.raises(TypeError, match="activities and timestamps must be tuples"):
        Trace(case_id="c1", activities=["A"], timestamps=at(0))  # a list variant is no dict key
    with pytest.raises(ValueError, match="trace 'c1' has 2 activities but 1 timestamps"):
        Trace(case_id="c1", activities=("A", "B"), timestamps=at(0))
    with pytest.raises(ValueError, match="trace 'c1' has 1 activities but 2 timestamps"):
        Trace(case_id="c1", activities=("A",), timestamps=at(0, 1))
    assert len(Trace(case_id="c1", activities=("A", "B"), timestamps=at(0, 1))) == 2


@settings(max_examples=100)
@given(repetitive_variants())
def test_log_counts_its_variants_and_their_labels(variants):
    log = log_from_variants(variants)
    want = Counter()
    for trace in log.traces:
        want[variant_of(trace)] += 1
    assert list(log.variants.items()) == list(want.items())  # first-occurrence order
    assert log.alphabet == frozenset(label for trace in log.traces for label in trace.activities)
    by_hand = EventLog(traces=log.traces)
    assert list(by_hand.variants.items()) == list(want.items())
    assert by_hand == log
    assert EventLog(traces=log.traces, alphabet=frozenset({"Z"})).alphabet == {"Z"}  # as given
    assert EventLog(traces=()).variants == {} and EventLog(traces=()).alphabet == frozenset()


def test_log_alphabet_and_reserved_label():
    log = log_from_variants([("A", "B"), ("B", "C")])
    assert log.alphabet == frozenset({"A", "B", "C"})
    assert len(log) == 2
    with pytest.raises(ValueError, match="reserved completion label"):
        log_from_variants([("A", END)])


def test_every_log_rejects_the_reserved_label():
    with pytest.raises(ValueError, match="reserved completion label"):
        EventLog((Trace("c", (END,), at(0)),))
    with pytest.raises(ValueError, match="reserved completion label"):
        EventLog((Trace("c", ("A",), at(0)),), alphabet=frozenset({"A", END}))


@pytest.mark.parametrize("start", [
    datetime(9999, 12, 31, 23, 59, tzinfo=UTC),  # the second minute passes datetime.max
    datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))),  # before datetime.min in UTC
])
def test_a_start_whose_minutes_leave_the_datetime_range_is_a_value_error(start):
    with pytest.raises(ValueError, match="leave the datetime range"):
        log_from_variants([("A", "B")], start=start)


# ---------------------------------------------------------------------------
# variants and slicing


def test_variant_of():
    t = Trace(case_id="c1", activities=("A", "B", "A"), timestamps=at(0, 0, 0))
    assert variant_of(t) == ("A", "B", "A")


def test_prefix_bounds():
    v = ("A", "B", "C")
    assert prefix(v, 1) == ("A",)
    assert prefix(v, 3) == v
    for k in (0, 4, -1):
        with pytest.raises(IndexError):
            prefix(v, k)


def test_suffix_bounds():
    v = ("A", "B", "C")
    assert suffix(v, 1) == ("B", "C")
    assert suffix(v, 2) == ("C",)
    for k in (0, 3, 4):
        with pytest.raises(IndexError):
            suffix(v, k)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from("ABCD"), min_size=2, max_size=12),
    st.data(),
)
def test_prefix_plus_suffix_reconstructs(labels, data):
    v = tuple(labels)
    k = data.draw(st.integers(min_value=1, max_value=len(v) - 1))
    assert prefix(v, k) + suffix(v, k) == v


# ---------------------------------------------------------------------------
# prefix log


def test_build_prefix_log_with_completion():
    log = log_from_variants([("A", "B", "C")])
    plog = build_prefix_log(log)
    assert len(plog) == 3
    assert plog.entries[0] == (("A",), "B")
    assert plog.entries[1] == (("A", "B"), "C")
    assert plog.entries[2] == (("A", "B", "C"), END)


def test_build_prefix_log_multiplicities():
    log = log_from_variants([("A", "B"), ("A", "B")])
    plog = build_prefix_log(log)
    assert plog.entries.count((("A",), "B")) == 2


def test_build_prefix_log_single_event_trace():
    log = log_from_variants([("A",)])
    assert build_prefix_log(log).entries == ((("A",), END),)


@settings(max_examples=100)
@given(repetitive_variants())
def test_build_prefix_log_equals_per_trace_slicing(variants):
    log = log_from_variants(variants)
    want = tuple(
        (labels[:k], labels[k])
        for labels in (variant_of(trace) + (END,) for trace in log.traces)
        for k in range(1, len(labels))
    )
    assert build_prefix_log(log).entries == want


@settings(max_examples=100)
@given(repetitive_variants())
def test_prefix_log_counts_equal_a_count_of_its_entries(variants):
    plog = build_prefix_log(log_from_variants(variants))
    assert list(plog.counts.items()) == list(Counter(plog.entries).items())  # same order too
    by_hand = PrefixLog(entries=plog.entries)
    assert list(by_hand.counts.items()) == list(plog.counts.items())
    assert by_hand == plog


def per_trace_entries(variants):
    """Reference: a prefix log's entries as an eager build lays them out, trace by trace."""
    entries = []
    for variant in variants:
        labels = tuple(variant) + (END,)
        entries.extend((labels[:k], labels[k]) for k in range(1, len(labels)))
    return entries


def ngram_rows(model):
    return list(model.counts.items())


@settings(max_examples=100)
@given(repetitive_variants())
def test_lazy_prefix_log_entries_equal_the_eager_per_trace_list(variants):
    want = per_trace_entries(variants)
    log = log_from_variants(variants)
    vocab = build_vocabulary(log)
    with made_columns() as made:
        plog = build_prefix_log(log)
        assert len(plog) == len(want)  # read from the counts
        assert list(plog.counts.items()) == list(Counter(want).items())
        before = train_ngram(plog, vocab, order=2, alpha=0.5)
    assert made == []  # neither len, the counts nor the n-gram made the entries
    entries = plog.entries
    assert type(entries) is tuple and len(entries) == len(want)
    assert all(got == pair for got, pair in zip(entries, want))  # item for item
    assert plog.entries is entries  # kept: a second read makes none
    assert len(plog) == len(want) and list(plog.counts.items()) == list(Counter(want).items())
    assert ngram_rows(train_ngram(plog, vocab, order=2, alpha=0.5)) == ngram_rows(before)
    eager = PrefixLog(entries=tuple(want))
    assert eager == plog and len(eager) == len(plog) and list(eager.counts.items()) == list(plog.counts.items())


def test_prefix_log_counts_runs_with_their_multiplicities():
    ab, b = (("A",), "B"), (("A", "B"), END)
    plog = PrefixLog(entries=(ab, b, ab, b, ab), runs=[((ab, b), 2), ((ab,), 1)])
    assert plog.counts == {ab: 3, b: 2}
    assert PrefixLog(entries=()).counts == {}


def test_build_prefix_log_empty_log():
    empty = EventLog(traces=(), alphabet=frozenset())
    with pytest.raises(ValueError, match="empty event log"):
        build_prefix_log(empty)


# ---------------------------------------------------------------------------
# XES

XES_MINIMAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<log>
  <trace>
    <string key="concept:name" value="t1"/>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2021-01-01T10:00:01Z"/>
    </event>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-01-01T10:00:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_sorts_by_timestamp():
    log = parse_xes(XES_MINIMAL)
    assert len(log) == 1
    assert log.traces[0].case_id == "t1"
    assert variant_of(log.traces[0]) == ("A", "B")


def test_parse_xes_stable_on_ties_and_missing_timestamps():
    doc = b"""<log><trace>
      <event><string key="concept:name" value="A"/>
             <date key="time:timestamp" value="2021-01-01T10:00:00Z"/></event>
      <event><string key="concept:name" value="B"/></event>
      <event><string key="concept:name" value="C"/>
             <date key="time:timestamp" value="2021-01-01T10:00:00Z"/></event>
    </trace></log>"""
    log = parse_xes(doc)
    # B inherits A's position; the tie keeps document order
    assert variant_of(log.traces[0]) == ("A", "B", "C")


def test_parse_xes_default_case_id_and_epoch_millis():
    doc = b"""<log><trace>
      <event><string key="concept:name" value="A"/>
             <date key="time:timestamp" value="1609459200000"/></event>
    </trace></log>"""
    log = parse_xes(doc)
    assert log.traces[0].case_id == "trace_1"
    assert log.traces[0].timestamps == (datetime(2021, 1, 1, tzinfo=UTC),)


def test_parse_xes_missing_activity():
    doc = b"""<log><trace><string key="concept:name" value="bad"/>
      <event><date key="time:timestamp" value="2021-01-01T10:00:00Z"/></event>
    </trace></log>"""
    with pytest.raises(ValueError, match="event 1 of trace 'bad' has no concept:name"):
        parse_xes(doc)


def test_parse_xes_malformed_and_empty():
    with pytest.raises(ValueError, match="malformed XES XML at line"):
        parse_xes(b"<log><trace></log>")
    with pytest.raises(ValueError, match="no traces"):
        parse_xes(b"<log></log>")


def test_parse_xes_reads_only_direct_children_of_a_trace():
    doc = b"""<log><trace>
      <string key="concept:name" value="c1"/>
      <list key="meta"><string key="concept:name" value="LEAK"/></list>
      <list key="more"><event><string key="concept:name" value="Nested"/></event></list>
      <event><string key="concept:name" value="A"/>
             <list key="l"><string key="concept:name" value="Inner"/></list></event>
    </trace></log>"""
    trace = parse_xes(doc).traces[0]
    assert trace.case_id == "c1"
    assert variant_of(trace) == ("A",)


@settings(max_examples=100)
@given(st.lists(st.lists(st.tuples(st.sampled_from("ABC"), st.none() | MILLIS), min_size=1, max_size=8),
                min_size=1, max_size=4))
def test_parse_xes_orders_events_like_a_stable_sort(traces):
    doc = "<log>"
    want = []
    for i, events in enumerate(traces):
        doc += f'<trace><string key="concept:name" value="t{i}"/>'
        timed, ms = [], 0  # an event without a timestamp keeps the previous instant
        for label, stamp in events:
            doc += f'<event><string key="concept:name" value="{label}"/>'
            if stamp is not None:
                doc += f'<date key="time:timestamp" value="{stamp}"/>'
                ms = stamp
            doc += "</event>"
            timed.append((label, ms))
        doc += "</trace>"
        want.append((f"t{i}", *in_time_order(timed)))
    doc += "</log>"
    assert columns(parse_xes(doc.encode())) == want


@pytest.mark.parametrize(
    "millis",
    ["99999999999999999999", "-99999999999999999", pytest.param("9" * 400, id="400-digits")],
)
def test_out_of_range_epoch_millis_name_their_place(millis):
    with pytest.raises(ValueError, match=f"timestamp '{millis}' at row 2"):
        parse_csv(f"case,activity,time\nc1,A,{millis}\n".encode(), "case", "activity", "time")
    doc = f"""<log><trace><string key="concept:name" value="t1"/>
      <event><string key="concept:name" value="A"/>
             <date key="time:timestamp" value="{millis}"/></event>
    </trace></log>""".encode()
    with pytest.raises(ValueError, match=f"timestamp '{millis}' at trace 't1' event 1"):
        parse_xes(doc)


@pytest.mark.parametrize("text", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_instants_outside_the_utc_range_name_their_place(text):
    with pytest.raises(ValueError, match=re.escape(f"timestamp '{text}' at row 2 is outside the UTC date range")):
        parse_csv(f"case,activity,time\nc1,A,{text}\n".encode(), "case", "activity", "time")
    doc = f"""<log><trace><string key="concept:name" value="t1"/>
      <event><string key="concept:name" value="A"/>
             <date key="time:timestamp" value="{text}"/></event>
    </trace></log>""".encode()
    with pytest.raises(ValueError, match=re.escape(f"timestamp '{text}' at trace 't1' event 1 is outside")):
        parse_xes(doc)


def test_parsed_timestamps_are_utc():
    raw = b"case,activity,time\nc1,A,2021-01-01T10:00:00+02:00\nc1,B,0001-01-01T01:30:00+01:00\n"
    log = parse_csv(raw, "case", "activity", "time")
    stamps = log.traces[0].timestamps
    assert stamps == (datetime(1, 1, 1, 0, 30, tzinfo=UTC), datetime(2021, 1, 1, 8, tzinfo=UTC))
    assert all(ts.tzinfo is UTC for ts in stamps)


def test_parse_xes_unknown_encoding_is_bad_input():
    doc = XES_MINIMAL.replace(b'encoding="UTF-8"', b'encoding="UTX-8"')
    with pytest.raises(ValueError, match="XES XML: unknown encoding: UTX-8"):
        parse_xes(doc)


def test_xes_round_trip(tmp_path):
    log = log_from_variants([("A", "B", "C"), ("B",), ("A", "C")], case_ids=["x", "y", "z"])
    path = tmp_path / "out.xes"
    write_xes(log, path)
    back = parse_xes(str(path))
    assert [t.case_id for t in back.traces] == ["x", "y", "z"]
    assert [variant_of(t) for t in back.traces] == [variant_of(t) for t in log.traces]
    assert [t.timestamps for t in back.traces] == [t.timestamps for t in log.traces]
    # determinism: a second write produces identical bytes
    path2 = tmp_path / "out2.xes"
    write_xes(log, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_write_xes_escapes_markup(tmp_path):
    log = log_from_variants([("a<b&c>d\"e",)], case_ids=["q&a"])
    path = tmp_path / "esc.xes"
    write_xes(log, path)
    back = parse_xes(str(path))
    assert back.traces[0].case_id == "q&a"
    assert variant_of(back.traces[0]) == ("a<b&c>d\"e",)


# Any character XML 1.0 can hold: tab, newline, carriage return and all from
# the space up, but no surrogate and neither U+FFFE nor U+FFFF.
XML_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: c in "\t\n\r" or " " <= c < "\ufffe"
                                                        or c > "\uffff"),
    min_size=1, max_size=6,
).filter(lambda text: text != END)


@settings(max_examples=100)
@given(st.lists(st.tuples(XML_TEXT, st.lists(XML_TEXT, min_size=1, max_size=4)), min_size=1, max_size=4))
def test_write_xes_round_trips_every_text_xml_can_hold(tmp_path_factory, cases):
    log = log_from_variants([tuple(labels) for _, labels in cases], case_ids=[case_id for case_id, _ in cases])
    path = tmp_path_factory.getbasetemp() / "round_trip.xes"
    write_xes(log, path)
    back = parse_xes(path)
    assert [(t.case_id, t.activities, t.timestamps) for t in back.traces] == [
        (t.case_id, t.activities, t.timestamps) for t in log.traces
    ]


@pytest.mark.parametrize("char", ["\x01", "\x0b", "\x1f", "\ufffe"])
def test_write_xes_refuses_a_character_xml_cannot_hold(tmp_path, char):
    path = tmp_path / "bad.xes"
    with pytest.raises(ValueError, match="an XML file cannot hold"):
        write_xes(log_from_variants([("A", f"B{char}")]), path)
    with pytest.raises(ValueError, match="an XML file cannot hold"):
        write_xes(log_from_variants([("A",)], case_ids=[f"c{char}"]), path)
    assert not path.exists()  # no half-written file


# ---------------------------------------------------------------------------
# CSV

CSV_BASIC = """case,activity,time
c1,A,2021-01-01T10:00:00Z
c2,X,2021-01-01T09:00:00Z
c1,B,2021-01-01T10:30:00Z
c1,C,2021-01-01T10:15:00Z
"""


def test_parse_csv_groups_and_sorts():
    log = parse_csv(io.StringIO(CSV_BASIC), "case", "activity", "time")
    assert [t.case_id for t in log.traces] == ["c1", "c2"]  # first-appearance order
    assert variant_of(log.traces[0]) == ("A", "C", "B")


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3"]), st.sampled_from("ABC"), MILLIS),
                min_size=1, max_size=20))
def test_parse_csv_groups_and_orders_rows_like_a_stable_sort(rows):
    raw = "case,activity,time\n" + "".join(f"{case},{label},{ms}\n" for case, label, ms in rows)
    cases = list(dict.fromkeys(case for case, _, _ in rows))  # by first appearance
    want = [(case, *in_time_order([(label, ms) for c, label, ms in rows if c == case])) for case in cases]
    assert columns(parse_csv(raw.encode(), "case", "activity", "time")) == want


def test_parse_csv_from_bytes_and_epoch():
    raw = b"case,activity,time\nc1,A,1609459200000\n"
    log = parse_csv(raw, "case", "activity", "time")
    assert log.traces[0].timestamps == (datetime(2021, 1, 1, tzinfo=UTC),)


def test_parse_csv_naive_timestamp_is_utc():
    raw = b"case,activity,time\nc1,A,2021-01-01T10:00:00\n"
    log = parse_csv(raw, "case", "activity", "time")
    assert log.traces[0].timestamps == (datetime(2021, 1, 1, 10, tzinfo=UTC),)


def test_parse_csv_closes_a_path_it_opens(tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    path.write_text(CSV_BASIC, encoding="utf-8")
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(eventlog, "open", tracking_open, raising=False)
    columns = ("case", "activity", "time")
    assert parse_csv(path, *columns) == parse_csv(io.StringIO(CSV_BASIC), *columns)
    with pytest.raises(ValueError, match="missing mapped column 'who'"):
        parse_csv(str(path), "who", "activity", "time")
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)


def test_parse_csv_errors():
    with pytest.raises(ValueError, match="missing mapped column 'who'"):
        parse_csv(io.StringIO(CSV_BASIC), "who", "activity", "time")
    with pytest.raises(ValueError, match="row 2: empty case id"):
        parse_csv(b"case,activity,time\n,A,2021-01-01T10:00:00Z\n", "case", "activity", "time")
    with pytest.raises(ValueError, match="row 3: empty activity"):
        parse_csv(
            b"case,activity,time\nc1,A,2021-01-01T10:00:00Z\nc1,,2021-01-01T11:00:00Z\n",
            "case",
            "activity",
            "time",
        )
    with pytest.raises(ValueError, match="unparsable timestamp 'soon' at row 2"):
        parse_csv(b"case,activity,time\nc1,A,soon\n", "case", "activity", "time")
    with pytest.raises(ValueError, match="no event rows"):
        parse_csv(b"case,activity,time\n", "case", "activity", "time")
    with pytest.raises(ValueError, match="no header row"):
        parse_csv(b"", "case", "activity", "time")


def test_parse_csv_reader_errors_are_bad_input():
    raw = b"case,activity,time\nc1,A,1\nc1," + b"B" * 200_000 + b",2\n"
    with pytest.raises(ValueError, match="malformed CSV after line 2: field larger than field limit"):
        parse_csv(raw, "case", "activity", "time")


def test_parse_csv_reads_bytes_as_it_reads_a_path(tmp_path):
    raw = b"case,activity,time\rc1,A,1\rc1,B,2\r"  # old Mac line ends
    path = tmp_path / "cr.csv"
    path.write_bytes(raw)
    columns = ("case", "activity", "time")
    log = parse_csv(raw, *columns)
    assert log == parse_csv(path, *columns)
    assert variant_of(log.traces[0]) == ("A", "B")


# ---------------------------------------------------------------------------
# synthetic construction helper


def test_log_from_variants_layout():
    log = log_from_variants([("A", "B"), ("C",)])
    assert [t.case_id for t in log.traces] == ["case_0001", "case_0002"]
    t0, t1 = log.traces
    assert t0.timestamps == (datetime(2020, 1, 1, 0, 0, tzinfo=UTC), datetime(2020, 1, 1, 0, 1, tzinfo=UTC))
    assert t1.timestamps == (datetime(2020, 1, 1, 0, 1, 0, tzinfo=UTC),)


@pytest.mark.parametrize("n_ids", [1, 3])
def test_log_from_variants_needs_one_case_id_per_variant(n_ids):
    ids = [f"c{i}" for i in range(n_ids)]
    with pytest.raises(ValueError, match=f"{n_ids} case ids given for 2 variants"):
        log_from_variants([("A", "B"), ("C",)], case_ids=ids)


def test_log_from_variants_takes_a_generator():
    log = log_from_variants(v for v in [("A", "B"), ("C",)])
    assert columns(log) == columns(log_from_variants([("A", "B"), ("C",)]))


@settings(max_examples=100)
@given(
    repetitive_variants(),
    st.datetimes(
        min_value=datetime(1990, 1, 1),
        max_value=datetime(2100, 1, 1),
        timezones=st.sampled_from([None, UTC, timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30))]),
    ),
)
def test_log_from_variants_equals_per_event_timestamps(variants, start):
    case_ids = [f"id-{len(variants) - i}" for i in range(len(variants))]
    log = log_from_variants(variants, case_ids=case_ids, start=start)
    assert [(t.case_id, variant_of(t)) for t in log.traces] == list(zip(case_ids, variants))
    for i, trace in enumerate(log.traces):
        base = start.timestamp() + 60.0 * i
        want = [datetime.fromtimestamp(base + 60.0 * j, tz=UTC) for j in range(len(trace))]
        # equal instants in the same zone, to the microsecond; a naive start is local time
        assert [ts.isoformat() for ts in trace.timestamps] == [ts.isoformat() for ts in want]
        assert all(ts.tzinfo is UTC for ts in trace.timestamps)


@settings(max_examples=100)
@given(repetitive_variants(), st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1),
                                           timezones=st.sampled_from([UTC, timezone(timedelta(hours=-3))])))
def test_the_minute_table_is_made_with_the_traces_as_an_eager_table_was(variants, start):
    with made_columns() as made:
        log = log_from_variants(variants, start=start)
        assert made == []
        traces = log.traces
        assert made == ["minute table"]
    # reference: the table log_from_variants built at the call before, every trace a slice of it
    n_minutes = len(variants) + max(map(len, variants))
    table = tuple(accumulate(repeat(timedelta(minutes=1), n_minutes - 1), initial=start.astimezone(UTC)))
    assert [t.timestamps for t in traces] == [table[i:i + len(v)] for i, v in enumerate(variants)]
    stamps = [ts for t in traces for ts in t.timestamps]
    assert len(set(map(id, stamps))) == len(set(stamps))  # one object per instant


def test_a_minute_table_may_end_on_the_last_instant_of_the_datetime_range():
    last = datetime.max.replace(tzinfo=UTC)
    variants = [("A", "B"), ("C",), ("A", "B")]  # the last row's last event is the fourth minute
    log = log_from_variants(variants, start=last - timedelta(minutes=3))
    assert log.traces[2].timestamps == (last - timedelta(minutes=1), last)
    with pytest.raises(ValueError, match="^4 minutes from .* leave the datetime range$"):
        log_from_variants(variants, start=last - timedelta(minutes=3) + timedelta(microseconds=1))
    # a longer row that ends before the last one does not lengthen the table
    log = log_from_variants([("A", "B", "C"), ("D",), ("E", "F")], start=last - timedelta(minutes=3))
    assert log.traces[0].timestamps[-1] == last - timedelta(minutes=1)
    assert log.traces[2].timestamps[-1] == last
    assert log_from_variants([("A", "B")], start=last - timedelta(minutes=1)).traces[0].timestamps[-1] == last
    assert len(log_from_variants([], start=last)) == 0  # an empty table still holds its start


def per_trace_log(variants, case_ids=None):
    """Reference: log_from_variants as one public Trace(...) per trace, each with its own timestamps."""
    first = datetime(2020, 1, 1, tzinfo=UTC)
    case_ids = case_ids or ["case_%04d" % i for i in range(1, len(variants) + 1)]
    return EventLog(tuple(
        Trace(case, tuple(labels), tuple(first + timedelta(minutes=i + j) for j in range(len(labels))))
        for i, (case, labels) in enumerate(zip(case_ids, variants))
    ))


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100)
@given(repetitive_variants(), st.booleans(), st.data())
def test_log_from_variants_builds_each_trace_as_trace_would(variants, named, data):
    case_ids = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=len(variants), max_size=len(variants)))
    case_ids = case_ids if named else None
    got, want = log_from_variants(variants, case_ids), per_trace_log(variants, case_ids)
    assert len(got.traces) == len(want.traces) == len(variants)
    for trace, ref in zip(got.traces, want.traces):
        assert trace == ref and type(trace) is Trace
        assert hash(trace) == hash(ref) and len(trace) == len(ref) and repr(trace) == repr(ref)
        for name in ("case_id", "activities", "timestamps"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, getattr(ref, name))
    assert got == want and list(got.variants.items()) == list(want.variants.items())


@st.composite
def faulty_variants(draw):
    """Variants and case ids with a few bad labels and ids among repeats: (variants, case_ids or None)."""
    pool = draw(st.lists(st.lists(st.sampled_from(["A", "B", "", 3, ["x"]]), min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=3))
    variants = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))]
    ids = st.sampled_from(["a", "b", "", 7])
    case_ids = draw(st.none() | st.lists(ids, min_size=len(variants), max_size=len(variants)))
    return variants, case_ids


@settings(max_examples=200)
@given(faulty_variants())
def test_log_from_variants_raises_what_a_per_trace_build_raises(drawn):
    got, want = outcome(log_from_variants, *drawn), outcome(per_trace_log, *drawn)
    assert got == want  # the same message, naming the same case, or the same log


@settings(max_examples=100)
@given(repetitive_variants(), st.booleans(), st.data())
def test_a_log_from_variants_makes_its_traces_on_the_first_read_as_trace_would(variants, named, data):
    case_ids = data.draw(st.lists(st.sampled_from(["a", "b", "case_0001"]), min_size=len(variants),
                                  max_size=len(variants))) if named else None
    with made_traces() as made:
        got = log_from_variants(variants, case_ids)
        # what works on labels alone reads the variant column and makes no trace
        assert got.trace_variants == tuple(variants) and len(got) == len(variants)
        assert list(got.variants.items()) == list(Counter(variants).items())
        assert got.alphabet == frozenset(label for v in variants for label in v)
        build_prefix_log(got)
        assert made == []
        traces = got.traces
        assert made == list(case_ids or ["case_%04d" % i for i in range(1, len(variants) + 1)])
        assert got.traces is traces  # kept: a second read makes none
        assert len(made) == len(variants)
    want = per_trace_log(variants, case_ids)
    assert columns(got) == columns(want)
    assert all(type(trace) is Trace for trace in traces)
    stamps = [ts for trace in traces for ts in trace.timestamps]
    assert len(set(map(id, stamps))) == len(set(stamps))  # one object per instant
    assert got == want and want == got and hash(got) == hash(want) and repr(got) == repr(want)
    assert EventLog(traces=traces) == got and got == EventLog(traces=traces)
    assert list(got.variants.items()) == list(want.variants.items()) and got.alphabet == want.alphabet
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.traces = traces


def test_a_log_from_variants_pickles_before_and_after_its_traces_are_made():
    log = log_from_variants([("A", "B"), ("C",), ("A", "B")], case_ids=["x", "y", "z"])
    with made_traces() as made:
        copy = pickle.loads(pickle.dumps(log))
        assert made == []
    assert copy == log and columns(copy) == columns(log)
    assert pickle.loads(pickle.dumps(log)) == log


@settings(max_examples=50)
@given(repetitive_variants(), st.booleans(), st.data())
def test_select_picks_the_same_trace_objects_when_they_are_read(variants, built, data):
    log = log_from_variants(variants)
    if built:
        log = EventLog(log.traces)
    rows = data.draw(st.lists(st.integers(0, len(variants) - 1), max_size=len(variants)))
    with made_traces() as made:
        picked = log.select(iter(rows))
        assert picked.trace_variants == tuple(variants[i] for i in rows) and len(picked) == len(rows)
        assert made == []
        assert [id(t) for t in picked.traces] == [id(log.traces[i]) for i in rows]
    assert picked == EventLog(tuple(log.traces[i] for i in rows))


# one kind of bad input each: (variants, case ids or None)
BAD_INPUTS = {
    "empty-label": ([("A",), ("A", "")], None),
    "numeric-label": ([("A",), ("B", 3)], ["c1", "c2"]),
    "unhashable-label": ([("A",), ("A", ["x"])], None),
    "reserved-label": ([("A",), ("A", END)], None),
    "empty-case-id": ([("A",), ("B",), ("A",)], ["c1", "c2", ""]),
    "numeric-case-id": ([("A",), ("A",)], ["c1", 7]),
    "no-events": ([("A",), ()], None),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_at_the_call_as_a_per_trace_build_does(case):
    variants, case_ids = BAD_INPUTS[case]
    with pytest.raises(ValueError) as want:
        per_trace_log(variants, case_ids)
    with made_traces() as made, pytest.raises(ValueError) as got:
        log_from_variants(variants, case_ids)
    assert made == []  # raised before any trace was made
    assert str(got.value) == str(want.value)


def test_a_case_id_count_mismatch_raises_before_any_trace_is_made():
    with made_traces() as made, pytest.raises(ValueError, match="1 case ids given for 2 variants"):
        log_from_variants([("A",), ("B",)], case_ids=["c1"])
    assert made == []


def test_a_log_from_variants_counts_its_rows_once(monkeypatch):
    counted = []

    def counter(*args):
        counted.append(args)
        return Counter(*args)

    monkeypatch.setattr(eventlog, "Counter", counter)
    variants = [("A", "B"), ("C",), ("A", "B"), ("C",), ("D",)]
    log = log_from_variants(variants, case_ids=["c1", "c2", "c3", "c4", "c5"])
    assert len(counted) == 1
    assert log.variants == Counter(variants) and list(log.variants) == [("A", "B"), ("C",), ("D",)]
    assert log == EventLog(log.traces)


def test_a_log_from_variants_hashes_each_row_once():
    hashed = []

    class Label(str):
        def __hash__(self):
            hashed.append(self)
            return str.__hash__(self)

    def hashes(n_rows):
        hashed.clear()
        log_from_variants([(Label("A"), "B")] * n_rows)
        return len(hashed)

    assert hashes(30) - hashes(20) == 10


def test_a_repeated_variant_still_checks_its_case_id():
    with pytest.raises(ValueError, match="trace with empty case id"):
        log_from_variants([("A", "B"), ("C",), ("A", "B")], case_ids=["c1", "c2", ""])
    with pytest.raises(ValueError, match="trace 7 has a case id that is not a string"):
        log_from_variants([("A", "B"), ("A", "B")], case_ids=["c1", 7])


def test_an_empty_label_names_the_first_case_that_holds_it():
    variants = [("A",), ("B",), ("A", ""), ("B", ""), ("A", "")]
    with pytest.raises(ValueError, match="trace 'case_0003' has an event with empty activity label"):
        log_from_variants(variants)
    with pytest.raises(ValueError, match="trace 'c2' has an event with empty activity label"):
        log_from_variants([("A",), ("A", "")], case_ids=["c1", "c2"])

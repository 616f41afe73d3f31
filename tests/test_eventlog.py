import io
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffixbeam import eventlog
from suffixbeam.eventlog import (
    END,
    Event,
    EventLog,
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

from logs import repetitive_variants

UTC = timezone.utc


def ev(activity, case="c1", ts=None):
    return Event(activity=activity, case_id=case, timestamp=ts or datetime(2021, 3, 4, tzinfo=UTC))


# ---------------------------------------------------------------------------
# construction / validation


def test_event_requires_activity_and_case():
    with pytest.raises(ValueError, match="empty activity"):
        Event(activity="", case_id="c", timestamp=datetime(2021, 1, 1, tzinfo=UTC))
    with pytest.raises(ValueError, match="empty case id"):
        Event(activity="A", case_id="", timestamp=datetime(2021, 1, 1, tzinfo=UTC))


def test_trace_rejects_empty_and_foreign_events():
    with pytest.raises(ValueError, match="no events"):
        Trace(case_id="c1", events=())
    with pytest.raises(ValueError, match="contains event of case"):
        Trace(case_id="c1", events=(ev("A", case="c2"),))


def test_log_alphabet_and_reserved_label():
    log = log_from_variants([("A", "B"), ("B", "C")])
    assert log.alphabet == frozenset({"A", "B", "C"})
    assert len(log) == 2
    with pytest.raises(ValueError, match="reserved completion label"):
        log_from_variants([("A", END)])


# ---------------------------------------------------------------------------
# variants and slicing


def test_variant_of():
    t = Trace(case_id="c1", events=(ev("A"), ev("B"), ev("A")))
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
    assert log.traces[0].events[0].timestamp == datetime(2021, 1, 1, tzinfo=UTC)


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
    assert trace.events[0].attrs == {"l": None}


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
    stamps = [ev.timestamp for ev in log.traces[0].events]
    assert stamps == [datetime(1, 1, 1, 0, 30, tzinfo=UTC), datetime(2021, 1, 1, 8, tzinfo=UTC)]
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
    assert [
        [e.timestamp for e in t.events] for t in back.traces
    ] == [[e.timestamp for e in t.events] for t in log.traces]
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


def test_parse_csv_from_bytes_and_epoch():
    raw = b"case,activity,time\nc1,A,1609459200000\n"
    log = parse_csv(raw, "case", "activity", "time")
    assert log.traces[0].events[0].timestamp == datetime(2021, 1, 1, tzinfo=UTC)


def test_parse_csv_naive_timestamp_is_utc():
    raw = b"case,activity,time\nc1,A,2021-01-01T10:00:00\n"
    log = parse_csv(raw, "case", "activity", "time")
    assert log.traces[0].events[0].timestamp == datetime(2021, 1, 1, 10, tzinfo=UTC)


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
    assert t0.events[0].timestamp == datetime(2020, 1, 1, 0, 0, 0, tzinfo=UTC)
    assert t0.events[1].timestamp == datetime(2020, 1, 1, 0, 1, 0, tzinfo=UTC)
    assert t1.events[0].timestamp == datetime(2020, 1, 1, 0, 1, 0, tzinfo=UTC)


@settings(max_examples=100)
@given(
    repetitive_variants(),
    st.datetimes(
        min_value=datetime(1990, 1, 1),
        max_value=datetime(2100, 1, 1),
        timezones=st.sampled_from([timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30))]),
    ),
)
def test_log_from_variants_equals_per_event_timestamps(variants, start):
    case_ids = [f"id-{len(variants) - i}" for i in range(len(variants))]
    log = log_from_variants(variants, case_ids=case_ids, start=start)
    assert [(t.case_id, variant_of(t)) for t in log.traces] == list(zip(case_ids, variants))
    for i, trace in enumerate(log.traces):
        base = start.timestamp() + 60.0 * i
        want = [datetime.fromtimestamp(base + 60.0 * j, tz=UTC) for j in range(len(trace))]
        got = [ev.timestamp for ev in trace.events]
        # equal instants in the same zone, to the microsecond
        assert [ts.isoformat() for ts in got] == [ts.isoformat() for ts in want]
        assert all(ev.case_id == trace.case_id for ev in trace.events)

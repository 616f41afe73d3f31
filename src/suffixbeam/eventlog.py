"""Event logs: parsing, slicing, and prefix-log construction.

An event is an (activity, case, timestamp) triple; a trace is the ordered
history of one case; a log is a collection of traces. Everything downstream
works on *variants* — the activity-label projection of a trace, represented
as a plain tuple of strings — so the functions here are the only place that
touches timestamps or raw files.

Why this exists: suffix prediction trains on the *prefix log* (every prefix
of every trace paired with the next label), and the completion label ``END``
has to be injected uniformly so the predictor can learn to stop. Keeping the
slicing rules (and their off-by-one conventions) in one module keeps them
out of the search and evaluation code.
"""

from __future__ import annotations

import csv
import io
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone

logger = logging.getLogger(__name__)

#: Reserved completion label appended to traces when building prefix logs.
#: Rejected if it occurs in input data.
END = "__END__"

Variant = tuple  # a variant is a tuple of activity labels


@dataclass(frozen=True, slots=True)
class Event:
    activity: str
    case_id: str
    timestamp: datetime
    attrs: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.activity:
            raise ValueError("event with empty activity label")
        if not self.case_id:
            raise ValueError("event with empty case id")


@dataclass(frozen=True, slots=True)
class Trace:
    case_id: str
    events: tuple

    def __post_init__(self):
        if not self.events:
            raise ValueError(f"trace {self.case_id!r} has no events")
        for ev in self.events:
            if ev.case_id != self.case_id:
                raise ValueError(
                    f"trace {self.case_id!r} contains event of case {ev.case_id!r}"
                )

    def __len__(self):
        return len(self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple
    alphabet: frozenset

    def __len__(self):
        return len(self.traces)

    @staticmethod
    def from_traces(traces) -> "EventLog":
        traces = tuple(traces)
        alphabet = frozenset(ev.activity for t in traces for ev in t.events)
        if END in alphabet:
            raise ValueError(f"input data uses the reserved completion label {END!r}")
        return EventLog(traces=traces, alphabet=alphabet)


@dataclass(frozen=True)
class PrefixLog:
    """Multiset of (prefix variant, next label) pairs.

    Kept as a list rather than a set: training needs empirical frequencies,
    so multiplicities are preserved.
    """

    entries: tuple  # of (Variant, str)

    def __len__(self):
        return len(self.entries)


def variant_of(trace: Trace) -> Variant:
    """Project a trace to its sequence of activity labels."""
    return tuple(ev.activity for ev in trace.events)


def prefix(variant: Variant, k: int) -> Variant:
    """First k labels of a variant, 1 <= k <= len(variant)."""
    if not 1 <= k <= len(variant):
        raise IndexError(f"prefix length {k} out of range for variant of length {len(variant)}")
    return tuple(variant[:k])


def suffix(variant: Variant, k: int) -> Variant:
    """Labels k+1..n of a variant, 1 <= k < len(variant)."""
    if not 1 <= k < len(variant):
        raise IndexError(f"suffix split {k} out of range for variant of length {len(variant)}")
    return tuple(variant[k:])


def build_prefix_log(log: EventLog) -> PrefixLog:
    """All (prefix, next-label) pairs of every trace, multiplicities preserved.

    The completion label END is appended to each trace first, so a trace of
    length n contributes n entries, the last one targeting END.
    """
    if not log.traces:
        raise ValueError("cannot build a prefix log from an empty event log")
    entries = []
    for trace in log.traces:
        labels = variant_of(trace) + (END,)
        for k in range(1, len(labels)):
            entries.append((tuple(labels[:k]), labels[k]))
    return PrefixLog(entries=tuple(entries))


# ---------------------------------------------------------------------------
# timestamps

def _parse_timestamp(text: str, where: str) -> datetime:
    """A UTC datetime from RFC 3339 (with 'Z' or offset) or integer epoch-milliseconds."""
    text = text.strip()
    try:
        if text.lstrip("-").isdigit():
            return datetime.fromtimestamp(int(text) / 1000.0, tz=timezone.utc)
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except (ValueError, OverflowError, OSError) as exc:  # the last two: out of range epochs
        raise ValueError(f"unparsable timestamp {text!r} at {where}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 0001-01-01T00:30:00+01:00
        raise ValueError(f"timestamp {text!r} at {where} is outside the UTC date range") from exc


def _format_timestamp(ts: datetime) -> str:
    ts = ts.astimezone(timezone.utc)
    return ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}+00:00"


# ---------------------------------------------------------------------------
# XES

def _local(tag: str) -> str:
    """Strip any XML namespace from a tag name."""
    return tag.rsplit("}", 1)[-1]


_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _escape(s: str) -> str:
    """Escape text for an XML element or a double-quoted attribute."""
    return s.translate(_ESCAPES)


def _xml_elements(source, kind: str):
    """Yield the elements of an XML document as their end tags are read.

    Malformed XML and an encoding declaration Python does not know both
    raise ValueError; errors raised by the caller's loop pass untouched.
    ``source`` may be a path, a binary file object, or bytes.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    try:
        for _, elem in ET.iterparse(source):
            yield elem
    except ET.ParseError as exc:
        line, col = exc.position
        raise ValueError(f"malformed {kind} at line {line}, column {col}: {exc}") from exc
    except LookupError as exc:
        raise ValueError(f"{kind}: {exc}") from exc


def parse_xes(source) -> EventLog:
    """Parse an XES file (path, file object, or bytes) into an EventLog.

    A trace is read from its direct children: each ``<event>`` child is an
    event, and every other child carrying a ``key`` is a trace attribute.
    An event's attributes are its own direct children carrying a ``key``.
    Attributes nested deeper (inside a ``<list>`` or ``<container>``) are
    ignored, so they can never stand in for a case id or an activity.

    Events are ordered by timestamp within each trace, stable with respect
    to document order on ties; events without a timestamp inherit the
    previous event's position. Missing ``concept:name`` on an event is an
    error naming the trace.
    """
    traces = []
    for elem in _xml_elements(source, "XES XML"):
        if _local(elem.tag) == "trace":
            traces.append(_read_xes_trace(elem, len(traces)))
            elem.clear()
    if not traces:
        raise ValueError("XES document contains no traces")
    return EventLog.from_traces(traces)


def _read_xes_trace(trace, index: int) -> Trace:
    case_id, raw_events = None, []
    for child in trace:
        if _local(child.tag) == "event":
            raw_events.append({a.get("key"): a.get("value") for a in child if "key" in a.attrib})
        elif child.get("key") == "concept:name":
            case_id = child.get("value")
    case_id = case_id or f"trace_{index + 1}"
    parsed = []
    last_ts = datetime.fromtimestamp(0, tz=timezone.utc)
    for i, attrs in enumerate(raw_events):
        name = attrs.get("concept:name")
        if not name:
            raise ValueError(f"event {i + 1} of trace {case_id!r} has no concept:name")
        raw_ts = attrs.get("time:timestamp")
        if raw_ts is None:
            ts = last_ts  # keep document order under the stable sort
        else:
            ts = _parse_timestamp(raw_ts, f"trace {case_id!r} event {i + 1}")
        last_ts = ts
        extras = {k: v for k, v in attrs.items() if k not in ("concept:name", "time:timestamp")}
        parsed.append(Event(activity=name, case_id=case_id, timestamp=ts, attrs=extras))
    parsed.sort(key=lambda ev: ev.timestamp)  # stable: document order wins ties
    return Trace(case_id=case_id, events=tuple(parsed))


_XES_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<log xes.version="1.0" xes.features="nested-attributes">\n'
    '  <extension name="Concept" prefix="concept" '
    'uri="http://www.xes-standard.org/concept.xesext"/>\n'
    '  <extension name="Time" prefix="time" '
    'uri="http://www.xes-standard.org/time.xesext"/>\n'
)


def write_xes(log: EventLog, path) -> None:
    """Serialize a log to XES. Output is deterministic byte-for-byte."""

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_XES_HEADER)
        for trace in log.traces:
            fh.write("  <trace>\n")
            fh.write(f'    <string key="concept:name" value="{_escape(trace.case_id)}"/>\n')
            for ev in trace.events:
                fh.write("    <event>\n")
                fh.write(f'      <string key="concept:name" value="{_escape(ev.activity)}"/>\n')
                fh.write(
                    f'      <date key="time:timestamp" value="{_format_timestamp(ev.timestamp)}"/>\n'
                )
                fh.write("    </event>\n")
            fh.write("  </trace>\n")
        fh.write("</log>\n")


# ---------------------------------------------------------------------------
# CSV

def parse_csv(source, case_col: str, activity_col: str, time_col: str) -> EventLog:
    """Parse a CSV export: one row per event, grouped by case, sorted by time.

    ``source`` may be a path, a text file object, or bytes. Timestamps are
    RFC 3339 or epoch-milliseconds. Unparsable rows report their row index.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"), newline="")  # as a path: csv splits lines
    elif isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_csv(fh, case_col, activity_col, time_col)
    reader = csv.DictReader(source)
    by_case = {}
    order = []
    try:
        if reader.fieldnames is None:
            raise ValueError("CSV input has no header row")
        for col in (case_col, activity_col, time_col):
            if col not in reader.fieldnames:
                raise ValueError(f"CSV is missing mapped column {col!r} (header: {reader.fieldnames})")
        for row_idx, row in enumerate(reader, start=2):  # header is row 1
            case = row[case_col]
            activity = row[activity_col]
            if case is None or case == "":
                raise ValueError(f"row {row_idx}: empty case id")
            if activity is None or activity == "":
                raise ValueError(f"row {row_idx}: empty activity")
            ts = _parse_timestamp(row[time_col] or "", f"row {row_idx}")
            if case not in by_case:
                by_case[case] = []
                order.append(case)
            by_case[case].append(Event(activity=activity, case_id=case, timestamp=ts))
    except csv.Error as exc:  # only the reader raises it, e.g. on a field over the size limit
        raise ValueError(f"malformed CSV after line {reader.line_num}: {exc}") from exc
    traces = []
    for case in order:
        events = sorted(by_case[case], key=lambda ev: ev.timestamp)  # stable
        traces.append(Trace(case_id=case, events=tuple(events)))
    if not traces:
        raise ValueError("CSV input contains no event rows")
    return EventLog.from_traces(traces)


def log_from_variants(variants, case_ids=None, start=None) -> EventLog:
    """Build a log out of bare label sequences (synthetic data, tests).

    Trace i starts at ``start`` + i minutes; events are one minute apart.
    """
    start = start or datetime(2020, 1, 1, tzinfo=timezone.utc)
    traces = []
    for i, labels in enumerate(variants):
        case = case_ids[i] if case_ids is not None else f"case_{i + 1:04d}"
        base = start.timestamp() + 60.0 * i
        events = tuple(
            Event(
                activity=lab,
                case_id=case,
                timestamp=datetime.fromtimestamp(base + 60.0 * j, tz=timezone.utc),
            )
            for j, lab in enumerate(labels)
        )
        traces.append(Trace(case_id=case, events=events))
    return EventLog.from_traces(traces)

"""Event logs: parsing, slicing, and prefix-log construction.

A trace is one case: its id and two columns of equal length, the activity
labels in time order and their UTC timestamps. A log is a collection of
traces. Everything downstream works on *variants* — a trace's label column,
a plain tuple of strings — so the functions here are the only place that
touches timestamps or raw files. A log holds each trace's variant in log
order and counts its distinct variants once, when it is built, and the
prefix log counts its distinct pairs from them, so work on labels never
reads a trace and work that only counts follows the distinct variants.
A log is a frozen dataclass with one constructor, ``EventLog(traces)``,
which rejects the reserved label END in every log. A log parsed from a file
holds its traces from the start; a log built from bare variants runs every
check when it is built and makes its traces, and the minute table their
timestamps come from, only when they are first read, which the sweep never
does. A prefix log built from a log lays out its per-trace entries only when
they are first read too: the n-gram reads its counts alone, and only
attention training reads the entries. One field descriptor keeps both plans.
This module is the only one that makes a ``Trace``, so it alone decides when
a log makes them.

Why this exists: suffix prediction trains on the *prefix log* (every prefix
of every trace paired with the next label), and the completion label ``END``
has to be injected uniformly so the predictor can learn to stop. Keeping the
slicing rules (and their off-by-one conventions) in one module keeps them
out of the search and evaluation code.
"""

from __future__ import annotations

import csv
import io
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import InitVar, dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import accumulate, repeat
from typing import NamedTuple

#: Reserved completion label appended to traces when building prefix logs.
#: Rejected if it occurs in input data.
END = "__END__"

Variant = tuple  # a variant is a tuple of activity labels


def _check_trace(case_id, activities, timestamps) -> None:
    """Raise what ``Trace(case_id, activities, timestamps)`` raises, if anything: ``Trace``'s checks."""
    if not isinstance(case_id, str):
        raise ValueError(f"trace {case_id!r} has a case id that is not a string")
    if not case_id:
        raise ValueError("trace with empty case id")
    if not (isinstance(activities, tuple) and isinstance(timestamps, tuple)):
        raise TypeError(f"trace {case_id!r}: activities and timestamps must be tuples")
    if not activities:
        raise ValueError(f"trace {case_id!r} has no events")
    for label in activities:
        if not isinstance(label, str):
            raise ValueError(f"trace {case_id!r} has an event whose activity label {label!r} is not a string")
        if not label:
            raise ValueError(f"trace {case_id!r} has an event with empty activity label")
    if len(timestamps) != len(activities):
        raise ValueError(f"trace {case_id!r} has {len(activities)} activities but {len(timestamps)} timestamps")


@dataclass(frozen=True, slots=True)
class Trace:
    """One case: its activity labels in time order and their timestamps."""

    case_id: str
    activities: tuple  # of str
    timestamps: tuple  # of UTC datetimes, one per activity

    def __post_init__(self):
        _check_trace(self.case_id, self.activities, self.timestamps)

    def __len__(self):
        return len(self.activities)


class _Planned(NamedTuple):
    """A column not made yet: ``make()`` makes it; ``variants`` is the variant column it follows, known now,
    and ``counts`` its ``Counter``, if counted."""

    variants: tuple
    make: partial
    counts: Counter = None


class _Made:
    """A dataclass field whose stored :class:`_Planned` is made on the first read and the result kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the field has no default
        value = obj.__dict__[self.name]
        if isinstance(value, _Planned):
            value = obj.__dict__[self.name] = value.make()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class EventLog:
    """Traces, the variant of each, their distinct variants and their labels.

    ``trace_variants`` holds each trace's variant in log order, and
    ``variants`` maps each distinct variant to its number of traces, in
    order of first occurrence; both are made once, when the log is built,
    so work on labels alone never reads ``traces``. ``alphabet`` defaults to
    the labels of the variants. No log may hold the reserved label END.
    A log built by :func:`log_from_variants`, or selected from one, makes
    its traces on the first read of ``traces`` and keeps them.
    """

    traces: tuple = _Made()
    alphabet: frozenset = None
    trace_variants: tuple = field(init=False, repr=False, compare=False)
    variants: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        traces = self.__dict__["traces"]
        column = traces.variants if isinstance(traces, _Planned) else tuple(map(variant_of, traces))
        variants = (traces.counts if isinstance(traces, _Planned) else None) or Counter(column)
        labels = frozenset().union(*variants)
        if END in labels.union(self.alphabet or ()):
            raise ValueError(f"input data uses the reserved completion label {END!r}")
        alphabet = labels if self.alphabet is None else self.alphabet
        self.__dict__.update(trace_variants=column, variants=variants, alphabet=alphabet)

    def __len__(self):
        return len(self.trace_variants)

    def select(self, rows) -> "EventLog":
        """The log of this log's traces at ``rows``, in that order.

        Its traces are the same objects, read from this log on the first
        read of its own ``traces``; its alphabet is the labels they hold.
        """
        rows = tuple(rows)
        return EventLog(_Planned(tuple(map(self.trace_variants.__getitem__, rows)), partial(_traces_at, self, rows)))


def _traces_at(log: EventLog, rows: tuple) -> tuple:
    return tuple(map(log.traces.__getitem__, rows))


@dataclass(frozen=True)
class PrefixLog:
    """Multiset of (prefix variant, next label) pairs.

    ``entries`` keeps every pair, multiplicities preserved, in log order.
    ``counts`` maps each distinct pair to its multiplicity, in order of
    first occurrence, so ``counts == Counter(entries)`` item for item. It is
    counted from ``runs``, ``(pairs, n)`` items saying that each of
    ``pairs`` occurs ``n`` times; without them each entry is a run of one.
    A prefix log built by :func:`build_prefix_log` makes its entries on the
    first read of ``entries`` and keeps them; ``len`` and ``counts`` never
    read them.
    """

    entries: tuple = _Made()  # of (Variant, str)
    runs: InitVar[object] = None
    counts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, runs):
        counts = {}
        for pairs, n in ((self.entries, 1),) if runs is None else runs:
            for pair in pairs:
                counts[pair] = counts.get(pair, 0) + n
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return sum(self.counts.values())


def variant_of(trace: Trace) -> Variant:
    """Project a trace to its sequence of activity labels."""
    return trace.activities


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
    length n contributes n entries, the last one targeting END. Each
    distinct variant is sliced once and its pairs counted once, with the
    variant's number of traces; the entries, in which its repeats reuse the
    same pairs, are laid out per trace on the first read of ``entries``.
    """
    if not log.trace_variants:
        raise ValueError("cannot build a prefix log from an empty event log")
    pairs_of = {}
    for variant in log.variants:
        labels = variant + (END,)
        pairs_of[variant] = [(labels[:k], labels[k]) for k in range(1, len(labels))]
    column = log.trace_variants
    return PrefixLog(_Planned(column, partial(_entries, pairs_of, column)),
                     runs=((pairs_of[v], n) for v, n in log.variants.items()))


def _entries(pairs_of: dict, column: tuple) -> tuple:
    """The entries of :func:`build_prefix_log`: the pairs of each row's variant, in log order."""
    entries = []
    for variant in column:
        entries.extend(pairs_of[variant])
    return tuple(entries)


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


# A parser reads a bare tab, newline or carriage return in a value as a space.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\t": "&#9;", "\n": "&#10;",
                          "\r": "&#13;"})
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # not even as a reference


def _escape(s: str) -> str:
    """Escape text for an XML element or a double-quoted attribute; XML 1.0 must be able to hold it."""
    bad = _NOT_XML.search(s)
    if bad:
        raise ValueError(f"{s!r} holds {bad.group()!r}, which an XML file cannot hold")
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
    return EventLog(tuple(traces))


def _read_xes_trace(trace, index: int) -> Trace:
    case_id, raw_events = None, []
    for child in trace:
        if _local(child.tag) == "event":
            raw_events.append({a.get("key"): a.get("value") for a in child if "key" in a.attrib})
        elif child.get("key") == "concept:name":
            case_id = child.get("value")
    case_id = case_id or f"trace_{index + 1}"
    labels, stamps = [], []
    ts = datetime.fromtimestamp(0, tz=timezone.utc)
    for i, attrs in enumerate(raw_events, start=1):
        name = attrs.get("concept:name")
        if not name:
            raise ValueError(f"event {i} of trace {case_id!r} has no concept:name")
        raw_ts = attrs.get("time:timestamp")
        if raw_ts is not None:  # else keep the previous instant, so the stable sort keeps its place
            ts = _parse_timestamp(raw_ts, f"trace {case_id!r} event {i}")
        labels.append(name)
        stamps.append(ts)
    return _in_time_order(case_id, labels, stamps)


def _in_time_order(case_id: str, labels: list, stamps: list) -> Trace:
    """A trace of the events sorted by timestamp; the sort is stable, so ties keep input order."""
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    return Trace(case_id, tuple(labels[i] for i in order), tuple(stamps[i] for i in order))


_XES_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<log xes.version="1.0" xes.features="nested-attributes">\n'
    '  <extension name="Concept" prefix="concept" '
    'uri="http://www.xes-standard.org/concept.xesext"/>\n'
    '  <extension name="Time" prefix="time" '
    'uri="http://www.xes-standard.org/time.xesext"/>\n'
)


def xes_document(log: EventLog) -> str:
    """A log as an XES document, deterministic byte-for-byte; a label XML cannot hold raises ValueError."""
    parts = [_XES_HEADER]
    for trace in log.traces:
        parts.append("  <trace>\n")
        parts.append(f'    <string key="concept:name" value="{_escape(trace.case_id)}"/>\n')
        for label, ts in zip(trace.activities, trace.timestamps):
            parts.append("    <event>\n")
            parts.append(f'      <string key="concept:name" value="{_escape(label)}"/>\n')
            parts.append(f'      <date key="time:timestamp" value="{_format_timestamp(ts)}"/>\n')
            parts.append("    </event>\n")
        parts.append("  </trace>\n")
    parts.append("</log>\n")
    return "".join(parts)


def write_xes(log: EventLog, path) -> None:
    """Write a log's :func:`xes_document`; a label that cannot be written writes no file."""
    document = xes_document(log)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(document)


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
    by_case = {}  # case id -> (labels, timestamps), in order of first appearance
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
            labels, stamps = by_case.setdefault(case, ([], []))
            labels.append(activity)
            stamps.append(ts)
    except csv.Error as exc:  # only the reader raises it, e.g. on a field over the size limit
        raise ValueError(f"malformed CSV after line {reader.line_num}: {exc}") from exc
    traces = [_in_time_order(case, labels, stamps) for case, (labels, stamps) in by_case.items()]
    if not traces:
        raise ValueError("CSV input contains no event rows")
    return EventLog(tuple(traces))


def log_from_variants(variants, case_ids=None, start=None) -> EventLog:
    """Build a log out of bare label sequences (synthetic data, tests).

    Trace i starts at ``start`` + i minutes (a naive ``start`` is local
    time); events are one minute apart. ``case_ids``, when given, names each
    variant's trace; else trace i is ``"case_%04d" % i``, from 1 up. The
    timestamps come from one table of UTC datetimes a minute apart, each
    trace's a slice of it, so traces share one object wherever the instant
    is the same.

    Every check runs here, so bad input raises at the call: ``Trace``'s
    checks on each distinct variant and each case id and, if one fails, on
    every row in log order, so an error names the same case as a
    trace-by-trace build would; then the reserved-label check. A minute
    table whose last minute would leave the datetime range raises
    ValueError first. The rows are counted once, for the log's variants;
    the traces and the table are made on the first read of ``traces``.
    """
    column = tuple(map(tuple, variants))
    if case_ids is not None:
        case_ids = tuple(case_ids)
        if len(case_ids) != len(column):
            raise ValueError(f"{len(case_ids)} case ids given for {len(column)} variants")
    try:  # each distinct variant with its number of rows
        counts = Counter(column)
    except TypeError:  # an unhashable label, which Trace's checks reject: check every row
        counts = None
    longest = max(map(len, counts or column), default=0)
    # the minutes the traces use: a row before the last `longest` ends before the last row starts
    tail = max(len(column) - longest, 0)
    n_minutes = max((i + len(labels) for i, labels in enumerate(column[tail:], tail)), default=0)
    try:  # the table's last minute is in range exactly when every minute is
        first = (start or datetime(2020, 1, 1, tzinfo=timezone.utc)).astimezone(timezone.utc)
        first + timedelta(minutes=max(n_minutes - 1, 0))
    except OverflowError as exc:  # a start near either end of the datetime range
        raise ValueError(f"{n_minutes} minutes from {start} leave the datetime range") from exc
    try:  # Trace's checks on each distinct variant (each row if uncounted), then each case id
        for labels in counts or column:
            _check_trace("case", labels, (first,) * len(labels))
        for case in case_ids or ():
            _check_trace(case, ("case",), (first,))
    except ValueError:  # the first row that fails raises
        for i, labels in enumerate(column):
            _check_trace(_case_id(case_ids, i), labels, (first,) * len(labels))
    return EventLog(_Planned(column, partial(_minute_traces, column, case_ids, first, n_minutes), counts))


def _case_id(case_ids, i: int) -> str:
    """Row i's case id in :func:`log_from_variants`."""
    return "case_%04d" % (i + 1) if case_ids is None else case_ids[i]


def _minute_traces(column: tuple, case_ids, first: datetime, n_minutes: int) -> tuple:
    """The traces of :func:`log_from_variants`: row i starts i minutes after ``first``."""
    table = tuple(accumulate(repeat(timedelta(minutes=1), n_minutes - 1), initial=first))
    return tuple(Trace(_case_id(case_ids, i), labels, table[i:i + len(labels)]) for i, labels in enumerate(column))

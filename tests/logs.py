"""Event-log strategies shared by the property tests, and records of the traces and planned columns made."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import strategies as st

from suffixbeam import eventlog
from suffixbeam.eventlog import PrefixLog, Trace


@st.composite
def repetitive_variants(draw):
    """A few distinct variants, each repeated many times, in random order."""
    pool = draw(st.lists(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6).map(tuple),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return [pool[i] for i in picks]


@contextmanager
def made_traces():
    """A list that gets the case id of every ``Trace`` made inside the block."""
    made, real_init = [], Trace.__init__

    def init(self, case_id, *args, **kwargs):
        made.append(case_id)
        real_init(self, case_id, *args, **kwargs)

    with mock.patch.object(Trace, "__init__", init):
        yield made


@contextmanager
def made_columns():
    """A list that gets each column, left planned when it could be, that the block makes.

    ``"minute table"`` is added for each minute table ``log_from_variants``
    builds, at once; ``"entries"`` for each prefix log built in the block
    whose entries were made, when the block ends.
    """
    made, built = [], []
    real_post_init, real_accumulate = PrefixLog.__post_init__, eventlog.accumulate

    def post_init(self, runs):
        built.append(self)
        real_post_init(self, runs)

    def accumulate(*args, **kwargs):  # the minute table is eventlog's one use of it
        made.append("minute table")
        return real_accumulate(*args, **kwargs)

    with mock.patch.object(PrefixLog, "__post_init__", post_init), mock.patch.object(eventlog, "accumulate", accumulate):
        yield made
    made.extend("entries" for plog in built if not isinstance(plog.__dict__["entries"], eventlog._Planned))

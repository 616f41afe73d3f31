"""Event-log strategies shared by the property tests, and a count of the traces made."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import strategies as st

from suffixbeam.eventlog import Trace


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

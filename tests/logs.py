"""Event-log strategies shared by the property tests."""

from hypothesis import strategies as st


@st.composite
def repetitive_variants(draw):
    """A few distinct variants, each repeated many times, in random order."""
    pool = draw(st.lists(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6).map(tuple),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return [pool[i] for i in picks]

"""Fault schedule: the per-edge drop ranges the runtime resolves once."""

from hypothesis import given, strategies as st

from tfstream.faults import DropChunk, FaultSchedule, LinkDown, OverflowAt

NAMES = ("p", "q")
FEATURES = ("f", "g")
EDGES = [(p, f, c) for p in NAMES for f in FEATURES for c in NAMES if c != p]

numbers = st.integers(min_value=0, max_value=40)
# "p.f->c" names one edge, "p->c" every feature from p to c
patterns = st.sampled_from(
    [f"{p}.{f}->{c}" for p, f, c in EDGES]
    + sorted({f"{p}->{c}" for p, _, c in EDGES})
)
events = st.one_of(
    st.builds(DropChunk, edge=patterns, number=numbers),
    st.builds(
        lambda edge, a, b: LinkDown(edge, min(a, b), max(a, b)),
        patterns, numbers, numbers,
    ),
    st.builds(OverflowAt, input=st.sampled_from(NAMES), number=numbers),
)


def _drops(event, producer, feature, consumer, number):
    """True if ``event`` drops this chunk on this edge."""
    if isinstance(event, DropChunk):
        lo = hi = event.number
    elif isinstance(event, LinkDown):
        lo, hi = event.from_number, event.to_number
    else:
        return False
    names = (f"{producer}.{feature}->{consumer}", f"{producer}->{consumer}")
    return event.edge in names and lo <= number <= hi


@given(st.lists(events, max_size=8))
def test_dropped_ranges_cover_exactly_the_dropped_chunks(event_list):
    schedule = FaultSchedule(event_list)
    for producer, feature, consumer in EDGES:
        ranges = schedule.dropped_ranges(producer, feature, consumer)
        for number in range(45):
            covered = any(lo <= number <= hi for lo, hi in ranges)
            assert covered == any(
                _drops(event, producer, feature, consumer, number)
                for event in event_list)

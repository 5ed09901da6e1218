"""In-flight buffering: set completion, discard on completion, expiry."""

import itertools

import numpy as np

from tfstream.buffering import InFlightBuffer
from tfstream.chunks import Continuity, DataChunk

A = ("a", "x")
B = ("b", "y")
C = ("c", "z")


def chunk(key, n, continuity=Continuity.WITHPREVIOUS):
    return DataChunk(
        number=n, source_key=key, payload=np.zeros(4), continuity=continuity,
    )


def test_single_key_completes_immediately():
    buf = InFlightBuffer(configured_keys=frozenset({A}))
    done = buf.accept(chunk(A, 0))
    assert done is not None and done[A].number == 0
    assert buf.expected_next == 1


def test_two_keys_wait_for_both():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    assert buf.accept(chunk(A, 0)) is None
    done = buf.accept(chunk(B, 0))
    assert done is not None
    assert set(done) == {A, B}


def test_gap_on_one_key_discards_unmatchable_buffered_chunks():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(B, 0))
    buf.accept(chunk(A, 1))      # waits for B1
    assert buf.accept(chunk(B, 2)) is None  # B1 lost on its edge
    assert buf.occupancy() == 2
    assert buf.counters.discarded == 0
    done = buf.accept(chunk(A, 2))
    # set 2 is complete, so edge FIFO proves A1 can never complete
    assert done is not None and done[A].number == 2
    assert buf.expected_next == 3
    assert buf.counters.discarded == 1
    assert buf.occupancy() == 0


def test_expire_discards_what_can_no_longer_complete():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(A, 1))
    buf.accept(chunk(B, 2))
    buf.expire(1)
    assert buf.expected_next == 2
    assert buf.counters.discarded == 2
    assert buf.occupancy() == 1
    done = buf.accept(chunk(A, 2))
    assert done is not None and done[B].number == 2


def test_stale_arrivals_counted_and_dropped():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.expire(1)                # nothing up to 1 can still arrive
    assert buf.expected_next == 2
    buf.accept(chunk(A, 1))      # a direct caller breaks that promise
    assert buf.counters.stale == 1
    assert buf.occupancy() == 0
    buf.accept(chunk(B, 2))
    done = buf.accept(chunk(A, 2))
    assert done is not None


def test_expire_never_rewinds():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 5))
    buf.accept(chunk(B, 5))
    assert buf.expected_next == 6
    buf.accept(chunk(A, 6))
    buf.expire(3)
    assert buf.expected_next == 6
    assert buf.occupancy() == 1
    assert buf.counters.discarded == 0


def test_result_is_interleaving_independent():
    """Any arrival order of the same per-key sequences completes the same
    sets, each of one number: the buffer output depends on content, not
    thread timing."""
    numbers_a = [0, 1, 3, 4]   # 2 lost on edge A
    numbers_b = [0, 1, 2, 3, 4]
    completions = set()
    arrivals_a = [chunk(A, n) for n in numbers_a]
    arrivals_b = [chunk(B, n) for n in numbers_b]
    for split in itertools.combinations(range(9), len(arrivals_a)):
        buf = InFlightBuffer(configured_keys=frozenset({A, B}))
        ia = iter(arrivals_a)
        ib = iter(arrivals_b)
        got = []
        for slot in range(9):
            item = next(ia) if slot in split else next(ib)
            done = buf.accept(item)
            if done:
                assert done[B].number == done[A].number
                got.append(done[A].number)
        completions.add(tuple(got))
    assert completions == {(0, 1, 3, 4)}


def test_occupancy_stays_bounded_over_long_lossy_run():
    """10^4 chunks with random losses on three edges: the buffer never
    accumulates more than a handful of in-flight chunks, and every set
    it completes holds one number."""
    rng = np.random.default_rng(42)
    keys = (A, B, C)
    buf = InFlightBuffer(configured_keys=frozenset(keys))
    n_chunks = 10_000
    kept = {k: [n for n in range(n_chunks) if rng.random() > 0.05] for k in keys}
    positions = {k: 0 for k in keys}
    worst = 0
    while any(positions[k] < len(kept[k]) for k in keys):
        # bounded queues keep any edge at most a few chunks ahead, as the
        # runtime's backpressure does; within that window order is random
        floor = min(
            kept[k][positions[k]] for k in keys if positions[k] < len(kept[k])
        )
        candidates = [
            k for k in keys
            if positions[k] < len(kept[k])
            and kept[k][positions[k]] - floor <= 8
        ]
        key = candidates[rng.integers(len(candidates))]
        done = buf.accept(chunk(key, kept[key][positions[key]]))
        if done:
            assert len({c.number for c in done.values()}) == 1
        positions[key] += 1
        worst = max(worst, buf.occupancy())
    assert worst <= 12 * len(keys)
    total = buf.counters.completed + buf.counters.discarded + buf.counters.stale
    assert buf.counters.completed > 0.8 * n_chunks
    assert total <= sum(len(v) for v in kept.values())


def test_drain_clears_everything():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(A, 1))
    buf.drain()
    assert buf.occupancy() == 0
    assert buf.counters.discarded == 2

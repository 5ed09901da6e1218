"""In-flight buffering: set completion, discard at a later number, staleness."""

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
    assert buf.occupancy() == 0


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
    # B1 was lost on its edge: B2 proves set 1 can never complete
    assert buf.accept(chunk(B, 2)) is None
    assert buf.counters.discarded == 1
    assert buf.occupancy() == 1
    done = buf.accept(chunk(A, 2))
    assert done is not None and done[A].number == 2 == done[B].number
    assert buf.counters.discarded == 1
    assert buf.occupancy() == 0


def test_expire_discards_what_can_no_longer_complete():
    """A set expires when a later number arrives: each later arrival
    discards what can no longer complete, and the set it starts still
    completes."""
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(A, 1))
    assert (buf.counters.discarded, buf.occupancy()) == (1, 1)
    buf.accept(chunk(B, 2))
    assert buf.number == 2
    assert buf.counters.discarded == 2
    assert buf.occupancy() == 1
    done = buf.accept(chunk(A, 2))
    assert done is not None and done[B].number == 2
    assert buf.number == 3


def test_expire_never_rewinds():
    """An arrival below the set being collected is stale: it neither
    moves the buffer back nor expires what it holds."""
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 5))
    buf.accept(chunk(B, 5))
    assert buf.number == 6
    buf.accept(chunk(A, 6))
    assert buf.accept(chunk(B, 3)) is None
    assert buf.number == 6
    assert buf.occupancy() == 1
    assert buf.counters.discarded == 0
    assert buf.counters.stale == 1
    done = buf.accept(chunk(B, 6))
    assert done is not None and done[A].number == 6


def test_a_later_number_discards_the_incomplete_set():
    """The buffer holds one set: each later number discards the set being
    collected, whatever keys it holds, and the last one still
    completes."""
    buf = InFlightBuffer(configured_keys=frozenset({A, B, C}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(B, 0))
    assert buf.accept(chunk(C, 3)) is None
    assert (buf.counters.discarded, buf.occupancy()) == (2, 1)
    assert buf.accept(chunk(A, 5)) is None
    assert (buf.counters.discarded, buf.occupancy()) == (3, 1)
    buf.accept(chunk(B, 5))
    done = buf.accept(chunk(C, 5))
    assert done is not None and {c.number for c in done.values()} == {5}
    assert (buf.counters.completed, buf.counters.discarded) == (1, 3)
    assert buf.occupancy() == 0


def test_stale_arrivals_counted_and_dropped():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 2))
    buf.accept(chunk(B, 1))      # a direct caller breaks the number order
    assert buf.counters.stale == 1
    assert buf.occupancy() == 1
    assert buf.accept(chunk(B, 2)) is not None
    buf.accept(chunk(A, 2))      # its set has completed already
    assert buf.counters.stale == 2
    assert buf.occupancy() == 0
    assert buf.counters.discarded == 0


def test_result_is_interleaving_independent():
    """Every arrival order of the same per-key sequences whose numbers
    never decrease completes the same sets, each of one number: the
    buffer output depends on content, not on the order of keys within a
    number."""
    numbers_a = [0, 1, 3, 4]   # 2 lost on edge A
    numbers_b = [0, 1, 2, 3, 4]
    completions = set()
    orders = 0
    arrivals_a = [chunk(A, n) for n in numbers_a]
    arrivals_b = [chunk(B, n) for n in numbers_b]
    for split in itertools.combinations(range(9), len(arrivals_a)):
        ia = iter(arrivals_a)
        ib = iter(arrivals_b)
        arrivals = [next(ia) if slot in split else next(ib)
                    for slot in range(9)]
        numbers = [item.number for item in arrivals]
        if numbers != sorted(numbers):
            continue
        orders += 1
        buf = InFlightBuffer(configured_keys=frozenset({A, B}))
        got = []
        for item in arrivals:
            done = buf.accept(item)
            if done:
                assert done[B].number == done[A].number
                got.append(done[A].number)
        buf.drain()
        assert (buf.counters.completed, buf.counters.discarded) == (4, 1)
        completions.add(tuple(got))
    assert orders == 2 ** 4
    assert completions == {(0, 1, 3, 4)}


def test_occupancy_stays_bounded_over_long_lossy_run():
    """10^4 numbers with random losses on three edges, delivered in
    number order with the keys of each number in random order: the
    buffer never holds more than keys - 1 chunks, every set it completes
    holds one number, and every arrival is counted once, as part of a
    completed set or as discarded."""
    rng = np.random.default_rng(42)
    keys = (A, B, C)
    buf = InFlightBuffer(configured_keys=frozenset(keys))
    n_chunks = 10_000
    kept = {k: {n for n in range(n_chunks) if rng.random() > 0.05}
            for k in keys}
    worst = arrivals = 0
    for number in range(n_chunks):
        for index in rng.permutation(len(keys)):
            key = keys[index]
            if number not in kept[key]:
                continue
            arrivals += 1
            done = buf.accept(chunk(key, number))
            if done:
                assert {c.number for c in done.values()} == {number}
            worst = max(worst, buf.occupancy())
    buf.drain()
    assert worst <= len(keys) - 1
    assert buf.counters.completed > 0.8 * n_chunks
    assert buf.counters.stale == 0
    assert 3 * buf.counters.completed + buf.counters.discarded == arrivals


def test_drain_clears_everything():
    buf = InFlightBuffer(configured_keys=frozenset({A, B}))
    buf.accept(chunk(A, 0))
    buf.accept(chunk(A, 1))
    buf.drain()
    assert buf.occupancy() == 0
    assert buf.counters.discarded == 2

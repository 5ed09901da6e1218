"""Composite manager: per-consumer buffering of in-flight chunks.

A consumer fed through several paths buffers arrivals per source key
until every key holds a chunk with the same number.  Edges are FIFO, so
completing set n discards every older buffered chunk.  A set that lost
a member never completes; ``expire`` discards it once nothing up to its
number can still arrive, which the dispatch loop knows after each round
of pulls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from .chunks import DataChunk, SourceKey


@dataclass
class BufferCounters:
    completed: int = 0
    discarded: int = 0
    #: arrivals numbered below expected_next; the dispatch loop never
    #: delivers one, so only a direct caller of the buffer can
    stale: int = 0
    #: completed sets dropped because they were too short to merge
    too_short: int = 0


@dataclass
class InFlightBuffer:
    """Per-key queues of chunks not yet part of a completed set."""

    configured_keys: FrozenSet[SourceKey]
    expected_next: int = 0
    queues: Dict[SourceKey, Dict[int, DataChunk]] = field(init=False)
    counters: BufferCounters = field(default_factory=BufferCounters)
    #: the configured key when there is only one, else None
    lone_key: Optional[SourceKey] = field(init=False)

    def __post_init__(self) -> None:
        self.queues = {key: {} for key in self.configured_keys}
        self.lone_key = (next(iter(self.configured_keys))
                         if len(self.configured_keys) == 1 else None)

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def accept(self, chunk: DataChunk) -> Optional[Dict[SourceKey, DataChunk]]:
        """Enqueue one arrival; return the completed set of its number
        if this arrival finished it, after discarding every older
        buffered chunk.

        Stale chunks (older than expected_next) are counted and dropped,
        never an error.  The chunk's key is one of the configured ones:
        the runtime wires each consumer's receiver from the plan's edges.
        """
        number = chunk.number
        if number < self.expected_next:
            self.counters.stale += 1
            return None
        if self.lone_key is not None:
            # a lone key completes every set it delivers, so its queue
            # stays empty
            self.expected_next = number + 1
            self.counters.completed += 1
            return {self.lone_key: chunk}
        self.queues[chunk.source_key][number] = chunk
        if not all(number in q for q in self.queues.values()):
            return None
        completed = {k: q.pop(number) for k, q in self.queues.items()}
        self.counters.completed += 1
        self.expire(number)
        return completed

    def expire(self, last: int) -> None:
        """Discard every buffered chunk numbered at most ``last`` and
        resume after it; never rewinds."""
        if last < self.expected_next:
            return
        for queue in self.queues.values():
            for number in [n for n in queue if n <= last]:
                del queue[number]
                self.counters.discarded += 1
        self.expected_next = last + 1

    def drain(self) -> None:
        """Discard all remaining incomplete sets (at end of stream)."""
        for queue in self.queues.values():
            self.counters.discarded += len(queue)
            queue.clear()

"""Composite manager: per-consumer buffering of in-flight chunks.

A consumer fed through several paths buffers arrivals per source key
until all configured keys hold a chunk with the same number.  Edges are
FIFO and never reorder, so a number gap on one key proves the missing
chunks are lost; the buffer then fast-forwards to the first failure-free
number and discards everything older.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from .chunks import DataChunk, SourceKey


@dataclass
class BufferCounters:
    completed: int = 0
    discarded: int = 0
    stale: int = 0
    #: completed sets dropped because they were too short to merge
    too_short: int = 0


@dataclass
class InFlightBuffer:
    """Ordered per-key queues of chunks not yet part of a completed set."""

    configured_keys: FrozenSet[SourceKey]
    expected_next: int = 0
    queues: Dict[SourceKey, "OrderedDict[int, DataChunk]"] = field(init=False)
    counters: BufferCounters = field(default_factory=BufferCounters)
    #: the configured key when there is only one, else None
    lone_key: Optional[SourceKey] = field(init=False)

    def __post_init__(self) -> None:
        self.queues = {key: OrderedDict() for key in self.configured_keys}
        self.lone_key = (next(iter(self.configured_keys))
                         if len(self.configured_keys) == 1 else None)

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def accept(self, chunk: DataChunk) -> Optional[Dict[SourceKey, DataChunk]]:
        """Enqueue one arrival; return the completed set for expected_next
        if this arrival finished it.

        Stale chunks (older than expected_next, typically late survivors
        of a fast-forward) are counted and dropped, never an error.  The
        chunk's key is one of the configured ones: the runtime wires
        each consumer's receiver from the plan's edges.
        """
        if chunk.number < self.expected_next:
            self.counters.stale += 1
            return None
        if self.lone_key is not None:
            # a lone key completes every set it delivers, so its queue
            # is empty between arrivals and nothing is fast-forwarded
            self.expected_next = chunk.number + 1
            self.counters.completed += 1
            return {self.lone_key: chunk}
        self.queues[chunk.source_key][chunk.number] = chunk

        # FIFO per edge: the head of a non-empty queue is the smallest
        # number that key will ever deliver.  Any set older than the
        # largest such head is missing a member forever.
        current = self.expected_next
        target, complete = current, True
        for queue in self.queues.values():
            if queue:
                head = next(iter(queue))
                if head > target:
                    target = head
            if current not in queue:
                complete = False
        if target > current:
            self.fast_forward(target)
            current = target
            complete = all(current in q for q in self.queues.values())

        if complete:
            completed = {k: q.pop(current) for k, q in self.queues.items()}
            self.expected_next = current + 1
            self.counters.completed += 1
            return completed
        return None

    def fast_forward(self, to: int) -> None:
        """Discard every buffered chunk with number < to; resume at to."""
        if to <= self.expected_next:
            return
        for queue in self.queues.values():
            for number in [n for n in queue if n < to]:
                del queue[number]
                self.counters.discarded += 1
        self.expected_next = to

    def drain(self) -> None:
        """Discard all remaining incomplete sets (at end of stream)."""
        for queue in self.queues.values():
            self.counters.discarded += len(queue)
            queue.clear()

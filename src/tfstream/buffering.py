"""Composite manager: per-consumer buffering of in-flight chunks.

A consumer fed through several paths collects, per number, one chunk
from each source key; the set completes when every key holds one.  The
dispatch loop publishes in number order, so a join holds at most the
one set it is collecting: an arrival with a higher number proves that
set can no longer complete, and discards it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from .chunks import DataChunk, SourceKey


@dataclass
class BufferCounters:
    completed: int = 0
    #: chunks of sets replaced by a later number or left at the end
    discarded: int = 0
    #: arrivals numbered below the set being collected; the dispatch
    #: loop never delivers one, so only a direct caller of the buffer can
    stale: int = 0
    #: completed sets dropped because they were too short to merge
    too_short: int = 0


@dataclass
class InFlightBuffer:
    """The one set of same-numbered chunks being collected."""

    configured_keys: FrozenSet[SourceKey]
    #: the number of the set being collected; after a set completes, the
    #: number after it
    number: int = 0
    members: Dict[SourceKey, DataChunk] = field(default_factory=dict)
    counters: BufferCounters = field(default_factory=BufferCounters)

    def occupancy(self) -> int:
        return len(self.members)

    def accept(self, chunk: DataChunk) -> Optional[Dict[SourceKey, DataChunk]]:
        """Add one arrival; return the set of its number if this arrival
        completed it.

        A later number discards the set being collected; an earlier one
        is counted stale and dropped, never an error.  The chunk's key is
        one of the configured ones: the runtime wires each consumer's
        receiver from the plan's edges.
        """
        number = chunk.number
        if number != self.number:
            if number < self.number:
                self.counters.stale += 1
                return None
            self.drain()
            self.number = number
        members = self.members
        members[chunk.source_key] = chunk
        if len(members) < len(self.configured_keys):
            return None
        self.counters.completed += 1
        self.number = number + 1
        self.members = {}
        return members

    def drain(self) -> None:
        """Discard the incomplete set (at a later number or at the end
        of the stream)."""
        self.counters.discarded += len(self.members)
        self.members.clear()

"""Deterministic fault injection: scripted chunk drops and input overflows.

Faults are declared in the pipeline configuration and applied above the
codec: a dropped chunk simply never reaches the consumer, surfacing as a
number gap, exactly like a lost transmission.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple, Union

from .errors import ConfigError

#: An edge is named "producer.feature->consumer"; "producer->consumer"
#: matches every feature on that producer-consumer pair.
EdgeName = str


@dataclass(frozen=True)
class DropChunk:
    edge: EdgeName
    number: int


@dataclass(frozen=True)
class LinkDown:
    """Contiguous outage: drops numbers in [from_number, to_number]."""

    edge: EdgeName
    from_number: int
    to_number: int


@dataclass(frozen=True)
class OverflowAt:
    """Scripted input buffer overflow: the named chunk is acquired but
    flagged invalid and never published."""

    input: str
    number: int


FaultEvent = Union[DropChunk, LinkDown, OverflowAt]


def _edge_matches(pattern: EdgeName, producer: str, feature: str, consumer: str) -> bool:
    left, _, right = pattern.partition("->")
    if right != consumer:
        return False
    name, dot, feat = left.partition(".")
    if name != producer:
        return False
    return not dot or feat == feature


@dataclass
class FaultSchedule:
    """The full scripted fault plan for one run."""

    events: List[FaultEvent] = field(default_factory=list)

    def validate(
        self,
        edges: Iterable[Tuple[str, str, str]],
        input_names: Iterable[str],
    ) -> "FaultSchedule":
        """Check that every event names an existing edge or input."""
        edge_list = list(edges)
        inputs = set(input_names)
        for event in self.events:
            if isinstance(event, OverflowAt):
                if event.input not in inputs:
                    raise ConfigError(f"overflow fault names unknown input {event.input!r}")
                if event.number < 0:
                    raise ConfigError("fault chunk numbers must be non-negative")
            else:
                numbers = (
                    (event.number,)
                    if isinstance(event, DropChunk)
                    else (event.from_number, event.to_number)
                )
                if any(n < 0 for n in numbers):
                    raise ConfigError("fault chunk numbers must be non-negative")
                if isinstance(event, LinkDown) and event.from_number > event.to_number:
                    raise ConfigError("LinkDown range is reversed")
                if not any(
                    _edge_matches(event.edge, prod, feat, cons)
                    for prod, feat, cons in edge_list
                ):
                    raise ConfigError(f"fault names unknown edge {event.edge!r}")
        return self

    def dropped_ranges(
        self, producer: str, feature: str, consumer: str
    ) -> Tuple[Tuple[int, int], ...]:
        """The inclusive number ranges dropped on one edge, resolved once
        per edge: a chunk is dropped there exactly when its number lies
        in one of them."""
        ranges = []
        for event in self.events:
            if isinstance(event, DropChunk):
                span = (event.number, event.number)
            elif isinstance(event, LinkDown):
                span = (event.from_number, event.to_number)
            else:
                continue
            if _edge_matches(event.edge, producer, feature, consumer):
                ranges.append(span)
        return tuple(ranges)

    def overflow_numbers(self, input_name: str) -> Set[int]:
        return {
            e.number
            for e in self.events
            if isinstance(e, OverflowAt) and e.input == input_name
        }


def _field(item: dict, name: str, kind: type):
    """One field of a fault entry, a str or an int (any integral type);
    ConfigError naming the entry when it is missing or of another type."""
    value = item.get(name)
    if (isinstance(value, numbers.Integral if kind is int else kind)
            and not isinstance(value, bool)):
        return value
    raise ConfigError(f"fault entry {item} needs {name!r} as "
                      f"{'a string' if kind is str else 'an integer'}, "
                      f"got {value!r}")


def parse_fault_events(raw: Iterable[dict]) -> FaultSchedule:
    """Build a FaultSchedule from the configuration's fault mappings."""
    events: List[FaultEvent] = []
    for item in raw:
        kind = item.get("kind")
        if kind == "drop_chunk":
            events.append(DropChunk(edge=_field(item, "edge", str),
                                    number=_field(item, "number", int)))
        elif kind == "link_down":
            events.append(
                LinkDown(
                    edge=_field(item, "edge", str),
                    from_number=_field(item, "from_number", int),
                    to_number=_field(item, "to_number", int),
                )
            )
        elif kind == "overflow":
            events.append(OverflowAt(input=_field(item, "input", str),
                                     number=_field(item, "number", int)))
        else:
            raise ConfigError(f"unknown fault kind {kind!r}")
    return FaultSchedule(events)

"""Chunk model: alignment counters, continuity codes and the DataChunk.

Every representation travelling through the pipeline is wrapped in a
DataChunk: a numbered, flagged array (channels x time, or plain time).
Inside the program a chunk's continuity is always a ``Continuity``
member: sources and ``Processor.step`` build members, the publish
boundary (``check_publishable``) refuses anything else, and outside
bytes become members only where they are read (``as_continuity``, called
by the wire decoder, which also reads chunk files).  The four alignment
counters that make re-alignment possible belong to the chunk's key, not
to the chunk: graph validation composes them once per key
(``GraphPlan.cumulative``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Tuple

import numpy as np

from .errors import MetadataError, ShapeError

#: Hard cap on alignment counters; silent wraparound would corrupt slicing.
MAX_COUNTER = 2**31 - 1

SourceKey = Tuple[str, str]

#: Payload layouts of wire frames and written chunk files: little-endian floats
PAYLOAD_DTYPES = ("<f4", "<f8")


class Continuity(IntEnum):
    """Per-chunk code declaring the relation to the predecessor chunk.

    The numeric values are part of the wire format; the mapping is
    one-to-one and must stay in numerical order.
    """

    INVALID = -1
    DISCONTINUOUS = 0
    NEWFILE = 1
    CALIBRATION = 2
    WITHPREVIOUS = 10
    LAST = 11

    @property
    def continuous(self) -> bool:
        """True for the codes continuous with the predecessor (10, 11);
        every other valid code (0, 1, 2) declares a break."""
        return self >= Continuity.WITHPREVIOUS


_MEMBERS = {code: code for code in Continuity}


def as_continuity(code) -> Continuity:
    """The member for a code read from outside bytes, found without the
    enum's own conversion; an unknown code raises ValueError."""
    try:
        return _MEMBERS[code]
    except (KeyError, TypeError):
        return Continuity(code)


class MergeScenario(Enum):
    """The three sanctioned ways to slice an incoming array into a merge;
    each value is the name a merge log reports."""

    REGULAR_CONTINUOUS = "RegularContinuous"
    REGULAR_DISCONTINUOUS = "RegularDiscontinuous"
    IRREGULAR_DISCONTINUOUS = "IrregularDiscontinuous"


@dataclass(frozen=True, slots=True)
class AlignmentParams:
    """The four alignment counters.

    p: included past -- time steps from the future needed per value
       (non-causal part), so the representation lags the timeline by p.
    d: dropped after discontinuity -- time steps from the past needed per
       value (causal part), dropped at the start after any discontinuity.
    l: invalid large-scale (low frequency) channels at the array edge.
    s: invalid small-scale (high frequency) channels at the array edge.

    Cumulative per key in the plan, relative per feature on processors.
    """

    p: int = 0
    d: int = 0
    l: int = 0
    s: int = 0

    def __post_init__(self) -> None:
        for name in ("p", "d", "l", "s"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise MetadataError(f"alignment counter {name} must be an integer")
            if value < 0:
                raise MetadataError(f"alignment counter {name} is negative: {value}")
            if value > MAX_COUNTER:
                raise MetadataError(f"alignment counter {name} exceeds {MAX_COUNTER}")

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.p, self.d, self.l, self.s)


ZERO_ALIGNMENT = AlignmentParams(0, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class DataChunk:
    """A numbered, flagged segment of a (time-frequency) representation.

    payload is (channels, time) or (time,); the time axis is always last.
    A chunk carries only what changes from chunk to chunk: its number,
    continuity and payload.  Its key's sample rate, frequency axis and
    cumulative alignment counters are plan constants (``GraphPlan.rates``,
    ``GraphPlan.freqs`` and ``GraphPlan.cumulative``).  Chunks are
    immutable after publication and safe to share between consumers; the
    runtime freezes the payload when publishing.
    """

    number: int
    source_key: SourceKey
    payload: np.ndarray
    continuity: Continuity

    @property
    def time_length(self) -> int:
        return self.payload.shape[-1]


def check_publishable(chunk: DataChunk) -> DataChunk:
    """Check a chunk at the publish boundary; return it unchanged.

    Its continuity must be a ``Continuity`` member other than INVALID
    (a plain int is refused too), its payload 1-D or 2-D with at least
    one time column, and its number non-negative.  A key's sample rate,
    frequency axis (and so its channel count) and alignment counters are
    properties of the plan, checked once by graph validation, not per
    chunk; so is whether the counters fit the canonical chunk interval
    (d + p < length at every merge point).
    """
    code = chunk.continuity
    if not isinstance(code, Continuity):
        raise MetadataError(f"continuity must be a Continuity member, got {code!r}")
    if code is Continuity.INVALID:
        raise MetadataError("invalid chunks (code -1) are never published")
    shape = chunk.payload.shape
    if len(shape) not in (1, 2):
        raise ShapeError(f"payload must be 1-D or 2-D, got ndim={len(shape)}")
    if shape[-1] < 1:
        raise ShapeError("payload time-length must be >= 1")
    if chunk.number < 0:
        raise MetadataError(f"chunk number is negative: {chunk.number}")
    return chunk

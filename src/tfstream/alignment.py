"""Pure alignment-parameter algebra: composition, merging and drop counts.

Composition adds a processor's relative counters to the cumulative
counters of its merged input; merging takes the component-wise maximum so
only regions valid in every incoming representation stay valid.  The drop
counts translate cumulative counters into slice bounds for the three
merge scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .chunks import AlignmentParams


@dataclass(frozen=True, slots=True)
class DropCounts:
    """Slice bounds derived for one incoming chunk at one merge event.

    d_H: columns dropped at the end (high side) of the incoming array.
    d_L: extra columns dropped at the start of a discontinuous chunk.
    d_l: columns dropped at the start of a continuous chunk that is
         merged into a discontinuous result.
    """

    d_H: int
    d_L: int
    d_l: int


def compose(merged: AlignmentParams, feature: AlignmentParams) -> AlignmentParams:
    """Cumulative counters of an outgoing chunk: component-wise sum.

    ``AlignmentParams`` caps every counter, so a sum past the cap raises
    ``MetadataError`` at validation."""
    return AlignmentParams(
        p=merged.p + feature.p,
        d=merged.d + feature.d,
        l=merged.l + feature.l,
        s=merged.s + feature.s,
    )


def merge_params(inputs: Sequence[AlignmentParams]) -> AlignmentParams:
    """Counters of a merged chunk: component-wise maximum over the set,
    which validation guarantees holds at least one key."""
    return AlignmentParams(
        p=max(a.p for a in inputs),
        d=max(a.d for a in inputs),
        l=max(a.l for a in inputs),
        s=max(a.s for a in inputs),
    )


def drop_counts(merged: AlignmentParams, chunk: AlignmentParams) -> DropCounts:
    """Slice bounds for one incoming chunk given the merged counters.

    Requires that merged dominates chunk in p and d, which holds because
    validation produces merged by merge_params over a set containing
    chunk.
    """
    return DropCounts(
        d_H=merged.p - chunk.p,
        d_L=merged.d - chunk.d,
        d_l=merged.d + chunk.p,
    )

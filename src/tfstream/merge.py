"""Merge engine: continuity decision, scenario classification, array merge.

One MergeState lives per consuming processor.  For every completed set of
same-numbered chunks the engine decides the merged continuity, slices each
incoming array according to its scenario, and carries forward the column
tails needed by the next continuous merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .alignment import DropCounts
from .chunks import (
    Continuity,
    DataChunk,
    MergeScenario,
    SourceKey,
    as_continuity,
    is_discontinuous_subtype,
    is_withprevious_subtype,
)
from .errors import (
    EmptyResult,
    InvalidInMerge,
    MissingTail,
    ProtocolError,
    ShapeMismatch,
)


@dataclass
class MergeState:
    """Per-consumer carry-over between consecutive merges.

    drops maps each source key to its drop counts at this consumer.
    They follow from the key's cumulative counters and the consumer's
    merged ones, which are plan constants, so they are derived once per
    run (``GraphPlan.drops``), never per chunk.

    carried_tails maps each source key to the last d_H columns of the
    previously merged incoming array; these become the prepended past of
    the next regular continuous merge.

    decisions maps everything a merge decides from besides the arrays --
    each member's continuity, in set order, and whether the set directly
    follows the last completed one -- to the merged continuity and each
    member's scenario.  These inputs take few distinct values in a run,
    so each distinct combination is computed and checked once, then
    carried forward.
    """

    drops: Mapping[SourceKey, DropCounts]
    last_completed: Optional[int] = None
    carried_tails: Dict[SourceKey, np.ndarray] = field(default_factory=dict)
    decisions: Dict[tuple, "_Decision"] = field(default_factory=dict)


@dataclass(frozen=True)
class _Decision:
    """What one merge decides from its members' continuity."""

    continuity: Continuity
    scenarios: Tuple[MergeScenario, ...]


def _decide(
    n: int,
    last_completed: Optional[int],
    incoming: Sequence[Continuity],
) -> _Decision:
    subtype = decide_continuity(n, last_completed, incoming)
    return _Decision(
        continuity=_refine_continuity(subtype, incoming),
        scenarios=tuple(classify_scenario(c, subtype) for c in incoming),
    )


@dataclass(frozen=True, slots=True)
class MergedChunk:
    """The aligned result of one completed set; all arrays share one
    time extent and one continuity.  The merged counters are the
    consumer's plan constant (``GraphPlan.merged_at``)."""

    number: int
    continuity: Continuity
    payloads: Mapping[SourceKey, np.ndarray]
    scenarios: Mapping[SourceKey, MergeScenario]


def decide_continuity(
    n: int,
    last_completed: Optional[int],
    incoming: Sequence[Continuity],
) -> Continuity:
    """Continuity subtype of the merged chunk.

    Discontinuous when the set does not directly follow the last
    completed set, or when any incoming chunk broke continuity itself;
    withprevious otherwise.
    """
    if not incoming:
        raise InvalidInMerge("empty incoming continuity list")
    for code in incoming:
        if as_continuity(code) is Continuity.INVALID:
            raise InvalidInMerge("invalid chunk (code -1) in merge")
    if last_completed is None or n != last_completed + 1:
        return Continuity.DISCONTINUOUS
    if any(is_discontinuous_subtype(c) for c in incoming):
        return Continuity.DISCONTINUOUS
    return Continuity.WITHPREVIOUS


def classify_scenario(
    chunk_continuity: Continuity,
    merged_continuity: Continuity,
) -> MergeScenario:
    """Map an (incoming, merged) continuity pair onto its merge scenario."""
    for code in (chunk_continuity, merged_continuity):
        if as_continuity(code) is Continuity.INVALID:
            raise InvalidInMerge("invalid chunk (code -1) in merge")
    chunk_cont = is_withprevious_subtype(chunk_continuity)
    merged_cont = is_withprevious_subtype(merged_continuity)
    if chunk_cont and merged_cont:
        return MergeScenario.REGULAR_CONTINUOUS
    if not chunk_cont and not merged_cont:
        return MergeScenario.REGULAR_DISCONTINUOUS
    if chunk_cont and not merged_cont:
        return MergeScenario.IRREGULAR_DISCONTINUOUS
    # A discontinuous chunk can never yield a withprevious merge under
    # decide_continuity; reaching this means corrupted state.
    raise ProtocolError(
        "discontinuous chunk inside a withprevious merge is impossible"
    )


def merge_array(
    scenario: MergeScenario,
    prev_tail: Optional[np.ndarray],
    current: np.ndarray,
    drops: DropCounts,
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice (and for continuous operation, concatenate) one incoming array.

    Returns the merged array and the tail to carry into the next merge.
    Both come from one sequence: prev_tail ++ current for a continuous
    merge, current alone otherwise.  The merged array is that sequence
    without its first d_L (or d_l) and last d_H columns, and the tail is
    its last d_H columns, so a continuous chunk shorter than d_H merges
    carried columns and carries the rest.  The time axis is last; 1-D
    time series follow the same rules with the frequency axis absent.
    """
    if scenario is MergeScenario.REGULAR_CONTINUOUS:
        if prev_tail is None or prev_tail.shape[-1] != drops.d_H:
            got = "none" if prev_tail is None else str(prev_tail.shape[-1])
            raise MissingTail(
                f"regular continuous merge needs a carried tail of "
                f"{drops.d_H} columns, got {got}"
            )
        if drops.d_H:
            current = np.concatenate([prev_tail, current], axis=-1)
        start = 0
    elif scenario is MergeScenario.REGULAR_DISCONTINUOUS:
        start = drops.d_L
    else:
        start = drops.d_l
    stop = current.shape[-1] - drops.d_H
    if stop <= start:
        raise EmptyResult(
            f"merge produced a zero-length chunk (array length "
            f"{current.shape[-1]}, drops {drops}); the chunk time interval "
            f"is too short"
        )
    # Copy, not a view: published chunks may be released by transport,
    # and a view would keep the whole concatenation alive.
    return current[..., start:stop], current[..., stop:].copy()


def _refine_continuity(
    subtype: Continuity, incoming: Sequence[Continuity]
) -> Continuity:
    """Preserve the special codes within the decided subtype family.

    Calibration and newfile travel downstream so consumers can react;
    last marks the final chunk of a file on every path.
    """
    codes = [as_continuity(c) for c in incoming]
    if subtype is Continuity.DISCONTINUOUS:
        if any(c is Continuity.CALIBRATION for c in codes):
            return Continuity.CALIBRATION
        if all(c is Continuity.NEWFILE for c in codes):
            return Continuity.NEWFILE
        return Continuity.DISCONTINUOUS
    if any(c is Continuity.LAST for c in codes):
        return Continuity.LAST
    return Continuity.WITHPREVIOUS


def complete_merge(
    state: MergeState,
    chunk_set: Mapping[SourceKey, DataChunk],
    n: int,
) -> Tuple[MergedChunk, MergeState]:
    """Merge one completed set into a MergedChunk and advance the state.

    The fresh tails (see ``merge_array``) are always retained: a merge
    directly following a discontinuous one is regular continuous and
    needs them.
    """
    if not chunk_set:
        raise InvalidInMerge("empty chunk set")
    chunks = chunk_set.values()
    for chunk in chunks:
        if chunk.number != n:
            raise ProtocolError(
                f"chunk {chunk.source_key} has number {chunk.number}, "
                f"expected {n}"
            )
    incoming = tuple([c.continuity for c in chunks])
    last = state.last_completed
    follows = last is not None and n == last + 1
    decision = state.decisions.get((incoming, follows))
    if decision is None:
        decision = state.decisions[incoming, follows] = _decide(
            n, last, incoming)

    payloads: Dict[SourceKey, np.ndarray] = {}
    scenarios: Dict[SourceKey, MergeScenario] = {}
    tails: Dict[SourceKey, np.ndarray] = {}
    carried, drops = state.carried_tails, state.drops
    length, uneven = None, False
    for (key, chunk), scenario in zip(chunk_set.items(), decision.scenarios):
        payload, tails[key] = merge_array(
            scenario, carried.get(key), chunk.payload, drops[key]
        )
        payloads[key] = payload
        scenarios[key] = scenario
        if length is None:
            length = payload.shape[-1]
        elif payload.shape[-1] != length:
            uneven = True
    if uneven:
        lengths = {key: arr.shape[-1] for key, arr in payloads.items()}
        raise ShapeMismatch(f"merged arrays disagree in time extent: {lengths}")

    merged = MergedChunk(
        number=n,
        continuity=decision.continuity,
        payloads=payloads,
        scenarios=scenarios,
    )
    return merged, MergeState(drops, n, tails, state.decisions)

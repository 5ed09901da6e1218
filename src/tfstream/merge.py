"""Merge engine: the fusion rule and the array merge.

One MergeState lives per consuming processor.  For every completed set
of same-numbered chunks, ``decide`` states the fusion rule: from the
members' continuity codes and whether the set directly follows the last
completed one, it gives the merged continuity and each member's merge
scenario.  ``merge_array`` then slices each incoming array according to
its scenario and carries forward the column tails needed by the next
continuous merge: the d_H columns it holds back and the consumer's
``history`` columns before them.  So, like the overlap in overlap-add,
the merge is the one owner of carried input; no transform keeps any.

A merge trusts what validation and the two boundaries guarantee: every
member's code is a valid ``Continuity`` member (the publish check
refuses INVALID and plain ints; the wire decoder turns codes into
members and refuses INVALID), the buffer completes sets of one number
only, a set has at least one member, and each key's drop counts come
from counters that the merged ones dominate.  The one runtime tripwire
of the alignment algebra is ``ShapeMismatch``: merged arrays that
disagree in time extent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .alignment import DropCounts
from .chunks import Continuity, DataChunk, MergeScenario, SourceKey
from .errors import EmptyResult, ShapeMismatch


@dataclass
class MergeState:
    """Per-consumer carry-over between consecutive merges.

    drops maps each source key to its drop counts at this consumer.
    They follow from the key's cumulative counters and the consumer's
    merged ones, which are plan constants, so they are derived once per
    run (``GraphPlan.drops``), never per chunk.

    carried_tails maps each source key to the last d_H + history columns
    of the previously merged incoming array (history: the consumer's
    ``Processor.history``); these become the prepended past of the next
    regular continuous merge.

    decisions maps everything a merge decides from besides the arrays --
    each member's continuity, in set order, and whether the set directly
    follows the last completed one -- to the merged continuity and each
    member's scenario (``decide``).  These inputs take few distinct
    values in a run, so each distinct combination is decided once, then
    carried forward.
    """

    drops: Mapping[SourceKey, DropCounts]
    history: int = 0
    last_completed: Optional[int] = None
    carried_tails: Dict[SourceKey, np.ndarray] = field(default_factory=dict)
    decisions: Dict[tuple, "_Decision"] = field(default_factory=dict)


@dataclass(frozen=True)
class _Decision:
    """What one merge decides from its members' continuity."""

    continuity: Continuity
    scenarios: Tuple[MergeScenario, ...]


def decide(codes: Tuple[Continuity, ...], follows: bool) -> _Decision:
    """The fusion rule: the merged continuity and each member's scenario,
    from the members' codes in set order and whether the set directly
    follows the last completed one.

    The merge is continuous only when the set follows and every member
    is continuous; then each member merges regular continuous, and LAST
    on any member is kept.  Otherwise the merge is discontinuous: a
    discontinuous member merges regular discontinuous and a continuous
    one irregular discontinuous; CALIBRATION on any member, or NEWFILE
    on every member, is kept so consumers can react.
    """
    if follows and all(code.continuous for code in codes):
        last = any(code is Continuity.LAST for code in codes)
        return _Decision(
            Continuity.LAST if last else Continuity.WITHPREVIOUS,
            (MergeScenario.REGULAR_CONTINUOUS,) * len(codes))
    if any(code is Continuity.CALIBRATION for code in codes):
        continuity = Continuity.CALIBRATION
    elif all(code is Continuity.NEWFILE for code in codes):
        continuity = Continuity.NEWFILE
    else:
        continuity = Continuity.DISCONTINUOUS
    return _Decision(continuity, tuple(
        MergeScenario.IRREGULAR_DISCONTINUOUS if code.continuous
        else MergeScenario.REGULAR_DISCONTINUOUS for code in codes))


@dataclass(frozen=True, slots=True)
class MergedChunk:
    """The aligned result of one completed set; all arrays share one
    time extent and one continuity.  A continuous merge begins with the
    last ``history`` columns of the previous one, then the new columns.
    The merged counters are the consumer's plan constant
    (``GraphPlan.merged_at``)."""

    number: int
    continuity: Continuity
    payloads: Mapping[SourceKey, np.ndarray]
    scenarios: Mapping[SourceKey, MergeScenario]


def merge_array(
    scenario: MergeScenario,
    prev_tail: Optional[np.ndarray],
    current: np.ndarray,
    drops: DropCounts,
    history: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice (and for continuous operation, concatenate) one incoming array.

    Returns the merged array and the tail to carry into the next merge.
    Both come from one sequence: prev_tail ++ current for a continuous
    merge, current alone otherwise.  The merged array is that sequence
    without its first d_L (or d_l) and last d_H columns, and the tail is
    its last d_H + history columns, so a continuous merge begins with
    the previous merge's last ``history`` columns, and a continuous
    chunk shorter than d_H merges carried columns and carries the rest.
    A merge that keeps no column past ``history`` raises EmptyResult.
    The time axis is last; 1-D time series follow the same rules with
    the frequency axis absent.
    """
    if scenario is MergeScenario.REGULAR_CONTINUOUS:
        if drops.d_H + history:
            current = np.concatenate([prev_tail, current], axis=-1)
        start = 0
    elif scenario is MergeScenario.REGULAR_DISCONTINUOUS:
        start = drops.d_L
    else:
        start = drops.d_l
    stop = current.shape[-1] - drops.d_H
    if stop - start <= history:
        raise EmptyResult(
            f"merge of {current.shape[-1]} columns (drops {drops}) keeps "
            f"none past a history of {history}; the chunk is too short")
    # Copy, not a view: published chunks may be released by transport,
    # and a view would keep the whole concatenation alive.
    return current[..., start:stop], current[..., stop - history:].copy()


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
    codes = tuple([c.continuity for c in chunk_set.values()])
    last = state.last_completed
    follows = last is not None and n == last + 1
    decision = state.decisions.get((codes, follows))
    if decision is None:
        decision = state.decisions[codes, follows] = decide(codes, follows)

    payloads: Dict[SourceKey, np.ndarray] = {}
    scenarios: Dict[SourceKey, MergeScenario] = {}
    tails: Dict[SourceKey, np.ndarray] = {}
    carried, drops = state.carried_tails, state.drops
    length, uneven = None, False
    for (key, chunk), scenario in zip(chunk_set.items(), decision.scenarios):
        payload, tails[key] = merge_array(
            scenario, carried.get(key), chunk.payload, drops[key],
            state.history)
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
    return merged, MergeState(drops, state.history, n, tails, state.decisions)

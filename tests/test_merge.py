"""Merge engine: the fusion rule, scenarios, slice correctness.

The slice tests label every payload value with its position on the
physical timeline, so a merge is correct exactly when the merged values
are the uninterrupted integer range the protocol promises.
"""

import itertools

import numpy as np
import pytest

from tfstream.chunks import (
    AlignmentParams,
    Continuity,
    DataChunk,
    MergeScenario,
)
from tfstream.errors import EmptyResult, ShapeMismatch
from tfstream.merge import MergeState, complete_merge, decide, merge_array
from tfstream.alignment import DropCounts, drop_counts

W = Continuity.WITHPREVIOUS
D = Continuity.DISCONTINUOUS
VALID = [code for code in Continuity if code is not Continuity.INVALID]


def test_decide_continuity_first_set_is_discontinuous():
    assert decide((W,), False).continuity is D


def test_decide_continuity_gap_is_discontinuous():
    assert decide((W, W), False).continuity is D


def test_decide_continuity_any_discontinuous_member_wins():
    assert decide((W, D), True).continuity is D
    assert decide((Continuity.NEWFILE, W), True).continuity is D


def test_decide_continuity_sequential_continuous():
    assert decide((W, W), True).continuity is Continuity.WITHPREVIOUS
    assert decide((Continuity.LAST,), True).continuity is Continuity.LAST


def test_classify_scenario_table():
    assert decide((W, W), True).scenarios == (
        MergeScenario.REGULAR_CONTINUOUS,) * 2
    assert decide((D, W), True).scenarios == (
        MergeScenario.REGULAR_DISCONTINUOUS,
        MergeScenario.IRREGULAR_DISCONTINUOUS)
    assert decide((W, D), False).scenarios == (
        MergeScenario.IRREGULAR_DISCONTINUOUS,
        MergeScenario.REGULAR_DISCONTINUOUS)


def test_classify_scenario_impossible_pair():
    """Over every valid combination of up to three codes: a merge is
    continuous exactly when the set follows and every member is, so a
    discontinuous member never meets a continuous merge; each scenario
    follows from its member's and the merge's continuity, and LAST and
    CALIBRATION travel within their family."""
    for size in (1, 2, 3):
        for codes in itertools.product(VALID, repeat=size):
            for follows in (False, True):
                decision = decide(codes, follows)
                merged = decision.continuity
                assert merged.continuous is (
                    follows and all(c.continuous for c in codes))
                if merged.continuous:
                    assert (merged is Continuity.LAST) is (
                        Continuity.LAST in codes)
                    assert set(decision.scenarios) == {
                        MergeScenario.REGULAR_CONTINUOUS}
                    continue
                assert (merged is Continuity.CALIBRATION) is (
                    Continuity.CALIBRATION in codes)
                for code, scenario in zip(codes, decision.scenarios):
                    assert scenario is (
                        MergeScenario.IRREGULAR_DISCONTINUOUS
                        if code.continuous
                        else MergeScenario.REGULAR_DISCONTINUOUS)


def test_merge_array_continuous_needs_tail():
    """A continuous merge always finds a carried tail of exactly d_H
    columns: every merge, continuous or not, leaves one per key."""
    drops = DropCounts(d_H=2, d_L=1, d_l=3)
    for scenario in MergeScenario:
        continuous = scenario is MergeScenario.REGULAR_CONTINUOUS
        tail = np.arange(2.0) if continuous else None
        _, carried = merge_array(scenario, tail, np.arange(10.0), drops)
        np.testing.assert_array_equal(carried, [8.0, 9.0])


def test_merge_array_empty_result():
    with pytest.raises(EmptyResult):
        merge_array(MergeScenario.REGULAR_DISCONTINUOUS, None,
                    np.arange(4.0), DropCounts(d_H=2, d_L=2, d_l=0))


# --- timeline-labelled merges -------------------------------------------

E = 20  # canonical chunk interval


def producer_chunk(key, n, align, continuity):
    """Chunk n of a representation with cumulative counters `align`,
    payload values = physical time positions.  The counters are the
    key's, not the chunk's: a merge takes them from its MergeState."""
    p, d = align.p, align.d
    if continuity in (W, Continuity.LAST):
        lo, hi = n * E - p, (n + 1) * E - p
    else:
        lo, hi = n * E + d, (n + 1) * E - p
    return DataChunk(
        number=n,
        source_key=key,
        payload=np.arange(lo, hi, dtype=float),
        continuity=continuity,
    )


A = ("a", "x")
B = ("b", "y")
ALIGN_A = AlignmentParams(p=2, d=5)
ALIGN_B = AlignmentParams(p=4, d=3)
MERGED = AlignmentParams(p=4, d=5)  # component-wise max
#: each key's drop counts at the consumer, as the plan derives them
DROPS = {A: drop_counts(MERGED, ALIGN_A), B: drop_counts(MERGED, ALIGN_B)}


def merged_range(n, continuity):
    if continuity is W:
        return np.arange(n * E - MERGED.p, (n + 1) * E - MERGED.p, dtype=float)
    return np.arange(n * E + MERGED.d, (n + 1) * E - MERGED.p, dtype=float)


def test_regular_discontinuous_then_continuous_sequence():
    state = MergeState(DROPS)
    chunk_set = {k: producer_chunk(k, 0, a, D)
                 for k, a in ((A, ALIGN_A), (B, ALIGN_B))}
    merged, state = complete_merge(state, chunk_set, 0)
    assert merged.continuity is D
    assert all(s is MergeScenario.REGULAR_DISCONTINUOUS
               for s in merged.scenarios.values())
    for key in (A, B):
        np.testing.assert_array_equal(merged.payloads[key], merged_range(0, D))

    for n in (1, 2, 3):
        chunk_set = {k: producer_chunk(k, n, a, W)
                     for k, a in ((A, ALIGN_A), (B, ALIGN_B))}
        merged, state = complete_merge(state, chunk_set, n)
        assert merged.continuity is W
        assert all(s is MergeScenario.REGULAR_CONTINUOUS
                   for s in merged.scenarios.values())
        for key in (A, B):
            np.testing.assert_array_equal(merged.payloads[key],
                                          merged_range(n, W))


def test_irregular_discontinuous_after_gap():
    state = MergeState(DROPS)
    merged, state = complete_merge(
        state,
        {k: producer_chunk(k, 0, a, D) for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        0,
    )
    # set 1 was lost in transit; set 2 arrives with withprevious members
    chunk_set = {k: producer_chunk(k, 2, a, W)
                 for k, a in ((A, ALIGN_A), (B, ALIGN_B))}
    merged, state = complete_merge(state, chunk_set, 2)
    assert merged.continuity is D
    assert all(s is MergeScenario.IRREGULAR_DISCONTINUOUS
               for s in merged.scenarios.values())
    for key in (A, B):
        np.testing.assert_array_equal(merged.payloads[key], merged_range(2, D))


def test_continuous_merge_directly_after_discontinuous_one():
    # the tails collected during a discontinuous merge must feed the next
    # continuous merge; coverage stays gap-free across the pair
    state = MergeState(DROPS)
    merged0, state = complete_merge(
        state,
        {k: producer_chunk(k, 0, a, D) for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        0,
    )
    merged1, state = complete_merge(
        state,
        {k: producer_chunk(k, 1, a, W) for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        1,
    )
    for key in (A, B):
        both = np.concatenate([merged0.payloads[key], merged1.payloads[key]])
        np.testing.assert_array_equal(
            both, np.arange(MERGED.d, 2 * E - MERGED.p, dtype=float)
        )


def test_continuous_chunks_shorter_than_the_held_back_columns():
    """Chunks of 2 and 3 columns against A's d_H = 5 (as a short final
    chunk reaches ptn): those merges take carried columns only, and the
    merged values still run without a gap or a repeat."""
    align_a, align_b = AlignmentParams(p=0, d=0), AlignmentParams(p=5, d=0)
    bounds = [0, 20, 22, 24, 27, 40]
    merged_align = AlignmentParams(p=5, d=0)
    state = MergeState({A: drop_counts(merged_align, align_a),
                        B: drop_counts(merged_align, align_b)})
    parts = {A: [], B: []}
    for n, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        continuity = D if n == 0 else W
        chunk_set = {
            key: DataChunk(
                number=n, source_key=key,
                payload=np.arange(lo + (align.d if n == 0 else -align.p),
                                  hi - align.p, dtype=float),
                continuity=continuity)
            for key, align in ((A, align_a), (B, align_b))
        }
        merged, state = complete_merge(state, chunk_set, n)
        for key in (A, B):
            assert merged.payloads[key].shape == (hi - lo - 5 * (n == 0),)
            parts[key].append(merged.payloads[key])
    for key in (A, B):
        np.testing.assert_array_equal(np.concatenate(parts[key]),
                                      np.arange(0.0, 35.0))


def test_refined_continuity_codes_travel():
    state = MergeState(DROPS)
    merged, state = complete_merge(
        state,
        {k: producer_chunk(k, 0, a, Continuity.CALIBRATION)
         for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        0,
    )
    assert merged.continuity is Continuity.CALIBRATION

    state = MergeState(DROPS)
    merged, state = complete_merge(
        state,
        {k: producer_chunk(k, 0, a, Continuity.NEWFILE)
         for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        0,
    )
    assert merged.continuity is Continuity.NEWFILE


def test_last_marker_survives_merge():
    state = MergeState(DROPS)
    _, state = complete_merge(
        state,
        {k: producer_chunk(k, 0, a, D) for k, a in ((A, ALIGN_A), (B, ALIGN_B))},
        0,
    )
    merged, _ = complete_merge(
        state,
        {A: producer_chunk(A, 1, ALIGN_A, Continuity.LAST),
         B: producer_chunk(B, 1, ALIGN_B, W)},
        1,
    )
    assert merged.continuity is Continuity.LAST


def test_complete_merge_rejects_mismatched_extents():
    state = MergeState(DROPS)
    good = producer_chunk(A, 0, ALIGN_A, D)
    bad = DataChunk(
        number=0, source_key=B, payload=np.arange(7.0), continuity=D,
    )
    with pytest.raises(ShapeMismatch):
        complete_merge(state, {A: good, B: bad}, 0)


def test_merged_payloads_share_time_extent_2d():
    # 2-D payloads slice along the last axis only
    state = MergeState(DROPS)
    chunk = DataChunk(
        number=0, source_key=A,
        payload=np.arange(3 * (E - ALIGN_A.d - ALIGN_A.p), dtype=float)
        .reshape(3, -1),
        continuity=D,
    )
    other = producer_chunk(B, 0, ALIGN_B, D)
    merged, _ = complete_merge(MergeState(DROPS), {A: chunk, B: other}, 0)
    assert merged.payloads[A].shape[0] == 3
    assert merged.payloads[A].shape[-1] == merged.payloads[B].shape[-1]


def test_a_warm_state_merges_a_reordered_set_by_its_keys():
    """Decisions are kept per codes in set order, drop counts per key:
    a set whose keys come in another order than the sets before it
    still slices each key by that key's own drops."""
    state = MergeState(DROPS)
    for n in range(4):
        members = ((A, ALIGN_A), (B, ALIGN_B))
        if n >= 2:
            members = members[::-1]
        merged, state = complete_merge(
            state,
            {k: producer_chunk(k, n, a, D if n == 0 else W) for k, a in members},
            n,
        )
        for key in (A, B):
            np.testing.assert_array_equal(merged.payloads[key],
                                          merged_range(n, merged.continuity))


def test_merge_carries_history_for_a_chunk_exact_moving_sum():
    """A consumer whose kernel reads d = 4 columns before and p = 3 after
    each output declares history 7, and merges A (p = 0, so d_H = 2) with
    B (p = 2), so one merge carries both d_H and the history.  Over
    uneven chunks, continuous ones of 1 and 2 columns and a lost number,
    each continuous merge begins with the previous one's last 7 columns,
    and a moving sum over each merged chunk alone equals the whole-signal
    moving sum at every position it covers, without a gap or a repeat
    except across the break.  A merge after the break that would keep
    only 7 columns raises EmptyResult."""
    d, p = 4, 3
    history = d + p
    align_a, align_b = AlignmentParams(p=0, d=0), AlignmentParams(p=2, d=0)
    merged_align = AlignmentParams(p=2, d=0)
    # integers, so that every summation order gives the same bits
    signal = np.random.default_rng(16).integers(-999, 999, 200).astype(float)
    # value at t: signal[t - d .. t + p]
    ref = np.convolve(signal, np.ones(history + 1), mode="valid")

    def chunk(key, align, n, lo, hi, continuity):
        """Source columns [lo, hi) as ``key`` publishes them: A its
        positions, B the signal values there."""
        shift = -align.p if continuity.continuous else align.d
        positions = np.arange(lo + shift, hi - align.p)
        payload = positions.astype(float) if key == A else signal[positions]
        return DataChunk(number=n, source_key=key, payload=payload,
                         continuity=continuity)

    state = MergeState({A: drop_counts(merged_align, align_a),
                        B: drop_counts(merged_align, align_b)}, history)
    bounds = {0: (0, 30), 1: (30, 31), 2: (31, 33), 3: (33, 71),
              4: (71, 72), 5: (72, 90),    # 6 is lost
              7: (101, 110), 8: (110, 150), 9: (150, 152), 10: (152, 200)}
    covered, previous = [], None
    for n, (lo, hi) in bounds.items():
        continuity = D if n == 0 else W
        chunk_set = {key: chunk(key, align, n, lo, hi, continuity)
                     for key, align in ((A, align_a), (B, align_b))}
        if n == 7:
            # the first set after the gap keeps 9 - 2 = 7 columns
            with pytest.raises(EmptyResult):
                complete_merge(state, chunk_set, n)
            continue
        merged, state = complete_merge(state, chunk_set, n)
        positions = merged.payloads[A].astype(int)
        np.testing.assert_array_equal(merged.payloads[B], signal[positions])
        if merged.continuity.continuous:
            np.testing.assert_array_equal(positions[:history],
                                          previous[-history:])
            assert positions.size == history + hi - lo
        else:
            # n = 8: 8 follows 5, not 7, so it merges irregular
            # discontinuous, without carried columns
            assert n in (0, 8)
        window_sums = np.convolve(merged.payloads[B], np.ones(history + 1),
                                  mode="valid")
        out = positions[d : positions.size - p]
        np.testing.assert_array_equal(window_sums, ref[out - d])
        covered.append(out)
        previous = positions
    covered = np.concatenate(covered)
    # set 5 merges up to position 87, set 8 from 110 and set 10 up to 197
    expected = np.concatenate([np.arange(d, 88 - p), np.arange(110 + d, 198 - p)])
    np.testing.assert_array_equal(covered, expected)

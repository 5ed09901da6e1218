"""Alignment counter algebra: composition, merge, drop counts.

Property tests cover the algebraic laws; the bulk randomized sweep for
the acceptance gate lives in test_acceptance.py.
"""

import pytest
from hypothesis import given, strategies as st

from tfstream.alignment import DropCounts, compose, drop_counts, merge_params
from tfstream.chunks import AlignmentParams, MAX_COUNTER, ZERO_ALIGNMENT
from tfstream.errors import ConfigError, MetadataError
from tfstream.graph import config_from_dict, validate_graph

counters = st.integers(min_value=0, max_value=10_000)
params = st.builds(AlignmentParams, p=counters, d=counters, l=counters, s=counters)


def test_compose_example():
    merged = AlignmentParams(p=40, d=263, l=0, s=0)
    feature = AlignmentParams(p=0, d=40, l=3, s=3)
    assert compose(merged, feature) == AlignmentParams(p=40, d=303, l=3, s=3)


def test_merge_params_example():
    a = AlignmentParams(p=0, d=263)
    b = AlignmentParams(p=40, d=303, l=3, s=3)
    assert merge_params([a, b]) == AlignmentParams(p=40, d=303, l=3, s=3)


def test_merge_params_empty_input():
    """merge_params never sees an empty set: validation refuses a
    transform without incoming edges before it merges anything."""
    raw = {"processors": [
        {"name": "mic", "kind": "mic_input", "params": {}},
        {"name": "r", "kind": "resampler", "params": {"factor": 2}},
    ], "edges": []}
    with pytest.raises(ConfigError, match="'r' has no incoming edges"):
        validate_graph(config_from_dict(raw))


def test_drop_counts_example():
    merged = AlignmentParams(p=40, d=303)
    chunk = AlignmentParams(p=0, d=263)
    drops = drop_counts(merged, chunk)
    assert drops == DropCounts(d_H=40, d_L=40, d_l=303)


def test_compose_overflow_guard():
    """A sum past the cap fails where AlignmentParams is built."""
    big = AlignmentParams(p=MAX_COUNTER)
    with pytest.raises(MetadataError, match="exceeds"):
        compose(big, AlignmentParams(p=1))


@given(a=params, b=params, c=params)
def test_compose_is_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(a=params)
def test_compose_identity(a):
    assert compose(a, ZERO_ALIGNMENT) == a
    assert compose(ZERO_ALIGNMENT, a) == a


@given(a=params, b=params)
def test_merge_params_commutative(a, b):
    assert merge_params([a, b]) == merge_params([b, a])


@given(a=params, b=params, c=params)
def test_merge_params_associative(a, b, c):
    assert merge_params([merge_params([a, b]), c]) == merge_params([a, b, c])


@given(a=params)
def test_merge_params_idempotent(a):
    assert merge_params([a, a]) == a


@given(inputs=st.lists(params, min_size=1, max_size=5))
def test_merge_params_dominates_every_input(inputs):
    merged = merge_params(inputs)
    for a in inputs:
        assert merged.p >= a.p and merged.d >= a.d
        assert merged.l >= a.l and merged.s >= a.s


@given(inputs=st.lists(params, min_size=1, max_size=5))
def test_drop_counts_non_negative_under_domination(inputs):
    merged = merge_params(inputs)
    for a in inputs:
        drops = drop_counts(merged, a)
        assert drops.d_H >= 0
        assert drops.d_L >= 0
        assert drops.d_l >= 0


@given(a=params, b=params)
def test_drop_counts_relations(a, b):
    merged = merge_params([a, b])
    drops = drop_counts(merged, a)
    # the start drop of a continuous chunk in a discontinuous merge spans
    # the merged causal depth plus the chunk's own non-causal lead
    assert drops.d_l == merged.d + a.p
    assert drops.d_H == merged.p - a.p
    assert drops.d_L == merged.d - a.d

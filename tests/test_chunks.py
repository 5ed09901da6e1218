"""Chunk model: continuity codes, counters, the publish check."""

import numpy as np
import pytest

from tfstream.chunks import (
    AlignmentParams,
    Continuity,
    DataChunk,
    MAX_COUNTER,
    check_publishable,
)
from tfstream.errors import MetadataError, ShapeError


def make_chunk(payload=None, **kw):
    defaults = dict(
        number=0,
        source_key=("src", "snd"),
        payload=np.zeros(100) if payload is None else payload,
        continuity=Continuity.DISCONTINUOUS,
    )
    defaults.update(kw)
    return DataChunk(**defaults)


def test_continuity_codes_match_wire_values():
    assert Continuity.INVALID == -1
    assert Continuity.DISCONTINUOUS == 0
    assert Continuity.NEWFILE == 1
    assert Continuity.CALIBRATION == 2
    assert Continuity.WITHPREVIOUS == 10
    assert Continuity.LAST == 11


@pytest.mark.parametrize("code,expected", [
    (Continuity.DISCONTINUOUS, True),
    (Continuity.NEWFILE, True),
    (Continuity.CALIBRATION, True),
    (Continuity.WITHPREVIOUS, False),
    (Continuity.LAST, False),
])
def test_discontinuous_subtypes(code, expected):
    assert code.continuous is (not expected)


def test_subtype_families_are_disjoint():
    """One comparison splits the valid codes: WITHPREVIOUS and LAST are
    continuous, every other valid code breaks continuity."""
    continuous = {code for code in Continuity if code.continuous}
    assert continuous == {Continuity.WITHPREVIOUS, Continuity.LAST}
    assert not Continuity.INVALID.continuous


def test_alignment_params_reject_negative():
    with pytest.raises(MetadataError):
        AlignmentParams(p=-1)
    with pytest.raises(MetadataError):
        AlignmentParams(d=-3)


def test_alignment_params_reject_overflow():
    with pytest.raises(MetadataError):
        AlignmentParams(p=MAX_COUNTER + 1)


def test_alignment_params_reject_non_integer():
    with pytest.raises(MetadataError):
        AlignmentParams(p=1.5)


def test_validate_accepts_1d_and_2d():
    check_publishable(make_chunk(np.zeros(10)))
    check_publishable(make_chunk(np.zeros((4, 10))))


def test_validate_rejects_3d():
    with pytest.raises(ShapeError):
        check_publishable(make_chunk(np.zeros((2, 3, 4))))


def test_validate_rejects_empty_time_axis():
    with pytest.raises(ShapeError):
        check_publishable(make_chunk(np.zeros((4, 0))))


def test_validate_rejects_negative_number():
    with pytest.raises(MetadataError):
        check_publishable(make_chunk(number=-1))


def test_validate_rejects_unknown_continuity():
    with pytest.raises(MetadataError):
        check_publishable(make_chunk(continuity=7))


@pytest.mark.parametrize("code", [0, 10, 11])
def test_publish_rejects_a_plain_int_continuity(code):
    """Inside the program a continuity is always a member: a valid code
    as a plain int is refused at the publish boundary."""
    with pytest.raises(MetadataError, match="must be a Continuity member"):
        check_publishable(make_chunk(continuity=code))


def test_validation_is_idempotent():
    chunk = make_chunk(np.zeros((4, 10)))
    assert check_publishable(check_publishable(chunk)) is chunk


def test_invalid_chunks_are_never_publishable():
    chunk = make_chunk(continuity=Continuity.INVALID)
    with pytest.raises(MetadataError):
        check_publishable(chunk)


def test_publishable_passes_all_other_codes():
    for code in Continuity:
        if code is Continuity.INVALID:
            continue
        check_publishable(make_chunk(continuity=code))

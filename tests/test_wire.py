"""Framed transport codec: round trips, corruption detection, atomicity."""

from io import BytesIO

import numpy as np
import pytest

from tfstream.chunks import Continuity, DataChunk
from tfstream.errors import ChecksumError, VersionError, WireError
from tfstream.graph import Edge
from tfstream.runtime import _TcpLink
from tfstream.wire import (
    MAGIC,
    MAX_HEADER_LEN,
    VERSION,
    decode,
    decode_stream,
    encode,
)

#: every code a publish sends: decoding rejects INVALID (-1)
CODES = [c for c in Continuity if c is not Continuity.INVALID]


def random_chunk(rng):
    ndim = int(rng.integers(1, 3))
    if ndim == 1:
        shape = (int(rng.integers(1, 40)),)
    else:
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 40)))
    payload = rng.standard_normal(shape).astype("<f4").astype("<f8")
    return DataChunk(
        number=int(rng.integers(0, 2**40)),
        source_key=(f"p{rng.integers(10)}", f"f{rng.integers(10)}"),
        payload=payload,
        continuity=CODES[int(rng.integers(len(CODES)))],
    )


def assert_chunks_equal(a, b):
    assert a.number == b.number
    assert a.source_key == b.source_key
    assert a.continuity == b.continuity
    np.testing.assert_array_equal(a.payload, b.payload)


def test_round_trip_float64_is_bit_exact():
    rng = np.random.default_rng(0)
    chunk = random_chunk(rng)
    assert_chunks_equal(decode(encode(chunk, dtype="<f8")), chunk)


def test_round_trip_float32_quantizes_payload_only():
    rng = np.random.default_rng(1)
    chunk = random_chunk(rng)
    out = decode(encode(chunk, dtype="<f4"))
    np.testing.assert_array_equal(
        out.payload, chunk.payload.astype("<f4").astype("<f8")
    )
    assert out.number == chunk.number
    assert out.continuity == chunk.continuity


def test_many_randomized_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(500):
        chunk = random_chunk(rng)
        assert_chunks_equal(decode(encode(chunk, dtype="<f8")), chunk)


def test_every_single_byte_corruption_is_detected():
    rng = np.random.default_rng(3)
    chunk = random_chunk(rng)
    frame = bytearray(encode(chunk, dtype="<f8"))
    for pos in range(len(frame)):
        for flip in (0x01, 0xFF):
            corrupted = bytearray(frame)
            corrupted[pos] ^= flip
            with pytest.raises(WireError):
                decode(bytes(corrupted))


def test_version_gate():
    """Version 1 frames, which carried rate and axis, and version 2
    frames, which carried the counters, are refused whole, as are frames
    of a later version."""
    rng = np.random.default_rng(4)
    frame = bytearray(encode(random_chunk(rng)))
    for version in (1, 2, VERSION + 1):
        frame[4:6] = version.to_bytes(2, "little")
        with pytest.raises(VersionError):
            decode(bytes(frame))


def test_bad_magic():
    rng = np.random.default_rng(5)
    frame = b"XXXX" + encode(random_chunk(rng))[4:]
    with pytest.raises(WireError):
        decode(frame)


def test_truncated_frame():
    rng = np.random.default_rng(6)
    frame = encode(random_chunk(rng))
    for cut in (3, 9, len(frame) // 2, len(frame) - 1):
        with pytest.raises(WireError):
            decode(frame[:cut])


def test_flipped_payload_byte_is_checksum_error():
    rng = np.random.default_rng(7)
    chunk = random_chunk(rng)
    frame = bytearray(encode(chunk, dtype="<f8"))
    # a byte well inside the payload region
    frame[-12] ^= 0x10
    with pytest.raises(ChecksumError):
        decode(bytes(frame))


def test_trailing_bytes_rejected():
    rng = np.random.default_rng(8)
    frame = encode(random_chunk(rng)) + b"\x00"
    with pytest.raises(WireError):
        decode(frame)


def test_stream_of_frames_decodes_in_order():
    rng = np.random.default_rng(9)
    chunks = [random_chunk(rng) for _ in range(20)]
    stream = BytesIO(b"".join(encode(c, dtype="<f8") for c in chunks))
    for original in chunks:
        assert_chunks_equal(decode_stream(stream), original)
    assert stream.read() == b""


class Trickle:
    """A socket end that hands out at most ``step`` bytes per read."""

    def __init__(self, sock, step):
        self._sock = sock
        self._step = step

    def recv_into(self, buffer):
        return self._sock.recv_into(buffer[:self._step])

    def close(self):
        self._sock.close()


@pytest.mark.parametrize("step", [1, 2, 3, 5, 4096])
def test_skip_to_magic_finds_a_magic_split_across_reads(step):
    """A TCP link reassembles bytes that arrive a few at a time, then
    skips junk holding false starts of the magic to the intact frames."""
    rng = np.random.default_rng(10)
    chunks = [random_chunk(rng) for _ in range(4)]
    data = b"xxTF" + b"TFS" + b"".join(encode(c, dtype="<f8") for c in chunks)
    delivered, errors = [], []
    link = _TcpLink(Edge("p", "f", "c", transport="tcp::0", wire_dtype="<f8"),
                    delivered.append, errors.append)
    link._rx = Trickle(link._rx, step)
    try:
        link.transfer(data)
    finally:
        link.close()
    assert errors == ["p.f->c"]
    assert len(delivered) == len(chunks)
    for got, original in zip(delivered, chunks):
        assert_chunks_equal(got, original)


def test_oversized_header_length_is_rejected_before_reading_it():
    """A damaged header length must not make the reader wait for bytes
    that may never come."""
    frame = bytearray(encode(random_chunk(np.random.default_rng(4))))
    frame[6:10] = (MAX_HEADER_LEN + 1).to_bytes(4, "little")
    stream = BytesIO(bytes(frame))
    with pytest.raises(WireError, match="header length"):
        decode_stream(stream)
    assert stream.tell() == 10
    named = DataChunk(number=0, source_key=("p" * 65535, "f"),
                      payload=np.zeros((2, 1)),
                      continuity=Continuity.DISCONTINUOUS)
    with pytest.raises(WireError, match="exceeds"):
        encode(named)


def test_magic_constant_stable():
    assert MAGIC == b"TFSB"
    assert VERSION == 3

"""Framed transport codec: round trips, corruption detection, atomicity."""

import json
from io import BytesIO

import numpy as np
import pytest

from tfstream.chunkfile import ChunkFileWriter, read_chunk_file
from tfstream.chunks import AlignmentParams, Continuity, DataChunk
from tfstream.errors import ChecksumError, VersionError, WireError
from tfstream.graph import Edge
from tfstream.runtime import _TcpLink
from tfstream.wire import MAGIC, VERSION, decode, decode_stream, encode

#: every code a publish sends: decoding rejects INVALID (-1)
CODES = [c for c in Continuity if c is not Continuity.INVALID]


def random_chunk(rng, key=None, lead=None):
    """A chunk of random number, continuity, time extent and values; of
    ``key`` and ``lead`` shape when given, else of random ones."""
    if lead is None:
        ndim = int(rng.integers(1, 3))
        lead = () if ndim == 1 else (int(rng.integers(1, 12)),)
    payload = rng.standard_normal(
        (*lead, int(rng.integers(1, 40)))).astype("<f4").astype("<f8")
    return DataChunk(
        number=int(rng.integers(0, 2**40)),
        source_key=key or (f"p{rng.integers(10)}", f"f{rng.integers(10)}"),
        payload=payload,
        continuity=CODES[int(rng.integers(len(CODES)))],
    )


def layout(chunk, dtype="<f8"):
    """What a decoder takes from the plan to decode ``chunk``'s frame:
    key, lead shape and dtype."""
    return chunk.source_key, chunk.payload.shape[:-1], dtype


def assert_chunks_equal(a, b):
    assert a.number == b.number
    assert a.source_key == b.source_key
    assert a.continuity == b.continuity
    np.testing.assert_array_equal(a.payload, b.payload)


def test_round_trip_float64_is_bit_exact():
    rng = np.random.default_rng(0)
    chunk = random_chunk(rng)
    assert_chunks_equal(decode(encode(chunk, dtype="<f8"), *layout(chunk)),
                        chunk)


def test_round_trip_float32_quantizes_payload_only():
    rng = np.random.default_rng(1)
    chunk = random_chunk(rng)
    out = decode(encode(chunk, dtype="<f4"), *layout(chunk, "<f4"))
    np.testing.assert_array_equal(
        out.payload, chunk.payload.astype("<f4").astype("<f8")
    )
    assert out.number == chunk.number
    assert out.continuity == chunk.continuity


def test_many_randomized_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(500):
        chunk = random_chunk(rng)
        assert_chunks_equal(decode(encode(chunk, dtype="<f8"), *layout(chunk)),
                            chunk)


def test_every_single_byte_corruption_is_detected():
    rng = np.random.default_rng(3)
    chunk = random_chunk(rng)
    frame = bytearray(encode(chunk, dtype="<f8"))
    for pos in range(len(frame)):
        for flip in (0x01, 0xFF):
            corrupted = bytearray(frame)
            corrupted[pos] ^= flip
            with pytest.raises(WireError):
                decode(bytes(corrupted), *layout(chunk))


def test_version_gate():
    """Version 1 frames, which carried rate and axis, version 2 frames,
    which carried the counters, and version 3 frames, which carried names,
    dtype and shape, are refused whole, as are frames of a later
    version."""
    rng = np.random.default_rng(4)
    chunk = random_chunk(rng)
    frame = bytearray(encode(chunk))
    for version in (1, 2, 3, VERSION + 1):
        frame[4:6] = version.to_bytes(2, "little")
        with pytest.raises(VersionError):
            decode(bytes(frame), *layout(chunk, "<f4"))


def test_bad_magic():
    rng = np.random.default_rng(5)
    chunk = random_chunk(rng)
    frame = b"XXXX" + encode(chunk)[4:]
    with pytest.raises(WireError):
        decode(frame, *layout(chunk, "<f4"))


def test_truncated_frame():
    rng = np.random.default_rng(6)
    chunk = random_chunk(rng)
    frame = encode(chunk)
    for cut in (3, 9, 21, len(frame) // 2, len(frame) - 1):
        with pytest.raises(WireError):
            decode(frame[:cut], *layout(chunk, "<f4"))


def test_flipped_payload_byte_is_checksum_error():
    rng = np.random.default_rng(7)
    chunk = random_chunk(rng)
    frame = bytearray(encode(chunk, dtype="<f8"))
    # a byte well inside the payload region
    frame[-12] ^= 0x10
    with pytest.raises(ChecksumError):
        decode(bytes(frame), *layout(chunk))


def test_trailing_bytes_rejected():
    rng = np.random.default_rng(8)
    chunk = random_chunk(rng)
    frame = encode(chunk) + b"\x00"
    with pytest.raises(WireError):
        decode(frame, *layout(chunk, "<f4"))


def test_stream_of_frames_decodes_in_order():
    rng = np.random.default_rng(9)
    chunks = [random_chunk(rng) for _ in range(20)]
    stream = BytesIO(b"".join(encode(c, dtype="<f8") for c in chunks))
    for original in chunks:
        assert_chunks_equal(decode_stream(stream, *layout(original)), original)
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
    chunks = [random_chunk(rng, ("p", "f"), (3,)) for _ in range(4)]
    data = b"xxTF" + b"TFS" + b"".join(encode(c, dtype="<f8") for c in chunks)
    delivered, errors = [], []
    link = _TcpLink(Edge("p", "f", "c", transport="tcp::0", wire_dtype="<f8"),
                    delivered.append, errors.append, (3,))
    link._rx = Trickle(link._rx, step)
    try:
        link.transfer(data)
    finally:
        link.close()
    assert errors == ["p.f->c"]
    assert len(delivered) == len(chunks)
    for got, original in zip(delivered, chunks):
        assert_chunks_equal(got, original)


@pytest.mark.parametrize("key, lead", [
    (("se", "T"), (64,)),
    (("cochlea", "E"), (64,)),
    (("resampler", "snd"), ()),
    (("p" * 300, "f" * 300), (8,)),
], ids=["se.T", "cochlea.E", "resampler.snd", "long-names"])
def test_frame_overhead_is_26_bytes_whatever_the_key(key, lead):
    """Magic, version, number, continuity, time extent and CRC: a frame
    carries no name, dtype or shape of its key, which the plan holds."""
    chunk = DataChunk(number=7, source_key=key, payload=np.ones((*lead, 128)),
                      continuity=Continuity.WITHPREVIOUS)
    for dtype in ("<f4", "<f8"):
        frame = encode(chunk, dtype)
        assert len(frame) - chunk.payload.size * np.dtype(dtype).itemsize == 26
        assert_chunks_equal(decode(frame, *layout(chunk, dtype)), chunk)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["1-D", "2-D"])
@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_a_chunk_file_is_its_header_and_one_frame_per_record(
        tmp_path, lead, dtype):
    """A chunk file's records are its chunks' wire frames: its size is
    8 bytes, then the header, then 26 bytes and the payload per record;
    and its records read back as the chunks, in the file's dtype, each
    payload read-only."""
    rng = np.random.default_rng(21)
    chunks = [random_chunk(rng, ("k", "f"), lead) for _ in range(5)]
    path = tmp_path / "k.f.tfc"
    axis = np.geomspace(100.0, 1500.0, lead[0]) if lead else None
    writer = ChunkFileWriter(path, ("k", "f"), 40.0, axis,
                             AlignmentParams(3, 1, 0, 2), dtype=dtype)
    for chunk in chunks:
        writer.append(chunk)
    writer.close()
    header, records = read_chunk_file(path)
    header_len = len(json.dumps(header, sort_keys=True).encode("utf-8"))
    assert path.stat().st_size == 8 + header_len + sum(
        26 + c.payload.size * np.dtype(dtype).itemsize for c in chunks)
    assert header["alignment"] == [3, 1, 0, 2]
    for record, chunk in zip(records, chunks, strict=True):
        assert record["number"] == chunk.number
        assert record["continuity"] is chunk.continuity
        assert record["payload"].dtype == np.dtype(dtype)
        assert not record["payload"].flags.writeable
        np.testing.assert_array_equal(record["payload"], chunk.payload)


def test_magic_constant_stable():
    assert MAGIC == b"TFSB"
    assert VERSION == 4

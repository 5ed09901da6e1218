"""Framed binary transport for chunks.

Frame layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"TFSB"
    4       2     version (u16), currently 1
    6       4     header length H (u32)
    10      H     header, see below
    10+H    P     payload, raw little-endian array data
    10+H+P  4     CRC32 (u32) over header + payload

Header layout:

    u16  producer name length, then that many UTF-8 bytes
    u16  feature name length, then that many UTF-8 bytes
    u64  chunk number
    i32  continuity code
    u32  p, u32 d, u32 l, u32 s
    u8   dtype tag (0 = float32, 1 = float64)
    u8   ndim (1 or 2)
    u32  per dimension: extent (channels first, time last)
    f64  sample rate
    u32  channel frequency count (0 = absent), then f64 per channel

A frame that fails any check is discarded whole; the consumer sees a
missing chunk number, exactly as for a lost transmission.
"""

from __future__ import annotations

import struct
import zlib
from io import BytesIO
from typing import BinaryIO

import numpy as np

from .chunks import AlignmentParams, Continuity, DataChunk
from .errors import ChecksumError, TruncatedFrame, VersionError, WireError

MAGIC = b"TFSB"
VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

#: Largest header a frame may declare: room for short names and the
#: frequencies of some 8000 channels.  A larger declared length is
#: damage, rejected before the reader waits for that many bytes.
MAX_HEADER_LEN = 1 << 16

#: Transport precision over the wire; float32 halves the volume and the
#: consumer recomputes in float64 anyway.
WIRE_DTYPE = np.dtype("<f4")


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _encode_header(chunk: DataChunk, dtype: np.dtype) -> bytes:
    a = chunk.alignment
    parts = [
        _pack_str(chunk.source_key[0]),
        _pack_str(chunk.source_key[1]),
        struct.pack("<Qi", chunk.number, int(chunk.continuity)),
        struct.pack("<4I", a.p, a.d, a.l, a.s),
        struct.pack("<BB", _DTYPE_TAGS[dtype], chunk.payload.ndim),
        struct.pack(f"<{chunk.payload.ndim}I", *chunk.payload.shape),
        struct.pack("<d", chunk.sample_rate),
    ]
    if chunk.channel_freqs is None:
        parts.append(struct.pack("<I", 0))
    else:
        freqs = np.ascontiguousarray(chunk.channel_freqs, dtype="<f8")
        parts.append(struct.pack("<I", freqs.size))
        parts.append(freqs.tobytes())
    return b"".join(parts)


def encode(chunk: DataChunk, dtype: np.dtype = WIRE_DTYPE) -> bytes:
    """Serialize one chunk into a framed byte string."""
    dtype = np.dtype(dtype)
    if dtype not in _DTYPE_TAGS:
        raise WireError(f"unsupported wire dtype {dtype}")
    header = _encode_header(chunk, dtype)
    if len(header) > MAX_HEADER_LEN:
        raise WireError(f"header of {len(header)} bytes exceeds {MAX_HEADER_LEN}")
    payload = np.ascontiguousarray(chunk.payload, dtype=dtype).tobytes()
    body = header + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return (
        MAGIC
        + struct.pack("<HI", VERSION, len(header))
        + body
        + struct.pack("<I", crc)
    )


class _Reader:
    def __init__(self, stream: BinaryIO):
        self._stream = stream

    def read_exact(self, n: int) -> bytes:
        data = self._stream.read(n)
        if len(data) != n:
            raise TruncatedFrame(f"expected {n} bytes, got {len(data)}")
        return data

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read_exact(struct.calcsize(fmt)))


def _read_str(reader: _Reader) -> str:
    (length,) = reader.unpack("<H")
    return reader.read_exact(length).decode("utf-8")


def decode_stream(stream: BinaryIO) -> DataChunk:
    """Decode one frame from a byte stream; raises WireError subclasses."""
    reader = _Reader(stream)
    magic = reader.read_exact(4)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    version, header_len = reader.unpack("<HI")
    if version != VERSION:
        raise VersionError(f"unsupported frame version {version}")
    if header_len > MAX_HEADER_LEN:
        raise WireError(f"header length {header_len} exceeds {MAX_HEADER_LEN}")
    header = reader.read_exact(header_len)

    h = _Reader(BytesIO(header))
    try:
        producer = _read_str(h)
        feature = _read_str(h)
        number, continuity = h.unpack("<Qi")
        p, d, l, s = h.unpack("<4I")
        dtype_tag, ndim = h.unpack("<BB")
    except UnicodeDecodeError as exc:
        raise WireError(f"corrupt header: {exc}") from None
    if dtype_tag not in _TAG_DTYPES:
        raise WireError(f"unknown dtype tag {dtype_tag}")
    if ndim not in (1, 2):
        raise WireError(f"unsupported ndim {ndim}")
    shape = h.unpack(f"<{ndim}I")
    (sample_rate,) = h.unpack("<d")
    (freq_count,) = h.unpack("<I")
    channel_freqs = None
    if freq_count:
        channel_freqs = np.frombuffer(
            h.read_exact(8 * freq_count), dtype="<f8"
        ).copy()

    dtype = _TAG_DTYPES[dtype_tag]
    payload_bytes = int(np.prod(shape)) * dtype.itemsize
    payload_raw = reader.read_exact(payload_bytes)
    (crc_stored,) = reader.unpack("<I")
    crc = zlib.crc32(header + payload_raw) & 0xFFFFFFFF
    if crc != crc_stored:
        raise ChecksumError(
            f"CRC mismatch: stored {crc_stored:#010x}, computed {crc:#010x}"
        )

    payload = np.frombuffer(payload_raw, dtype=dtype).reshape(shape).copy()
    try:
        code = Continuity(continuity)
    except ValueError:
        raise WireError(f"unknown continuity code {continuity}") from None
    return DataChunk(
        number=number,
        source_key=(producer, feature),
        payload=payload,
        sample_rate=sample_rate,
        alignment=AlignmentParams(p, d, l, s),
        continuity=code,
        channel_freqs=channel_freqs,
    )


def decode(data: bytes) -> DataChunk:
    """Decode one complete frame from bytes."""
    stream = BytesIO(data)
    chunk = decode_stream(stream)
    if stream.read(1):
        raise WireError("trailing bytes after frame")
    return chunk

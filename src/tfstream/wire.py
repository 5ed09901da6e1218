"""Framed binary transport for chunks.

Frame layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"TFSB"
    4       2     version (u16), currently 3
    6       4     header length H (u32)
    10      H     header, see below
    10+H    P     payload, raw little-endian array data
    10+H+P  4     CRC32 (u32) over header + payload

Header layout:

    u16  producer name length, then that many UTF-8 bytes
    u16  feature name length, then that many UTF-8 bytes
    u64  chunk number
    i32  continuity code
    u8   dtype tag (0 = float32, 1 = float64)
    u8   ndim (1 or 2)
    u32  per dimension: extent (channels first, time last)

A frame carries what changes from chunk to chunk: number, continuity and
payload.  Its key's sample rate, frequency axis and alignment counters
are plan constants and never travel; frames of an older version (1
carried all three, 2 the counters) raise ``VersionError``.

A frame that fails any check is discarded whole; the consumer sees a
missing chunk number, exactly as for a lost transmission.  A TCP link
also discards an intact frame whose shape disagrees with the plan: its
ndim, and for a key with a frequency axis its channel count.
"""

from __future__ import annotations

import math
import struct
import zlib
from io import BytesIO
from typing import BinaryIO

import numpy as np

from .chunks import Continuity, DataChunk, as_continuity
from .errors import (
    ChecksumError,
    TruncatedFrame,
    VersionError,
    WireError,
)

MAGIC = b"TFSB"
VERSION = 3

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

#: Largest header a frame may declare: room for two names of some
#: 32,000 bytes each.  A larger declared length is damage, rejected
#: before the reader waits for that many bytes.
MAX_HEADER_LEN = 1 << 16

#: Transport precision over the wire; float32 halves the volume and the
#: consumer recomputes in float64 anyway.
WIRE_DTYPE = np.dtype("<f4")


#: magic, version and header length
_PREAMBLE = struct.Struct("<4sHI")
#: length of a name in the header
_NAME_LEN = struct.Struct("<H")
#: number, continuity, dtype tag and ndim
_FIXED = struct.Struct("<QiBB")
#: per ndim, the extents (channels first, time last) that follow the
#: fixed fields
_EXTENTS = {ndim: struct.Struct(f"<{ndim}I") for ndim in (1, 2)}
#: per ndim, the fixed fields and the extents, packed at once
_MIDDLE = {ndim: struct.Struct(f"<QiBB{ndim}I") for ndim in (1, 2)}
_CRC = struct.Struct("<I")

def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _NAME_LEN.pack(len(raw)) + raw


def encode(chunk: DataChunk, dtype: np.dtype = WIRE_DTYPE) -> bytes:
    """Serialize one chunk into a framed byte string."""
    dtype = np.dtype(dtype)
    if dtype not in _DTYPE_TAGS:
        raise WireError(f"unsupported wire dtype {dtype}")
    producer, feature = chunk.source_key
    shape = chunk.payload.shape
    header = b"".join((
        _pack_str(producer),
        _pack_str(feature),
        _MIDDLE[len(shape)].pack(
            chunk.number, int(chunk.continuity),
            _DTYPE_TAGS[dtype], len(shape), *shape),
    ))
    if len(header) > MAX_HEADER_LEN:
        raise WireError(f"header of {len(header)} bytes exceeds {MAX_HEADER_LEN}")
    payload = np.ascontiguousarray(chunk.payload, dtype=dtype)
    crc = zlib.crc32(payload, zlib.crc32(header))
    return b"".join((
        _PREAMBLE.pack(MAGIC, VERSION, len(header)),
        header,
        payload,
        _CRC.pack(crc),
    ))


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise TruncatedFrame(f"expected {n} bytes, got {len(data)}")
    return data


def _unpack(fields: struct.Struct, header: bytes, pos: int) -> tuple:
    """The fields at ``pos``; TruncatedFrame when the header ends first."""
    if pos + fields.size > len(header):
        raise TruncatedFrame(
            f"expected {fields.size} bytes, got {max(len(header) - pos, 0)}")
    return fields.unpack_from(header, pos)


def _slice(header: bytes, pos: int, n: int) -> bytes:
    data = header[pos : pos + n]
    if len(data) != n:
        raise TruncatedFrame(f"expected {n} bytes, got {len(data)}")
    return data


def decode_stream(stream: BinaryIO) -> DataChunk:
    """Decode one frame from a byte stream; raises WireError subclasses.

    The payload is a read-only view of the bytes read for it, which
    nothing else holds.
    """
    preamble = stream.read(_PREAMBLE.size)
    if len(preamble) >= len(MAGIC) and preamble[: len(MAGIC)] != MAGIC:
        raise WireError(f"bad magic {preamble[:len(MAGIC)]!r}")
    if len(preamble) != _PREAMBLE.size:
        raise TruncatedFrame(
            f"expected {_PREAMBLE.size} bytes, got {len(preamble)}")
    _, version, header_len = _PREAMBLE.unpack(preamble)
    if version != VERSION:
        raise VersionError(f"unsupported frame version {version}")
    if header_len > MAX_HEADER_LEN:
        raise WireError(f"header length {header_len} exceeds {MAX_HEADER_LEN}")
    header = _read_exact(stream, header_len)

    pos = 0
    names = []
    for _ in range(2):
        (length,) = _unpack(_NAME_LEN, header, pos)
        raw = _slice(header, pos + _NAME_LEN.size, length)
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireError(f"corrupt header: {exc}") from None
        pos += _NAME_LEN.size + length
    number, continuity, dtype_tag, ndim = _unpack(_FIXED, header, pos)
    pos += _FIXED.size
    if dtype_tag not in _TAG_DTYPES:
        raise WireError(f"unknown dtype tag {dtype_tag}")
    if ndim not in (1, 2):
        raise WireError(f"unsupported ndim {ndim}")
    shape = _unpack(_EXTENTS[ndim], header, pos)

    dtype = _TAG_DTYPES[dtype_tag]
    size = math.prod(shape) * dtype.itemsize
    # the payload and the CRC after it, in one read
    rest = _read_exact(stream, size + _CRC.size)
    (crc_stored,) = _CRC.unpack_from(rest, size)
    crc = zlib.crc32(memoryview(rest)[:size], zlib.crc32(header))
    if crc != crc_stored:
        raise ChecksumError(
            f"CRC mismatch: stored {crc_stored:#010x}, computed {crc:#010x}"
        )

    try:
        code = as_continuity(continuity)
    except ValueError:
        raise WireError(f"unknown continuity code {continuity}") from None
    if code is Continuity.INVALID:
        raise WireError("invalid chunk (code -1): never published")
    return DataChunk(
        number=number,
        source_key=(names[0], names[1]),
        payload=np.frombuffer(rest, dtype=dtype, count=size // dtype.itemsize)
        .reshape(shape),
        continuity=code,
    )


def decode(data: bytes) -> DataChunk:
    """Decode one complete frame from bytes."""
    stream = BytesIO(data)
    chunk = decode_stream(stream)
    if stream.read(1):
        raise WireError("trailing bytes after frame")
    return chunk

"""Framed binary transport for chunks; chunk files store the same frames.

Frame layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"TFSB"
    4       2     version (u16), currently 4
    6       8     chunk number (u64)
    14      4     continuity code (i32)
    18      4     time extent T (u32)
    22      P     payload, raw little-endian array data
    22+P    4     CRC32 (u32) over bytes 6 to 22+P: the fields after the
                  version, then the payload

A frame carries what changes from chunk to chunk: number, continuity,
time extent and payload.  Everything else about its key is fixed by the
plan for the edge it travels on, and the decoder takes it from its
caller: the key, the lead shape before the time axis (``(channels,)``
for a key with a frequency axis, ``()`` for one without) and the payload
dtype, so the payload is ``lead + (T,)`` values, ``P`` bytes.  Frames of
an older version (1 carried rate and axis, 2 the counters, 3 the names,
dtype and shape) raise ``VersionError``.

A frame that fails any check is discarded whole; the consumer sees a
missing chunk number, exactly as for a lost transmission.  A frame
published with another lead shape than the plan's declares another
payload size than the decoder reads, so it fails the truncation or CRC
check like a damaged one.
"""

from __future__ import annotations

import math
import struct
import zlib
from io import BytesIO
from typing import BinaryIO, Tuple

import numpy as np

from .chunks import (
    PAYLOAD_DTYPES, Continuity, DataChunk, SourceKey, as_continuity)
from .errors import ChecksumError, TruncatedFrame, VersionError, WireError

MAGIC = b"TFSB"
VERSION = 4

#: Transport precision over the wire; float32 halves the volume and the
#: consumer recomputes in float64 anyway.
WIRE_DTYPE = np.dtype("<f4")

#: magic, version, number, continuity and time extent
_HEAD = struct.Struct("<4sHQiI")
#: where the fields the CRC covers start: after magic and version
_CRC_START = 6
_CRC = struct.Struct("<I")


def encode(chunk: DataChunk, dtype: np.dtype = WIRE_DTYPE) -> bytes:
    """Serialize one chunk into a framed byte string."""
    dtype = np.dtype(dtype)
    if dtype.str not in PAYLOAD_DTYPES:
        raise WireError(f"unsupported wire dtype {dtype}")
    payload = np.ascontiguousarray(chunk.payload, dtype=dtype)
    head = _HEAD.pack(MAGIC, VERSION, chunk.number, int(chunk.continuity),
                      payload.shape[-1])
    crc = zlib.crc32(payload, zlib.crc32(head[_CRC_START:]))
    return b"".join((head, payload, _CRC.pack(crc)))


def decode_stream(stream: BinaryIO, key: SourceKey, lead: Tuple[int, ...],
                  dtype: np.dtype = WIRE_DTYPE) -> DataChunk:
    """Decode one frame of ``key`` from a byte stream, its payload of
    shape ``lead + (T,)`` and ``dtype``; raises WireError subclasses.

    The payload is a read-only view of the bytes read for it, which
    nothing else holds.
    """
    head = stream.read(_HEAD.size)
    if len(head) >= len(MAGIC) and head[: len(MAGIC)] != MAGIC:
        raise WireError(f"bad magic {head[:len(MAGIC)]!r}")
    if len(head) != _HEAD.size:
        raise TruncatedFrame(f"expected {_HEAD.size} bytes, got {len(head)}")
    _, version, number, continuity, columns = _HEAD.unpack(head)
    if version != VERSION:
        raise VersionError(f"unsupported frame version {version}")

    dtype = np.dtype(dtype)
    shape = (*lead, columns)
    size = math.prod(shape) * dtype.itemsize
    # the payload and the CRC after it, in one read
    want = size + _CRC.size
    rest = stream.read(want)
    if len(rest) != want:
        raise TruncatedFrame(f"expected {want} bytes, got {len(rest)}")
    (crc_stored,) = _CRC.unpack_from(rest, size)
    crc = zlib.crc32(memoryview(rest)[:size], zlib.crc32(head[_CRC_START:]))
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
        source_key=key,
        payload=np.frombuffer(rest, dtype=dtype, count=size // dtype.itemsize)
        .reshape(shape),
        continuity=code,
    )


def decode(data: bytes, key: SourceKey, lead: Tuple[int, ...],
           dtype: np.dtype = WIRE_DTYPE) -> DataChunk:
    """Decode one complete frame of ``key`` from bytes; see
    ``decode_stream``."""
    stream = BytesIO(data)
    chunk = decode_stream(stream, key, lead, dtype)
    if stream.read(1):
        raise WireError("trailing bytes after frame")
    return chunk

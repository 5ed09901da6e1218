"""Per-key chunk files written by the file writer sink.

File layout:

    4 bytes   magic b"TFCF"
    u32       header length (little-endian)
    header    UTF-8 JSON with sorted keys: producer, feature,
              sample_rate, dtype, channel_freqs (list or null)
    records   repeated until EOF:
                u64  chunk number
                i32  continuity code
                u32  p, u32 d, u32 l, u32 s
                u8   ndim, u32 per-dimension extent (time last)
                raw  little-endian payload

The counters of every record are the key's cumulative counters, which
the writer takes from the plan when it is made: chunks do not carry them.
Chunks are appended in publication order, which is deterministic for a
fixed config, input and fault schedule.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple

import numpy as np

from .chunks import AlignmentParams, DataChunk, SourceKey, as_continuity
from .errors import IoError

MAGIC = b"TFCF"
#: number, continuity, p, d, l, s and ndim of one record
RECORD_HEAD = struct.Struct("<Qi4IB")
#: per ndim, a record's head and extents, packed at once
_RECORD_STARTS = {ndim: struct.Struct(f"<Qi4IB{ndim}I") for ndim in (1, 2)}
#: Bytes a writer gathers before it writes to the file, so that a
#: record's head and payload cost no system call of their own.
WRITE_BUFFER = 1 << 16
#: the header keys, each written by ChunkFileWriter
HEADER_KEYS = frozenset(
    {"producer", "feature", "sample_rate", "dtype", "channel_freqs"})


class ChunkFileWriter:
    """Appends published chunks of one source key to a file."""

    def __init__(
        self,
        path: Path,
        source_key: SourceKey,
        sample_rate: float,
        channel_freqs: Optional[np.ndarray],
        alignment: AlignmentParams,
        dtype: str = "<f8",
    ):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self._counters = alignment.as_tuple()
        header = json.dumps(
            {
                "producer": source_key[0],
                "feature": source_key[1],
                "sample_rate": sample_rate,
                "dtype": self.dtype.str,
                "channel_freqs": None
                if channel_freqs is None
                else [float(f) for f in channel_freqs],
            },
            sort_keys=True,
        ).encode("utf-8")
        self._fh: BinaryIO = open(self.path, "wb", buffering=WRITE_BUFFER)
        self._fh.write(MAGIC + struct.pack("<I", len(header)) + header)

    def append(self, chunk: DataChunk) -> None:
        shape = chunk.payload.shape
        self._fh.write(_RECORD_STARTS[len(shape)].pack(
            chunk.number, int(chunk.continuity), *self._counters,
            len(shape), *shape))
        self._fh.write(np.ascontiguousarray(chunk.payload, dtype=self.dtype))

    def close(self) -> None:
        self._fh.close()


def _read_exactly(fh: BinaryIO, size: int, path: Path, what: str) -> bytes:
    """The next ``size`` bytes; IoError, before any read, when the file
    holds fewer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise IoError(f"{path}: truncated {what}: {size} bytes declared, {left} left")
    data = fh.read(size)
    if len(data) != size:
        raise IoError(f"{path}: truncated {what}")
    return data


def _parse_header(raw: bytes, path: Path) -> Tuple[dict, np.dtype]:
    """The header and its payload dtype; IoError when either is damaged."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise IoError(f"{path}: damaged header: {exc}") from None
    if not isinstance(header, dict) or not HEADER_KEYS <= header.keys():
        raise IoError(f"{path}: header needs the keys {sorted(HEADER_KEYS)}")
    try:
        dtype = np.dtype(header["dtype"])
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in "biufc":
        raise IoError(f"{path}: header dtype {header['dtype']!r} is not numeric")
    return header, dtype


def read_chunk_file(path: Path) -> Tuple[dict, List[dict]]:
    """Read a chunk file back; returns (header, records).

    Each record is a dict with number, continuity, alignment and payload.
    A file cut anywhere but between two records, or a damaged header or
    record head, raises ``IoError``.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise IoError(f"{path} is not a chunk file")
        (header_len,) = struct.unpack("<I", _read_exactly(fh, 4, path, "header"))
        header, dtype = _parse_header(
            _read_exactly(fh, header_len, path, "header"), path)
        records = []
        while True:
            head = fh.read(RECORD_HEAD.size)
            if not head:
                break
            if len(head) != RECORD_HEAD.size:
                raise IoError(f"{path}: truncated record header")
            number, continuity, p, d, l, s, ndim = RECORD_HEAD.unpack(head)
            try:
                continuity = as_continuity(continuity)
            except ValueError:
                raise IoError(
                    f"{path}: record {number} has unknown continuity code "
                    f"{continuity}") from None
            if ndim not in (1, 2):
                raise IoError(f"{path}: record {number} has ndim {ndim}")
            shape = struct.unpack(
                f"<{ndim}I", _read_exactly(fh, 4 * ndim, path, "record shape"))
            # exact: a damaged extent must not wrap, overflow or ask
            # for more memory than the file holds
            nbytes = math.prod(shape) * dtype.itemsize
            raw = _read_exactly(fh, nbytes, path, "payload")
            records.append(
                {
                    "number": number,
                    "continuity": continuity,
                    "alignment": AlignmentParams(p, d, l, s),
                    "payload": np.frombuffer(raw, dtype=dtype).reshape(shape).copy(),
                }
            )
    return header, records


def concatenate_payloads(records: List[dict]) -> np.ndarray:
    """Concatenate record payloads along the time axis."""
    if not records:
        raise IoError("no records to concatenate")
    return np.concatenate([r["payload"] for r in records], axis=-1)


def export_csv(path: Path, csv_path: Path) -> None:
    """Dump a 2-D chunk file as CSV (rows = channels, columns = time)."""
    header, records = read_chunk_file(path)
    data = concatenate_payloads(records)
    if data.ndim == 1:
        data = data[None, :]
    np.savetxt(csv_path, data, delimiter=",")

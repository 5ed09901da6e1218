"""Per-key chunk files written by the file writer sink.

File layout:

    4 bytes   magic b"TFCF"
    u32       header length (little-endian)
    header    UTF-8 JSON with sorted keys: alignment ([p, d, l, s]),
              channel_freqs (list or null), dtype, feature, producer,
              sample_rate
    records   one wire frame per chunk (``tfstream.wire``), until EOF

What stays fixed for a key is written once, in the header: its name,
sample rate, frequency axis, payload dtype and cumulative counters, which
the writer takes from the plan when it is made.  A record is the frame a
TCP edge would carry: number, continuity, time extent, payload and a
CRC.  The reader decodes it with the lead shape a TCP edge uses,
``(len(channel_freqs),)``, or ``()`` when the key has no frequency axis.
Chunks are appended in publication order, which is deterministic for a
fixed config, input and fault schedule.
"""

from __future__ import annotations

import json
import struct
from io import BytesIO
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple

import numpy as np

from .chunks import PAYLOAD_DTYPES, AlignmentParams, DataChunk, SourceKey
from .errors import IoError, MetadataError, WireError
from .wire import decode_stream, encode

MAGIC = b"TFCF"
#: Bytes a writer gathers before it writes to the file, so that a
#: small record costs no system call of its own.
WRITE_BUFFER = 1 << 16
#: the header keys, each written by ChunkFileWriter
HEADER_KEYS = frozenset(
    {"producer", "feature", "sample_rate", "dtype", "channel_freqs",
     "alignment"})


class ChunkFileWriter:
    """Appends published chunks of one source key to a file, creating
    its directory; a file-system failure raises ``IoError``."""

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
        header = json.dumps(
            {
                "producer": source_key[0],
                "feature": source_key[1],
                "sample_rate": sample_rate,
                "dtype": self.dtype.str,
                "channel_freqs": None
                if channel_freqs is None
                else [float(f) for f in channel_freqs],
                "alignment": list(alignment.as_tuple()),
            },
            sort_keys=True,
        ).encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh: BinaryIO = open(self.path, "wb", buffering=WRITE_BUFFER)
        except OSError as exc:
            raise IoError(f"cannot write {exc.filename or self.path}: "
                          f"{exc.strerror or exc}") from None
        self._fh.write(MAGIC + struct.pack("<I", len(header)) + header)

    def append(self, chunk: DataChunk) -> None:
        self._fh.write(encode(chunk, self.dtype))

    def close(self) -> None:
        self._fh.close()


def _parse_header(raw: bytes, path: Path) -> Tuple[dict, tuple]:
    """The header and the frame layout it fixes, ``(key, lead, dtype)``;
    IoError when the header is damaged."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise IoError(f"{path}: damaged header: {exc}") from None
    if not isinstance(header, dict) or not HEADER_KEYS <= header.keys():
        raise IoError(f"{path}: header needs the keys {sorted(HEADER_KEYS)}")
    if header["dtype"] not in PAYLOAD_DTYPES:
        raise IoError(f"{path}: header dtype {header['dtype']!r} is not one "
                      f"of {PAYLOAD_DTYPES}")
    freqs = header["channel_freqs"]
    if freqs is not None and not (
            isinstance(freqs, list)
            and all(type(f) in (int, float) for f in freqs)):
        raise IoError(f"{path}: header channel_freqs must be null or a list "
                      f"of numbers")
    counters = header["alignment"]
    if not isinstance(counters, list) or len(counters) != 4:
        raise IoError(f"{path}: header alignment must be [p, d, l, s], "
                      f"got {counters!r}")
    try:
        AlignmentParams(*counters)
    except MetadataError as exc:
        raise IoError(f"{path}: header alignment: {exc}") from None
    key = (header["producer"], header["feature"])
    lead = () if freqs is None else (len(freqs),)
    return header, (key, lead, np.dtype(header["dtype"]))


def read_chunk_file(path: Path) -> Tuple[dict, List[dict]]:
    """Read a chunk file back; returns (header, records).

    Each record is a dict with number, continuity and payload, a
    read-only array; the key's counters are the header's ``alignment``.
    A file that cannot be read, a damaged header, or a record that fails
    the wire decoder's checks (a cut, a flipped bit, an unknown
    continuity code) raises ``IoError``; for a record, it names the byte
    offset where the record starts.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from None
    if data[:4] != MAGIC:
        raise IoError(f"{path} is not a chunk file")
    if len(data) < 8 or len(data) < (
            start := 8 + struct.unpack_from("<I", data, 4)[0]):
        raise IoError(f"{path}: truncated header")
    header, layout = _parse_header(data[8:start], path)
    # in memory: a damaged time extent asks for no more than the file holds
    stream = BytesIO(data)
    stream.seek(start)
    records = []
    while (offset := stream.tell()) < len(data):
        try:
            chunk = decode_stream(stream, *layout)
        except WireError as exc:
            raise IoError(f"{path}: damaged record at byte {offset}: {exc}") from None
        records.append({"number": chunk.number,
                        "continuity": chunk.continuity,
                        "payload": chunk.payload})
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
    try:
        np.savetxt(csv_path, data, delimiter=",")
    except OSError as exc:
        raise IoError(f"cannot write {csv_path}: {exc.strerror or exc}") from None

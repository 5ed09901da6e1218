"""File writer sink: one chunk file per subscribed source key."""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from ..chunkfile import ChunkFileWriter
from ..chunks import PAYLOAD_DTYPES, Continuity, DataChunk, SourceKey
from .base import SinkProcessor, register


@register
class FileWriter(SinkProcessor):
    """Appends arriving chunks to per-key files in the output directory.

    Each file's header holds its key's sample rate, frequency axis and
    cumulative counters, as graph validation handed them over, and each
    record is the chunk's wire frame.  Calibration chunks are consumed
    but never written.
    """

    kind = "file_writer"
    parameters = ("directory", "dtype")

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.directory = Path(params["directory"])
        self.dtype = params.get("dtype", "<f8")
        if self.dtype not in PAYLOAD_DTYPES:
            raise ValueError(f"dtype must be '<f4' or '<f8', got {self.dtype!r}")
        self._writers: Dict[SourceKey, ChunkFileWriter] = {}

    def path_for(self, key: SourceKey) -> Path:
        return self.directory / f"{key[0]}.{key[1]}.tfc"

    def consume(self, chunk: DataChunk) -> None:
        if chunk.continuity is Continuity.CALIBRATION:
            return
        key = chunk.source_key
        if key not in self._writers:
            self._writers[key] = ChunkFileWriter(
                self.path_for(key),
                key,
                self.rates[key],
                self.freqs[key],
                self.alignments[key],
                dtype=self.dtype,
            )
            self.written[key] = 0
        self._writers[key].append(chunk)
        self.written[key] += 1

    def close(self) -> None:
        for writer in self._writers.values():
            writer.close()

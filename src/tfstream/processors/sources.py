"""Input processors: WAV file reader and the (synthetic) microphone.

Input processors assign the chunk numbers that key the whole merge
protocol; downstream processors preserve them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Set

import numpy as np
from scipy.io import wavfile

from ..chunks import Continuity, DataChunk
from ..errors import IoError, UnsupportedFormat
from .base import SourceProcessor, register


def load_wav(path: Path) -> tuple[int, np.ndarray]:
    """Read a PCM WAV as float64 in [-1, 1]; first channel if multi-channel."""
    try:
        rate, data = wavfile.read(str(path))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from None
    except Exception as exc:  # noqa: BLE001 - a malformed file
        # scipy reports a malformed header as ValueError, struct.error,
        # and on some files as ZeroDivisionError or UnboundLocalError
        raise UnsupportedFormat(
            f"{path}: not a readable WAV file: {exc}") from None
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormat(
            f"{path}: dtype {data.dtype} not supported (use 16-bit PCM or float32)"
        )
    if samples.ndim == 2:
        samples = samples[:, 0]
    if not len(samples):
        raise UnsupportedFormat(f"{path}: holds no samples")
    return int(rate), samples


def calibration_noise(seed: int, n_samples: int, level: float = 0.1) -> np.ndarray:
    """The white-noise calibration signal; deterministic per seed."""
    rng = np.random.default_rng(seed)
    return level * rng.standard_normal(n_samples)


@register
class WavReader(SourceProcessor):
    """Reads a WAV file into fixed-size chunks.

    Parameters: path, chunk_size; optionally calibration {seed,
    duration_s, level} to emit a single whole-signal white-noise chunk
    flagged as calibration before the file chunks.
    """

    kind = "wav_reader"
    parameters = ("path", "chunk_size", "calibration")
    feature = "snd"

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.path = Path(params["path"])
        self.size = int(params["chunk_size"])
        if self.size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.calibration: Optional[dict] = params.get("calibration")
        self._rate, self._samples = load_wav(self.path)

    def sample_rate(self) -> float:
        return float(self._rate)

    def chunk_size(self) -> int:
        return self.size

    def full_signal(self) -> np.ndarray:
        """The whole file as one array (reference computations)."""
        return self._samples.copy()

    def calibration_signal(self) -> Optional[np.ndarray]:
        if not self.calibration:
            return None
        n = int(round(self.calibration["duration_s"] * self._rate))
        return calibration_noise(
            int(self.calibration["seed"]), n, self.calibration.get("level", 0.1)
        )

    def chunks(self) -> Iterator[DataChunk]:
        number = 0
        if self.calibration:
            yield self.make_chunk(
                number, self.calibration_signal(), Continuity.CALIBRATION
            )
            number += 1
        total = len(self._samples)
        starts = list(range(0, total, self.size))
        for i, start in enumerate(starts):
            payload = self._samples[start : start + self.size]
            if i == 0:
                continuity = Continuity.NEWFILE
            elif i == len(starts) - 1:
                continuity = Continuity.LAST
            else:
                continuity = Continuity.WITHPREVIOUS
            yield self.make_chunk(number, payload, continuity)
            number += 1


@register
class MicInput(SourceProcessor):
    """Synthetic microphone: deterministic tone + noise chunks.

    A scripted buffer overflow makes the affected chunk invalid, and it
    is never published.  The gap in chunk numbers lets downstream
    consumers detect the loss, so the next successful chunk ships with
    its natural withprevious flag.
    """

    kind = "mic_input"
    parameters = ("sample_rate", "chunk_size", "num_chunks", "seed",
                  "tone_freq", "tone_level", "noise_level")
    feature = "snd"

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.rate = float(params.get("sample_rate", 8000))
        self.size = int(params.get("chunk_size", 1024))
        self.count = int(params.get("num_chunks", 8))
        self.seed = int(params.get("seed", 0))
        self.tone_freq = float(params.get("tone_freq", 440.0))
        self.tone_level = float(params.get("tone_level", 0.3))
        self.noise_level = float(params.get("noise_level", 0.05))
        self.overflow_numbers: Set[int] = set()

    def set_overflow_numbers(self, numbers: Set[int]) -> None:
        self.overflow_numbers = set(numbers)

    def sample_rate(self) -> float:
        return self.rate

    def chunk_size(self) -> int:
        return self.size

    def full_signal(self) -> np.ndarray:
        """Every chunk's samples back to back, overflows included."""
        rng = np.random.default_rng(self.seed)
        return np.concatenate(
            [self._signal(rng, n * self.size) for n in range(self.count)]
        )

    def _signal(self, rng: np.random.Generator, start_sample: int) -> np.ndarray:
        t = (start_sample + np.arange(self.size)) / self.rate
        tone = self.tone_level * np.sin(2 * np.pi * self.tone_freq * t)
        return tone + self.noise_level * rng.standard_normal(self.size)

    def chunks(self) -> Iterator[DataChunk]:
        rng = np.random.default_rng(self.seed)
        for number in range(self.count):
            payload = self._signal(rng, number * self.size)
            if number in self.overflow_numbers:
                # acquisition failed: the chunk is invalid, never published
                continue
            if number == 0:
                continuity = Continuity.DISCONTINUOUS
            elif number == self.count - 1:
                continuity = Continuity.LAST
            else:
                continuity = Continuity.WITHPREVIOUS
            yield self.make_chunk(number, payload, continuity)

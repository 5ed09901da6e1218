"""Gammachirp filterbank producing the energy representation E(t, f).

Each channel is a complex gammachirp band-pass filter (gammatone for
chirp 0); the published value is the squared magnitude of the filter
output.  The merge carries the filter's history across continuous chunks
(``history``, the impulse length), and every output column is one
fixed-shape GEMM row over its own input window, so chunked output equals
the whole-signal output bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..chunks import AlignmentParams
from ..merge import MergedChunk
from .base import FeatureData, Processor, register

#: Rows of every filterbank GEMM call.  BLAS may take a different code
#: path (and so give different bits) for a different matrix shape, so
#: every call has this shape and the last block of a chunk is zero-padded.
GEMM_ROWS = 256


def erb_bandwidth(cf: np.ndarray) -> np.ndarray:
    """Equivalent rectangular bandwidth of the auditory filter at cf (Hz)."""
    return 24.7 + 0.108 * cf


def gammachirp_ir(
    cf,
    sample_rate: float,
    length: int,
    order: int = 4,
    bw_factor: float = 1.019,
    chirp: float = 0.0,
) -> np.ndarray:
    """Complex gammachirp impulse response, normalized to unit peak gain.

    For a scalar cf the response has shape (length,); for an array of
    center frequencies, one row per frequency, each equal bit for bit to
    the scalar call for that frequency.
    """
    cf = np.asarray(cf)[..., None]
    t = (np.arange(length) + 1.0) / sample_rate
    envelope = t ** (order - 1) * np.exp(-2 * np.pi * bw_factor * erb_bandwidth(cf) * t)
    phase = 2 * np.pi * cf * t + chirp * np.log(t)
    h = envelope * np.exp(1j * phase)
    nfft = 1 << max(12, int(np.ceil(np.log2(4 * length))))
    gain = np.abs(np.fft.fft(h, nfft, axis=-1)).max(axis=-1, keepdims=True)
    return h / gain


@register
class GammaChirpFilterbank(Processor):
    """Per-channel band-pass energy from windowed dot products.

    Each output column is the row of a GEMM of the sliding input window
    against the time-reversed real and imaginary taps; see ``_energy``.

    Parameters: channels, f_min, f_max (center frequencies log-spaced),
    impulse_ms (filter length, default 50 ms), order and chirp.  The
    design rate is the graph's: ``prepare`` takes the input key's rate.
    """

    kind = "gammachirp_filterbank"
    parameters = ("channels", "f_min", "f_max", "impulse_ms", "order", "chirp")

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.channels = int(params.get("channels", 64))
        if self.channels < 4:
            raise ValueError("filterbank needs at least 4 channels")
        self.f_min = float(params.get("f_min", 100.0))
        self.f_max = float(params.get("f_max", 1500.0))
        self.impulse_ms = float(params.get("impulse_ms", 50.0))
        self.order = int(params.get("order", 4))
        self.chirp = float(params.get("chirp", 0.0))
        self._h_real: Optional[np.ndarray] = None
        self._h_imag: Optional[np.ndarray] = None
        self.impulse_length: Optional[int] = None
        self.center_freqs = np.geomspace(self.f_min, self.f_max, self.channels)
        #: (L, 2C) reversed taps, set by prepare
        self._taps: Optional[np.ndarray] = None
        #: GEMM scratch blocks (windows, product, energy), set on first use
        self._windows: Optional[np.ndarray] = None
        self._product: Optional[np.ndarray] = None
        self._block: Optional[np.ndarray] = None

    def prepare(
        self, in_rate: float, merged: AlignmentParams, in_freqs: None
    ) -> Tuple[float, np.ndarray, AlignmentParams]:
        if self.f_max >= in_rate / 2:
            raise ValueError(
                f"f_max {self.f_max} Hz is not below Nyquist for rate {in_rate}"
            )
        self.impulse_length = max(2, int(round(self.impulse_ms * in_rate / 1000.0)))
        bank = gammachirp_ir(self.center_freqs, in_rate, self.impulse_length,
                             self.order, chirp=self.chirp)
        channels = self.channels
        # column c holds channel c's real taps reversed, column C + c its
        # imaginary taps, so windows @ taps is the convolution
        self._taps = np.empty((self.impulse_length, 2 * channels))
        self._taps[:, :channels] = bank.real[:, ::-1].T
        self._taps[:, channels:] = bank.imag[:, ::-1].T
        # per-channel taps in time order (channels x L), views of _taps
        self._h_real = self._taps[::-1, :channels].T
        self._h_imag = self._taps[::-1, channels:].T
        self._windows = None
        self.history = self.impulse_length
        return in_rate, self.center_freqs, merged

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        return {"E": AlignmentParams(p=0, d=self.impulse_length, l=0, s=0)}

    def _energy(self, x: np.ndarray) -> np.ndarray:
        """Energy at the positions [L, len(x)) of x (channels x positions).

        Position t is the dot product of x[t - L + 1 .. t] with the
        reversed taps; the first L positions are the declared drop d = L
        after a break, or the history that the merge carried.  Rows go
        through GEMM_ROWS-row blocks in per-instance scratch arrays, so
        every value comes from the same BLAS call shape wherever its
        chunk starts or ends.
        """
        length = self.impulse_length
        channels = self.channels
        if self._windows is None:
            # Not in prepare: every plan build prepares, and allocating
            # these blocks there (1.2 MB at L = 400, 2C = 128) cost about
            # 500 page faults per build through heap growth, even for
            # plans that never run.
            self._windows = np.empty((GEMM_ROWS, length))
            self._product = np.empty((GEMM_ROWS, 2 * channels))
            self._block = np.empty((GEMM_ROWS, channels))
        windows, product, block = self._windows, self._product, self._block
        count = x.shape[-1] - length
        # row i is x[i + 1 : i + 1 + length], position L + i's window, a
        # strided view over x
        x = np.ascontiguousarray(x)
        step = x.itemsize
        sliding = np.ndarray((count, length), x.dtype, buffer=x,
                             offset=step, strides=(step, step))
        energy = np.empty((channels, count))
        for start in range(0, count, GEMM_ROWS):
            rows = min(GEMM_ROWS, count - start)
            windows[:rows] = sliding[start : start + rows]
            windows[rows:] = 0.0
            np.matmul(windows, self._taps, out=product)
            # real^2 + imag^2: square is x * x, one contiguous pass
            np.square(product, out=product)
            np.add(product[:, :channels], product[:, channels:], out=block)
            energy[:, start : start + rows] = block[:rows].T
        return energy

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        (x,) = merged.payloads.values()
        return {"E": FeatureData(self._energy(x))}

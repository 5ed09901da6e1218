"""Integer-factor decimating resampler with a windowed-sinc FIR.

The merge carries the last fir_length - 1 input samples across
continuous chunks (``history``), as it does for every windowed
transform, and the count of samples since the last discontinuity fixes
the decimation phase; so the chunked result equals the unchunked
filtering exactly, column for column.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from ..chunks import AlignmentParams
from ..errors import EmptyResult
from ..merge import MergedChunk
from .base import FeatureData, Processor, register


def design_lowpass(fir_length: int, factor: int) -> np.ndarray:
    """Windowed-sinc anti-alias FIR, unit DC gain; identity for length 1."""
    if fir_length % 2 != 1:
        raise ValueError("fir_length must be odd")
    if fir_length == 1:
        return np.ones(1)
    mid = (fir_length - 1) // 2
    cutoff = 0.45 / factor  # cycles per input sample
    k = np.arange(fir_length) - mid
    h = 2 * cutoff * np.sinc(2 * cutoff * k) * np.hamming(fir_length)
    return h / h.sum()


@register
class Resampler(Processor):
    """Anti-alias FIR then decimation by an integer factor.

    Output sample m is the filter applied at input sample m * factor;
    the first ceil((fir_length - 1) / factor) outputs after a
    discontinuity lack history and are dropped.
    """

    kind = "resampler"
    parameters = ("factor", "fir_length")

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.factor = int(params.get("factor", 1))
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        self.fir_length = int(params.get("fir_length", 127))
        self.h = design_lowpass(self.fir_length, self.factor)
        self.drop = math.ceil((self.fir_length - 1) / self.factor)
        self.history = self.fir_length - 1
        self._count = 0  # input samples since the last discontinuity

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        return {"snd": AlignmentParams(p=0, d=self.drop, l=0, s=0)}

    def prepare(
        self, in_rate: float, merged: AlignmentParams, in_freqs: None
    ) -> Tuple[float, None, AlignmentParams]:
        R = self.factor
        if in_rate % R != 0:
            raise ValueError(f"factor {R} does not divide sample rate {in_rate}")
        merged_out = AlignmentParams(
            p=-(-merged.p // R), d=-(-merged.d // R), l=merged.l, s=merged.s
        )
        return in_rate / R, in_freqs, merged_out

    def reset(self) -> None:
        super().reset()
        self._count = 0

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        (x,) = merged.payloads.values()
        R, F = self.factor, self.fir_length
        # a continuous chunk begins with the F - 1 samples it shares with
        # the previous one
        continuous = merged.continuity.continuous
        count = (self._count - (F - 1) if continuous else 0) + x.shape[-1]
        # outputs fall on the counts that are multiples of R, from the
        # first sample after a discontinuity that has its full history
        if not continuous and -(-count // R) <= self.drop:
            raise EmptyResult(
                f"chunk of {x.shape[-1]} samples yields no resampled output; "
                f"minimum chunk length is {self.drop * R + 1} after a "
                f"discontinuity"
            )
        self._count = count
        # position i of x holds the sample counted count - len(x) + i,
        # and "valid" output j is the filter ending at position j + F - 1
        first = (x.shape[-1] - F + 1 - count) % R
        y = np.convolve(x, self.h, mode="valid")[first::R]
        # a continuous chunk between two outputs publishes nothing
        return {"snd": FeatureData(y)} if y.size else {}

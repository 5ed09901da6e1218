"""Integer-factor decimating resampler with a windowed-sinc FIR.

State (the last fir_length - 1 input samples plus the decimation phase)
is carried across continuous chunks, so the chunked result equals the
unchunked filtering exactly, column for column.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..chunks import AlignmentParams, is_withprevious_subtype
from ..errors import EmptyResult, NonIntegerRate, ShapeMismatch
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

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.factor = int(params.get("factor", 1))
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        self.fir_length = int(params.get("fir_length", 127))
        self.h = design_lowpass(self.fir_length, self.factor)
        self.drop = math.ceil((self.fir_length - 1) / self.factor)
        self._tail: Optional[np.ndarray] = None
        self._in_count = 0  # input samples since the last discontinuity

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        return {"snd": AlignmentParams(p=0, d=self.drop, l=0, s=0)}

    def time_scale(self) -> float:
        return 1.0 / self.factor

    def convert_alignment(self, merged: AlignmentParams) -> AlignmentParams:
        R = self.factor
        return AlignmentParams(
            p=-(-merged.p // R), d=-(-merged.d // R), l=merged.l, s=merged.s
        )

    def prepare(self, in_rate: float) -> float:
        if in_rate % self.factor != 0:
            raise NonIntegerRate(
                f"factor {self.factor} does not divide sample rate {in_rate}"
            )
        return in_rate / self.factor

    def reset(self) -> None:
        self._tail = None
        self._in_count = 0

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        if len(merged.payloads) != 1:
            raise ShapeMismatch("resampler expects exactly one input")
        x = next(iter(merged.payloads.values()))
        if x.ndim != 1:
            raise ShapeMismatch("resampler expects a 1-D time series")
        R, F = self.factor, self.fir_length

        continuous = is_withprevious_subtype(merged.continuity) and self._tail is not None
        if continuous:
            base = self._in_count
            buf = np.concatenate([self._tail, x])
            # full np.convolve index of output m is m*R - base + F - 1
            m_start = -(-base // R)  # ceil
            offset = F - 1 - base
        else:
            base = 0
            self._in_count = 0
            buf = x
            m_start = self.drop
            offset = 0
        m_end = -(-(base + x.shape[-1]) // R)
        if m_end <= m_start:
            raise EmptyResult(
                f"chunk of {x.shape[-1]} samples yields no resampled output; "
                f"minimum chunk length is {(self.drop + 1) * R}"
            )
        conv = np.convolve(buf, self.h, mode="full")
        positions = np.arange(m_start, m_end) * R + offset
        y = conv[positions]

        self._in_count = base + x.shape[-1]
        if buf.shape[-1] < F - 1:
            raise EmptyResult(
                f"chunk of {buf.shape[-1]} samples is shorter than the "
                f"filter history {F - 1}"
            )
        self._tail = buf[-(F - 1) :].copy() if F > 1 else buf[:0].copy()
        rate_out = merged.sample_rate / R
        return {"snd": FeatureData(payload=y, sample_rate=rate_out)}

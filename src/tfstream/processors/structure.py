"""Structure extractor: tract features scoring local time-frequency order.

The score at (t, f) is the normalized (cosine) self-similarity of the
energy under a time shift (horizontal, tonal organization) or a scale
shift (vertical, pulsal organization), evaluated on the window spanning
w_t steps and w_s channels around the location.  Scores lie in [0, 1]
with 1 for perfectly repeating structure.  A calibration chunk (white
noise) is scored like any other; ptn estimates its threshold from those
scores.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..chunks import AlignmentParams, is_withprevious_subtype
from ..errors import ShapeMismatch, TooFewChannels
from ..merge import MergedChunk
from .base import FeatureData, FreqCache, Processor, TimeWindowState, register


#: Output columns per tile of a score computation (see ``_tiled``).
SCORE_TILE = 256


def _span(x: np.ndarray, start: int, length: int, axis: int) -> np.ndarray:
    """View of ``length`` positions of x along ``axis`` from ``start``."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    return x[tuple(index)]


def _moving_sum(x: np.ndarray, width: int, axis: int = -1) -> np.ndarray:
    """Sum of every complete length-``width`` window along ``axis``.

    Output position i holds x[i] + ... + x[i + width - 1], so the output
    is width - 1 positions shorter than x.  Each window is summed as a
    fixed tree of power-of-two partial sums anchored at the window's
    start (for width 41: x[i] + P8[i + 1] + P32[i + 9], each P built by
    doubling), so its value depends on its own window only, not on where
    the array starts or how long it is.
    """
    axis = axis % x.ndim
    count = x.shape[axis] - width + 1
    total = None
    offset = 0
    partial = x  # partial[i] = sum of `size` values from position i
    size = 1
    while True:
        if width & size:
            part = _span(partial, offset, count, axis)
            total = part if total is None else total + part
            offset += size
        if 2 * size > width:
            return total
        pairs = partial.shape[axis] - size
        partial = _span(partial, 0, pairs, axis) + _span(partial, size, pairs, axis)
        size *= 2


def _score(num: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray) -> np.ndarray:
    """Cosine similarity num / sqrt(s_lo * s_hi); 1 where the energy is 0."""
    denom = np.sqrt(s_lo * s_hi)
    score = np.ones_like(num)
    np.divide(num, denom, out=score, where=denom > 0)
    return score


def _horizontal_tile(energy: np.ndarray, w_t: int) -> np.ndarray:
    """Horizontal scores of columns [w_t, T - w_t) of energy."""
    lag = w_t
    width = w_t + 1
    sq = energy * energy
    prod = energy[:, : energy.shape[-1] - lag] * energy[:, lag:]
    s_ab = _moving_sum(prod, width)  # windows [t - w_t, t] x [t, t + w_t]
    s_sq = _moving_sum(sq, width)
    n = s_ab.shape[-1]
    return _score(s_ab, s_sq[:, :n], s_sq[:, lag : lag + n])


def _vertical_tile(energy: np.ndarray, w_t: int, w_s: int) -> np.ndarray:
    """Vertical scores of rows [w_s, F - w_s), columns [w_t, T - w_t)."""
    lag = w_s
    sq = energy * energy
    prod = energy[: energy.shape[0] - lag] * energy[lag:]
    width = 2 * w_t + 1
    s_ab = _moving_sum(_moving_sum(prod, w_s + 1, axis=0), width, axis=1)
    s_sq = _moving_sum(_moving_sum(sq, w_s + 1, axis=0), width, axis=1)
    n_f = s_ab.shape[0]
    return _score(s_ab, s_sq[:n_f], s_sq[lag : lag + n_f])


def _tiled(tile_scores, energy: np.ndarray, w_t: int, rows: slice) -> np.ndarray:
    """Full-width scores, NaN outside ``rows`` x [w_t, T - w_t).

    Each score depends on its own window only, so computing the columns
    SCORE_TILE at a time gives the same bits as one pass, with temporaries
    small enough to stay in cache and be reused from call to call.
    """
    out = np.full(energy.shape, np.nan)
    valid = energy.shape[-1] - 2 * w_t
    for start in range(0, valid, SCORE_TILE):
        stop = min(start + SCORE_TILE, valid)
        out[rows, w_t + start : w_t + stop] = tile_scores(
            energy[:, start : stop + 2 * w_t]
        )
    return out


def horizontal_score(energy: np.ndarray, w_t: int) -> np.ndarray:
    """Time-shift self-similarity per channel row.

    Valid for t in [w_t, T - w_t), NaN elsewhere: the score at t compares
    the windows [t - w_t, t] and [t, t + w_t].
    """
    return _tiled(lambda e: _horizontal_tile(e, w_t), energy, w_t, slice(None))


def vertical_score(energy: np.ndarray, w_t: int, w_s: int) -> np.ndarray:
    """Scale-shift self-similarity, time-averaged over the window.

    Valid for f in [w_s, F - w_s) and t in [w_t, T - w_t), NaN elsewhere:
    the score compares scale windows [f - w_s, f] and [f, f + w_s], each
    summed over the time window [t - w_t, t + w_t].
    """
    rows = slice(w_s, energy.shape[0] - w_s)
    return _tiled(lambda e: _vertical_tile(e, w_t, w_s), energy, w_t, rows)


@register
class StructureExtractor(Processor):
    """Publishes the tract feature T with alignment (w_t, w_t, w_s, w_s)."""

    kind = "structure_extractor"

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.w_t = int(params.get("w_t", 40))
        self.w_s = int(params.get("w_s", 3))
        if self.w_t < 1 or self.w_s < 1:
            raise ValueError("w_t and w_s must be >= 1")
        self.direction = params.get("direction", "horizontal")
        if self.direction not in ("horizontal", "vertical"):
            raise ValueError(f"bad direction {self.direction!r}")
        self._window = TimeWindowState(declared_d=self.w_t, declared_p=self.w_t)
        self._freqs = FreqCache(lambda freqs: freqs)

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        return {
            "T": AlignmentParams(p=self.w_t, d=self.w_t, l=self.w_s, s=self.w_s)
        }

    def reset(self) -> None:
        self._window.reset()

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        if len(merged.payloads) != 1:
            raise ShapeMismatch("structure extractor expects exactly one input")
        key = next(iter(merged.payloads))
        energy = merged.payloads[key]
        if energy.ndim != 2:
            raise ShapeMismatch("structure extractor expects a 2-D representation")
        if energy.shape[0] < 2 * self.w_s + 1:
            raise TooFewChannels(
                f"structure extraction needs >= {2 * self.w_s + 1} channels, "
                f"got {energy.shape[0]}"
            )
        continuous = is_withprevious_subtype(merged.continuity)
        buf, out = self._window.feed(continuous, energy)
        if self.direction == "horizontal":
            scores = horizontal_score(buf, self.w_t)[:, out]
        else:
            scores = vertical_score(buf, self.w_t, self.w_s)[:, out]
        # mark the cumulative invalid scale margins
        l_cum = merged.alignment.l + self.w_s
        s_cum = merged.alignment.s + self.w_s
        scores[:l_cum, :] = np.nan
        scores[scores.shape[0] - s_cum :, :] = np.nan
        return {
            "T": FeatureData(
                payload=scores,
                sample_rate=merged.sample_rate,
                channel_freqs=self._freqs(merged.channel_freqs.get(key)),
            )
        }

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

from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from ..chunks import AlignmentParams
from ..merge import MergedChunk
from .base import FeatureData, Processor, register


#: Cells (channels x columns) per tile of a per-cell kernel: the
#: structure scores (see ``_valid_scores``) and ptn's gate and block
#: averages.  That is 256 columns of 64 channels, 128 KB per float64
#: scratch array; fewer channels get wider tiles, so that few-channel
#: signals do not pay per-tile call overhead on tiny tiles.
TILE_CELLS = 64 * 256


def tile_columns(channels: int) -> int:
    """Columns per tile of ``channels`` rows."""
    return max(1, TILE_CELLS // channels)


def _span(x: np.ndarray, start: int, length: int, axis: int) -> np.ndarray:
    """View of ``length`` positions of a 2-D x along ``axis`` (0 or 1)
    from ``start``."""
    if axis == 0:
        return x[start : start + length]
    return x[:, start : start + length]


def _moving_sum(
    x: np.ndarray, width: int, axis: int, out: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """Sum of every complete length-``width`` window along ``axis``,
    written into ``out``.

    Output position i holds x[i] + ... + x[i + width - 1], so the output
    is width - 1 positions shorter than x.  Each window is summed as a
    fixed tree of power-of-two partial sums anchored at the window's
    start (for width 41: x[i] + P8[i + 1] + P32[i + 9], each P built by
    doubling), so its value depends on its own window only, not on where
    the array starts or how long it is.  The partial sums overwrite x
    and ``spare`` (an array of x's shape), so nothing is allocated.
    """
    axis = axis % x.ndim
    count = x.shape[axis] - width + 1
    started = False
    offset = 0
    partial, free = x, spare  # partial[i] = sum of `size` values from i
    size = 1
    while True:
        if width & size:
            part = _span(partial, offset, count, axis)
            if started:
                np.add(out, part, out=out)
            else:
                np.copyto(out, part)
                started = True
            offset += size
        if 2 * size > width:
            return out
        pairs = partial.shape[axis] - size
        partial, free = np.add(
            _span(partial, 0, pairs, axis),
            _span(partial, size, pairs, axis),
            out=_span(free, 0, pairs, axis),
        ), partial
        size *= 2


def _shaped(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The first cells of a flat scratch row as a C-contiguous array."""
    return flat[: shape[0] * shape[1]].reshape(shape)


def _score(num, s_lo, s_hi, out, denom, positive) -> np.ndarray:
    """out = num / sqrt(s_lo * s_hi), 1 where that root is 0; ``denom``
    and ``positive`` are scratch of out's shape."""
    np.multiply(s_lo, s_hi, out=denom)
    np.sqrt(denom, out=denom)
    np.greater(denom, 0, out=positive)
    out[...] = 1.0
    return np.divide(num, denom, out=out, where=positive)


def _horizontal_tile(work, mask, m: int, c: int, w_t: int) -> np.ndarray:
    """Horizontal scores (m - 2 w_t x c) of a time-major window (m time
    steps x c channels, in ``work[0]``).

    ``work`` is four flat scratch rows and ``mask`` a flat bool row, all
    overwritten; the scores are a view of ``work``.
    """
    w, a, b, s = work
    lag = w_t
    width = w_t + 1
    n = m - 2 * w_t
    window = _shaped(w, m, c)
    sq = np.multiply(window, window, out=_shaped(a, m, c))
    prod = np.multiply(window[: m - lag], window[lag:], out=_shaped(b, m - lag, c))
    # windows [t - w_t, t] x [t, t + w_t]
    s_ab = _moving_sum(prod, width, 0, _shaped(s, n, c), _shaped(w, m - lag, c))
    s_sq = _moving_sum(sq, width, 0, _shaped(b, n + lag, c), _shaped(w, m, c))
    return _score(s_ab, s_sq[:n], s_sq[lag : lag + n], _shaped(w, n, c),
                  _shaped(a, n, c), _shaped(mask, n, c))


def _vertical_tile(work, mask, m: int, f: int, w_t: int, w_s: int) -> np.ndarray:
    """Vertical scores (m - 2 w_t x f - 2 w_s) of a time-major window
    (m time steps x f channels, in ``work[0]``): time steps
    [w_t, m - w_t), channels [w_s, f - w_s).  Scratch as for
    ``_horizontal_tile``."""
    w, a, b, s = work
    lag = w_s
    width = 2 * w_t + 1
    n = m - 2 * w_t
    n_f = f - 2 * w_s
    window = _shaped(w, m, f)
    sq = np.multiply(window, window, out=_shaped(a, m, f))
    prod = np.multiply(window[:, : f - lag], window[:, lag:],
                       out=_shaped(b, m, f - lag))
    inner = _moving_sum(prod, w_s + 1, 1, _shaped(w, m, n_f), _shaped(s, m, f - lag))
    s_ab = _moving_sum(inner, width, 0, _shaped(b, n, n_f), _shaped(s, m, n_f))
    inner = _moving_sum(sq, w_s + 1, 1, _shaped(w, m, f - lag), _shaped(s, m, f))
    s_sq = _moving_sum(inner, width, 0, _shaped(a, n, f - lag), _shaped(s, m, f - lag))
    return _score(s_ab, s_sq[:, :n_f], s_sq[:, lag : lag + n_f],
                  _shaped(s, n, n_f), _shaped(w, n, n_f), _shaped(mask, n, n_f))


def _valid_scores(tile, energy: np.ndarray, w_t: int, margin: int) -> np.ndarray:
    """Scores of columns [w_t, T - w_t) as one C-contiguous array, NaN
    in the first and last ``margin`` rows.

    Each score depends on its own window only, so computing the columns
    a tile at a time gives the same bits as one pass.  Each tile's
    input window is copied time-major, so every shifted view in the
    moving-sum tree is one contiguous block, and every tile reuses the
    same cache-sized scratch.
    """
    channels = energy.shape[0]
    valid = max(energy.shape[-1] - 2 * w_t, 0)
    out = np.empty((channels, valid))
    out[:margin] = np.nan
    out[channels - margin :] = np.nan
    columns = tile_columns(channels)
    cells = (min(valid, columns) + 2 * w_t) * channels
    work = np.empty((4, cells))
    mask = np.empty(cells, dtype=bool)
    for start in range(0, valid, columns):
        stop = min(start + columns, valid)
        m = stop - start + 2 * w_t
        np.copyto(_shaped(work[0], m, channels), energy[:, start : start + m].T)
        out[margin : channels - margin, start:stop] = tile(work, mask, m, channels).T
    return out


def _horizontal_valid(energy: np.ndarray, w_t: int) -> np.ndarray:
    """Time-shift self-similarity per channel row, for the columns t in
    [w_t, T - w_t): the score at t compares the windows [t - w_t, t] and
    [t, t + w_t]."""
    return _valid_scores(partial(_horizontal_tile, w_t=w_t), energy, w_t, 0)


def _vertical_valid(energy: np.ndarray, w_t: int, w_s: int) -> np.ndarray:
    """Scale-shift self-similarity, time-averaged over the window, for the
    columns t in [w_t, T - w_t); rows outside f in [w_s, F - w_s) are
    NaN.  The score compares scale windows [f - w_s, f] and [f, f + w_s],
    each summed over the time window [t - w_t, t + w_t]."""
    return _valid_scores(
        partial(_vertical_tile, w_t=w_t, w_s=w_s), energy, w_t, w_s
    )


@register
class StructureExtractor(Processor):
    """Publishes the tract feature T with alignment (w_t, w_t, w_s, w_s)."""

    kind = "structure_extractor"
    parameters = ("w_t", "w_s", "direction")
    takes_2d = True

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        self.w_t = int(params.get("w_t", 40))
        self.w_s = int(params.get("w_s", 3))
        if self.w_t < 1 or self.w_s < 1:
            raise ValueError("w_t and w_s must be >= 1")
        self.direction = params.get("direction", "horizontal")
        if self.direction not in ("horizontal", "vertical"):
            raise ValueError(f"bad direction {self.direction!r}")
        # a score reads w_t columns on either side of its own
        self.history = 2 * self.w_t
        #: T's cumulative invalid scale margins (l, s), set by prepare
        self._margins: Optional[Tuple[int, int]] = None

    def prepare(
        self, in_rate: float, merged: AlignmentParams, in_freqs: np.ndarray
    ) -> Tuple[float, np.ndarray, AlignmentParams]:
        """ValueError when the input has fewer than 2 w_s + 1 channels."""
        if len(in_freqs) < 2 * self.w_s + 1:
            raise ValueError(
                f"structure extraction needs >= {2 * self.w_s + 1} "
                f"channels, got {len(in_freqs)}"
            )
        self._margins = (merged.l + self.w_s, merged.s + self.w_s)
        return in_rate, in_freqs, merged

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        return {
            "T": AlignmentParams(p=self.w_t, d=self.w_t, l=self.w_s, s=self.w_s)
        }

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        (energy,) = merged.payloads.values()
        # d = p = w_t, so the output columns are always [w_t, T - w_t)
        # of the merged chunk, carried history included
        if self.direction == "horizontal":
            scores = _horizontal_valid(energy, self.w_t)
        else:
            scores = _vertical_valid(energy, self.w_t, self.w_s)
        # mark the cumulative invalid scale margins
        l_cum, s_cum = self._margins
        scores[:l_cum, :] = np.nan
        scores[scores.shape[0] - s_cum :, :] = np.nan
        return {"T": FeatureData(scores)}

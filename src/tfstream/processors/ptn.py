"""PTN processor: tonal energy via sigmoid-gated cochleogram energy.

Per cell: E_T = E * logistic((T - theta) / beta), with NaN kept in the
invalid scale margins.  The product is averaged over (block_dt x
block_df) blocks, NaN-aware, together with the number of valid cells per
block, and so is E itself.  E_blocks - E_T is the block energy not on
the tonal path.

``PTNProcessor.process`` does all of this in one pass over tiles of
whole blocks: each tile is gated into scratch and summed with its energy
while it is in cache, so no full-resolution product is ever stored.  The
last tile also holds the incomplete tail, gated in the same pass and
carried to the next chunk.
``logistic`` and ``block_averages`` are the whole-array formulas whose
bits it reproduces.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Tuple

import numpy as np

from ..chunks import AlignmentParams, Continuity
from ..errors import ConfigError
from ..merge import MergedChunk
from .base import FeatureData, Processor, register
from .structure import tile_columns


def logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), evaluated as e / (1 + e) with e = exp(z) for
    z < 0 so that exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def block_averages(
    data: np.ndarray, block_dt: int, block_df: int
) -> Tuple[np.ndarray, np.ndarray]:
    """NaN-aware mean and valid-cell count of every complete block: the
    reference formula that ``PTNProcessor.process`` reproduces tile by
    tile.

    data is channels x time; blocks are block_df channel rows (the last
    group may be smaller) by block_dt columns, and an incomplete time
    tail is ignored.  Returns (means, counts), each groups x blocks.
    Each row is summed over its block_dt columns first, then the
    block_df row sums of a group are added one row after the other, so
    a block's value never depends on how many blocks data holds.
    """
    channels = data.shape[0]
    n_blocks = data.shape[-1] // block_dt
    cells = data[:, : n_blocks * block_dt].reshape(channels, n_blocks, block_dt)
    valid = ~np.isnan(cells)
    row_sums = np.where(valid, cells, 0.0).sum(axis=-1)
    row_counts = valid.sum(axis=-1)
    n_groups = -(-channels // block_df)
    sums = np.zeros((n_groups, n_blocks))
    counts = np.zeros((n_groups, n_blocks))
    for member in range(min(block_df, channels)):
        rows = row_sums[member::block_df]
        sums[: rows.shape[0]] += rows
        counts[: rows.shape[0]] += row_counts[member::block_df]
    # 0/0 for an all-NaN group, as x86 writes it (not np.nan's bits)
    with np.errstate(invalid="ignore"):
        return sums / counts, counts


def blocks_per_tile(channels: int, block_dt: int) -> int:
    """Whole blocks of block_dt columns per tile of ``channels`` rows:
    three gate tiles, rounded up, so 8 blocks of 100 columns at 64
    channels.

    Each tile costs a fixed number of numpy calls.  On the live
    pipeline's 64 x 512 chunks, the file pipeline's 64 x 2048 chunks and
    its whole-signal reference (pinned, Xeon with 2 MiB L2 per core),
    tiles of 3 blocks took about 6 % longer than tiles of 8 in 27 to 30
    of 30 paired rounds, while 5, 8 and 16 blocks were within 1 %.
    """
    return -(-3 * tile_columns(channels) // block_dt)


def group_means(freqs: np.ndarray, block_df: int) -> np.ndarray:
    """Mean frequency of each group of block_df channels (the last group
    may be smaller)."""
    freqs = np.asarray(freqs, dtype=float)
    groups = [freqs[g : g + block_df] for g in range(0, freqs.size, block_df)]
    # each group's sum over its count: the bits of group.mean(), without
    # its per-call overhead
    return np.array([np.add.reduce(group) / group.size for group in groups])


def _per_channel(value) -> np.ndarray:
    """Scalar stays scalar; a per-channel vector broadcasts along time."""
    arr = np.asarray(value, dtype=float)
    return arr[:, None] if arr.ndim == 1 and arr.size > 1 else arr


@register
class PTNProcessor(Processor):
    """Merges E and T, publishes block-averaged tonal energy.

    Features: E_T (tonal block means), E_T_valid (valid cells per block),
    E_blocks (total energy block means).  The sigmoid threshold theta and
    slope beta are configured, or else estimated from the calibration
    chunk's tract scores; theta_quantile (default 95) and beta_quantile
    (default 99) set the estimate.
    """

    kind = "ptn"
    parameters = ("theta", "beta", "theta_quantile", "beta_quantile",
                  "block_dt", "block_df")
    input_features = ("E", "T")
    takes_2d = True
    #: gating cannot run without (theta, beta); the graph validator
    #: requires either explicit values or an upstream calibration source
    needs_threshold = True

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
        #: the run's sizes: scratch is (re)sized when the channel count
        #: changes, never per chunk
        self._channels = 0
        self.theta = params.get("theta")
        self.beta = params.get("beta")
        self.theta_quantile = float(params.get("theta_quantile", 95.0))
        self.beta_quantile = float(params.get("beta_quantile", 99.0))
        if not 0 < self.theta_quantile < self.beta_quantile < 100:
            raise ValueError("need 0 < theta_quantile < beta_quantile < 100")
        self.block_dt = int(params.get("block_dt", 100))
        self.block_df = int(params.get("block_df", 8))
        if self.block_dt < 1 or self.block_df < 1:
            raise ValueError("block sizes must be >= 1")
        self.valid_columns = 0
        #: incomplete-block tails (fewer than block_dt columns), owned
        self._carry_et: Optional[np.ndarray] = None
        self._carry_e: Optional[np.ndarray] = None

    @property
    def theta(self):
        return self._theta

    @theta.setter
    def theta(self, value) -> None:
        self._theta = value
        self._theta_rows = None if value is None else _per_channel(value)

    @property
    def beta(self):
        return self._beta

    @beta.setter
    def beta(self, value) -> None:
        self._beta = value
        self._beta_rows = None if value is None else _per_channel(value)

    def _size_scratch(self, channels: int) -> None:
        """Tile sizes and scratch for inputs of ``channels`` rows: gate
        scratch (three float rows of one gate tile's cells), and
        block-sum scratch (gated cells over energy, and their NaN mask)
        for one tile of whole blocks plus the block_dt - 1 columns of an
        incomplete tail."""
        self._channels = channels
        self._gate_columns = tile_columns(channels)
        self._scratch = np.empty((3, channels * self._gate_columns))
        self._per_tile = blocks_per_tile(channels, self.block_dt)
        size = 2 * channels * ((self._per_tile + 1) * self.block_dt - 1)
        self._stacked = np.empty(size)
        self._nan = np.empty(size, dtype=bool)

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        zero = AlignmentParams()
        return {"E_T": zero, "E_T_valid": zero, "E_blocks": zero}

    def prepare(
        self, in_rate: float, merged: AlignmentParams, in_freqs: np.ndarray
    ) -> Tuple[float, np.ndarray, AlignmentParams]:
        """Block values are final once published: only complete blocks go
        out and incomplete tails are carried, so p = d = 0 in block steps.
        A block row is invalid only when every member channel is."""
        merged_out = AlignmentParams(
            p=0, d=0, l=merged.l // self.block_df, s=merged.s // self.block_df
        )
        return (in_rate / self.block_dt, group_means(in_freqs, self.block_df),
                merged_out)

    def reset(self) -> None:
        super().reset()
        self.valid_columns = 0
        self._carry_et = None
        self._carry_e = None

    def calibrate(self, scores: np.ndarray) -> None:
        """Set per-channel (theta, beta) from calibration noise scores.

        Noise scores are bounded by 1 and their bulk sits well below it,
        so mean-plus-sigma thresholds can exceed the score ceiling.  The
        upper quantiles stay inside it: theta is the theta_quantile score
        per channel and beta the distance to the beta_quantile, which
        puts repeating structure (scores near 1) several slopes above
        the threshold on every channel.  NaN cells are ignored; a channel
        with no valid score (an invalid scale margin) gets the mean over
        the others.
        """
        with warnings.catch_warnings():
            # all-NaN rows (invalid scale margins) are filled below
            warnings.simplefilter("ignore", RuntimeWarning)
            q_theta, q_beta = np.nanpercentile(
                scores, [self.theta_quantile, self.beta_quantile], axis=1
            )
        self.theta = np.where(np.isnan(q_theta), np.nanmean(q_theta), q_theta)
        spread = q_beta - q_theta
        fill = max(float(np.nanmean(spread)), 1e-9)
        self.beta = np.where(np.isnan(spread), fill, np.maximum(spread, 1e-9))

    def _gate(self, energy: np.ndarray, tract: np.ndarray, out: np.ndarray) -> None:
        """out = energy * logistic((tract - theta) / beta), a tile of
        columns at a time.

        Each tile goes through the ufuncs of ``logistic``, in its order
        (its ``where`` as a ``maximum`` with the same bits), on
        contiguous scratch, so every cell gets the bits of the
        whole-signal expression, NaN signs included, in pieces of up to
        4,096 columns; wider strided pieces can flip a NaN's sign.  The
        filterbank, the only 2-D producer, requires 4 channels, so
        shipped graphs have tiles of at most 4,096 columns.
        """
        theta, beta = self._theta_rows, self._beta_rows
        channels, width = energy.shape
        if channels != self._channels:
            self._size_scratch(channels)
        columns = self._gate_columns
        for start in range(0, width, columns):
            stop = min(start + columns, width)
            shape = (channels, stop - start)
            size = channels * (stop - start)
            z, a, e = self._scratch[:, :size].reshape(3, *shape)
            np.subtract(tract[:, start:stop], theta, out=z)
            np.divide(z, beta, out=z)
            np.abs(z, out=a)
            np.negative(a, out=a)
            np.exp(a, out=e)
            # a = where(z >= 0, 1.0, e): e <= 1, and NaN z gives e's NaN
            np.greater_equal(z, 0, out=a, casting="unsafe")
            np.maximum(e, a, out=a)
            np.add(1.0, e, out=e)
            np.divide(a, e, out=a)
            # gate first: numpy's temporary elision ran the whole-array
            # `energy * logistic(...)` as `gate *= energy` from 256 KiB on
            np.multiply(a, energy[:, start:stop], out=out[:, start:stop])

    def _fill(
        self, energy: np.ndarray, tract: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Columns start..stop of the carried tail followed by this
        chunk, gated cells over energy, as one contiguous
        (2, channels, stop - start) tile of scratch."""
        channels = energy.shape[0]
        width = stop - start
        cells = self._stacked[: 2 * channels * width].reshape(2, channels, width)
        carried = 0 if self._carry_et is None else self._carry_et.shape[-1]
        split = max(0, min(carried, stop) - start)
        if split:
            cells[0, :, :split] = self._carry_et[:, start : start + split]
            cells[1, :, :split] = self._carry_e[:, start : start + split]
        first, last = start + split - carried, stop - carried
        if last > first:
            self._gate(energy[:, first:last], tract[:, first:last], cells[0, :, split:])
            cells[1, :, split:] = energy[:, first:last]
        return cells

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        inputs = {feature: arr for (_, feature), arr in merged.payloads.items()}
        energy, tract = inputs["E"], inputs["T"]

        if merged.continuity is Continuity.CALIBRATION:
            # Estimate the sigmoid parameters from the noise tract
            # scores; calibration data never reaches the results.
            if self.theta is None or self.beta is None:
                self.calibrate(tract)
            self._carry_et = None
            self._carry_e = None
            return {}
        if self.theta is None or self.beta is None:
            raise ConfigError(
                "ptn has no (theta, beta): configure them or run with a "
                "calibration chunk"
            )

        if not merged.continuity.continuous:
            self._carry_et = None
            self._carry_e = None
        channels, width = energy.shape
        self.valid_columns += width
        if channels != self._channels:
            self._size_scratch(channels)
        carried = 0 if self._carry_et is None else self._carry_et.shape[-1]
        dt = self.block_dt
        total = carried + width
        n_blocks = total // dt
        # per channel row and block: the sums of the gated cells (0) and
        # of energy (1), then the NaN cells of each (2, 3)
        rows = np.empty((4, channels, n_blocks))
        # tiles of whole blocks; the last one also holds the incomplete
        # tail, which is gated with it and carried, not summed
        first = 0
        while True:
            last = min(first + self._per_tile, n_blocks)
            cells = self._fill(
                energy, tract, first * dt, total if last == n_blocks else last * dt)
            whole = (last - first) * dt
            if whole:
                blocks = cells[..., :whole]
                nan = self._nan[: blocks.size].reshape(blocks.shape)
                np.isnan(blocks, out=nan)
                np.copyto(blocks, 0.0, where=nan)
                shape = (2, channels, last - first, dt)
                np.add.reduce(blocks.reshape(shape), axis=-1,
                              out=rows[:2, :, first:last])
                np.add.reduce(nan.reshape(shape), axis=-1,
                              out=rows[2:, :, first:last])
            if last == n_blocks:
                break
            first = last
        # the carries own their tails: the next chunk reuses the scratch
        self._carry_et = cells[0, :, whole:].copy()
        self._carry_e = cells[1, :, whole:].copy()
        if not n_blocks:
            return {}

        # valid cells per row and block, then every group's member rows
        # added one after the other, sums and counts alike
        np.subtract(dt, rows[2:], out=rows[2:])
        groups = np.zeros((4, -(-channels // self.block_df), n_blocks))
        for member in range(min(self.block_df, channels)):
            member_rows = rows[:, member :: self.block_df]
            groups[:, : member_rows.shape[1]] += member_rows
        sums, counts = groups[:2], groups[2:]
        # 0/0 for an all-NaN group, as x86 writes it (not np.nan's bits)
        with np.errstate(invalid="ignore"):
            means = np.divide(sums, counts, out=sums)

        return {
            "E_T": FeatureData(means[0]),
            "E_T_valid": FeatureData(counts[0]),
            "E_blocks": FeatureData(means[1]),
        }

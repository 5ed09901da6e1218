"""PTN processor: tonal energy via sigmoid-gated cochleogram energy.

Per cell: E_T = E * logistic((T - theta) / beta), with NaN kept in the
invalid scale margins.  The full-resolution product is then averaged over
(block_dt x block_df) blocks, NaN-aware, together with the number of
valid cells per block.  Pulse/noise complements at block level are the
difference to the total block energy.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from ..chunks import (
    AlignmentParams,
    Continuity,
    SourceKey,
    as_continuity,
    is_withprevious_subtype,
)
from ..errors import ConfigError, ShapeMismatch
from ..merge import MergedChunk
from .base import FeatureData, FreqCache, Processor, register


def logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), evaluated as e / (1 + e) with e = exp(z) for
    z < 0 so that exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def block_averages(
    data: np.ndarray, block_dt: int, block_df: int
) -> Tuple[np.ndarray, np.ndarray]:
    """NaN-aware mean and valid-cell count of every complete block.

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
    with np.errstate(invalid="ignore"):
        return sums / counts, counts


def block_average(
    data: np.ndarray, block_df: int
) -> Tuple[np.ndarray, np.ndarray]:
    """NaN-aware mean and valid-cell count over channel groups.

    data is one complete time block (channels x block_dt); channel groups
    of block_df rows (last group may be smaller).
    """
    means, counts = block_averages(data, data.shape[-1], block_df)
    return means[:, 0], counts[:, 0]


def group_means(freqs: np.ndarray, block_df: int) -> np.ndarray:
    """Mean frequency of each group of block_df channels (the last group
    may be smaller)."""
    freqs = np.asarray(freqs, dtype=float)
    return np.array(
        [
            freqs[g * block_df : (g + 1) * block_df].mean()
            for g in range(-(-freqs.size // block_df))
        ]
    )


def noise_complement(total_blocks: np.ndarray, tonal_blocks: np.ndarray) -> np.ndarray:
    """Block-level energy not attributed to the tonal path."""
    return total_blocks - tonal_blocks


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
    #: gating cannot run without (theta, beta); the graph validator
    #: requires either explicit values or an upstream calibration source
    needs_threshold = True

    def __init__(self, name: str, params: dict):
        super().__init__(name, params)
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
        self.energy_feature = params.get("energy_feature", "E")
        self.tract_feature = params.get("tract_feature", "T")
        self.valid_columns = 0
        self._carry_et: Optional[np.ndarray] = None
        self._carry_e: Optional[np.ndarray] = None
        self._pending_discontinuity: Optional[Continuity] = None
        self._block_freqs = FreqCache(partial(group_means, block_df=self.block_df))

    def feature_alignment(self) -> Dict[str, AlignmentParams]:
        zero = AlignmentParams()
        return {"E_T": zero, "E_T_valid": zero, "E_blocks": zero}

    def output_channels(self, feature: str, in_channels: int) -> int:
        return -(-in_channels // self.block_df)

    def time_scale(self) -> float:
        return 1.0 / self.block_dt

    def convert_alignment(self, merged: AlignmentParams) -> AlignmentParams:
        """Block values are final once published: only complete blocks go
        out and incomplete tails are carried, so p = d = 0 in block steps.
        A block row is invalid only when every member channel is."""
        return AlignmentParams(
            p=0, d=0, l=merged.l // self.block_df, s=merged.s // self.block_df
        )

    def reset(self) -> None:
        self.valid_columns = 0
        self._carry_et = None
        self._carry_e = None
        self._pending_discontinuity = None

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

    def _pick_inputs(self, merged: MergedChunk) -> Tuple[SourceKey, SourceKey]:
        e_key = t_key = None
        for key in merged.payloads:
            if key[1] == self.energy_feature:
                e_key = key
            elif key[1] == self.tract_feature:
                t_key = key
        if e_key is None or t_key is None:
            raise ConfigError(
                f"ptn needs inputs with features "
                f"{self.energy_feature!r} and {self.tract_feature!r}, "
                f"got {sorted(merged.payloads)}"
            )
        return e_key, t_key

    def process(self, merged: MergedChunk) -> Dict[str, FeatureData]:
        e_key, t_key = self._pick_inputs(merged)
        energy = merged.payloads[e_key]
        tract = merged.payloads[t_key]
        if energy.shape != tract.shape:
            raise ShapeMismatch(
                f"E {energy.shape} and T {tract.shape} disagree; "
                f"the merge engine should have aligned them"
            )

        if as_continuity(merged.continuity) is Continuity.CALIBRATION:
            # Estimate the sigmoid parameters from the noise tract
            # scores; calibration data never reaches the results.
            if self.theta is None or self.beta is None:
                self.calibrate(tract)
            self._carry_et = None
            self._carry_e = None
            self._pending_discontinuity = None
            return {}
        if self.theta is None or self.beta is None:
            raise ConfigError(
                "ptn has no (theta, beta): configure them or run with a "
                "calibration chunk"
            )

        theta = _per_channel(self.theta)
        beta = _per_channel(self.beta)
        tonal = energy * logistic((tract - theta) / beta)
        self.valid_columns += tonal.shape[-1]

        if not is_withprevious_subtype(merged.continuity):
            self._carry_et = None
            self._carry_e = None
            self._pending_discontinuity = merged.continuity
        self._carry_et = (
            tonal if self._carry_et is None
            else np.concatenate([self._carry_et, tonal], axis=-1)
        )
        self._carry_e = (
            energy if self._carry_e is None
            else np.concatenate([self._carry_e, energy], axis=-1)
        )
        n_blocks = self._carry_et.shape[-1] // self.block_dt
        if not n_blocks:
            return {}

        et, counts = block_averages(self._carry_et, self.block_dt, self.block_df)
        eb, _ = block_averages(self._carry_e, self.block_dt, self.block_df)
        self._carry_et = self._carry_et[:, n_blocks * self.block_dt :]
        self._carry_e = self._carry_e[:, n_blocks * self.block_dt :]

        rate = merged.sample_rate / self.block_dt
        block_freqs = self._block_freqs(merged.channel_freqs.get(e_key))
        return {
            "E_T": FeatureData(et, rate, block_freqs),
            "E_T_valid": FeatureData(counts, rate, block_freqs),
            "E_blocks": FeatureData(eb, rate, block_freqs),
        }

    def consume_pending_continuity(self) -> Optional[Continuity]:
        """Continuity override for the next published chunk when a
        discontinuous merged chunk produced no complete block."""
        pending = self._pending_discontinuity
        self._pending_discontinuity = None
        return pending

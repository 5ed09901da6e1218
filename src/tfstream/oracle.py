"""Unchunked reference computation.

Feeds each source's whole signal through the processor graph as a single
discontinuous chunk (after an optional calibration pass), using the same
merge slicing and the same transform step (``Processor.step``: kernels
and continuity, a carried break included) as the streaming runtime.
Every kernel computes each output value by a fixed expression over that
value's own input window, whatever the chunk length or start, so
streaming results must equal these arrays bit for bit, NaN placement
included, up to the stream tail that streaming legitimately withholds.
Compare within one process (or one BLAS build and thread count): the
filterbank's GEMM is fixed-shape, but BLAS may sum it in a different
order under a different thread count.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .chunks import Continuity, DataChunk, SourceKey
from .graph import GraphPlan
from .merge import MergeState, complete_merge
from .processors import Processor, SinkProcessor, SourceProcessor


def _feed_pass(
    plan: GraphPlan,
    source_arrays: Dict[str, np.ndarray],
    continuity: Continuity,
) -> Dict[SourceKey, DataChunk]:
    """Push one whole-signal chunk per source through all transforms."""
    available: Dict[SourceKey, DataChunk] = {}
    for name in plan.order:
        inst = plan.instances[name]
        if isinstance(inst, SinkProcessor):
            continue
        if isinstance(inst, SourceProcessor):
            if name in source_arrays:
                chunk = inst.make_chunk(0, source_arrays[name], continuity)
                available[chunk.source_key] = chunk
            continue
        keys = plan.in_keys[name]
        if any(key not in available for key in keys):
            continue
        chunk_set = {key: available[key] for key in keys}
        merged, _ = complete_merge(
            MergeState(plan.drops(name), inst.history), chunk_set, 0)
        for chunk in inst.step(merged):
            available[chunk.source_key] = chunk
    return available


def run_unchunked(plan: GraphPlan) -> Dict[SourceKey, DataChunk]:
    """Reference results per published source key, faults ignored.

    Runs the calibration pass first when a source provides one, so
    processors that estimate (theta, beta) see the same noise statistics
    as in the streaming run.  The plan's processor instances are mutated
    (calibration, the resampler's sample count, ptn's block carry); use a
    freshly validated plan.
    """
    calibration_arrays = {}
    source_arrays = {}
    for name, inst in plan.instances.items():
        if isinstance(inst, Processor):
            inst.reset()
        elif isinstance(inst, SourceProcessor):
            signal = inst.calibration_signal()
            if signal is not None:
                calibration_arrays[name] = signal
            source_arrays[name] = inst.full_signal()
    if calibration_arrays:
        _feed_pass(plan, calibration_arrays, Continuity.CALIBRATION)
    results = _feed_pass(plan, source_arrays, Continuity.DISCONTINUOUS)
    return {
        key: chunk
        for key, chunk in results.items()
        if not isinstance(plan.instances[key[0]], SourceProcessor)
    }


def compare_streamed(streamed: np.ndarray, reference: np.ndarray) -> Optional[str]:
    """Check a concatenated streamed result against the reference exactly.

    Streaming withholds the stream tail (the included-past columns of
    the final chunk plus any incomplete block), so the streamed array
    may be shorter; over the overlap NaN placement must match and every
    other cell must be equal (NaN-aware ``array_equal``).
    Returns None on success, else a human-readable mismatch summary.
    """
    n = streamed.shape[-1]
    if n > reference.shape[-1]:
        return (
            f"streamed result is longer than the reference "
            f"({n} > {reference.shape[-1]} columns)"
        )
    ref = reference[..., :n]
    if streamed.shape != ref.shape:
        return f"shape mismatch: {streamed.shape} vs {ref.shape}"
    nan_s = np.isnan(streamed)
    nan_r = np.isnan(ref)
    if not np.array_equal(nan_s, nan_r):
        return f"NaN placement differs in {int((nan_s != nan_r).sum())} cells"
    bad = (streamed != ref) & ~nan_s
    if bad.any():
        worst = np.max(np.abs(streamed[bad] - ref[bad]))
        return f"{int(bad.sum())} cells differ, worst |delta| = {worst:.3e}"
    return None

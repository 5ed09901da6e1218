"""Streaming time-frequency analysis with chunk alignment metadata.

The package moves numbered, continuity-flagged array chunks through a
graph of processors.  Four alignment counters per key (included past,
dropped after discontinuity, invalid large/small-scale channels),
composed once when the graph is validated, let every consumer re-align
multiple incoming representations exactly, drop what a discontinuity
invalidated, and keep chunked results equal to the whole-signal
computation.  Chunks, and the wire frames of ``encode`` and ``decode``,
carry only what changes per chunk (number, continuity and payload);
a key's rate, frequency axis (and so its channel count) and counters,
and an edge's wire dtype, come from the plan.
"""

from .alignment import DropCounts, compose, drop_counts, merge_params
from .buffering import BufferCounters, InFlightBuffer
from .chunks import (
    AlignmentParams,
    Continuity,
    DataChunk,
    MergeScenario,
    SourceKey,
    ZERO_ALIGNMENT,
    check_publishable,
)
from .errors import TFStreamError
from .graph import (
    Edge,
    GraphPlan,
    PipelineConfig,
    ProcessorSpec,
    config_from_dict,
    load_config,
    validate_graph,
)
from .merge import MergedChunk, MergeState, complete_merge, decide
from .oracle import compare_streamed, run_unchunked
from .runtime import MergeLogEntry, RunReport, Streamboard, run_plan
from .wire import decode, decode_stream, encode

__version__ = "0.1.0"

__all__ = [
    "AlignmentParams",
    "BufferCounters",
    "Continuity",
    "DataChunk",
    "DropCounts",
    "Edge",
    "GraphPlan",
    "InFlightBuffer",
    "MergeLogEntry",
    "MergeScenario",
    "MergeState",
    "MergedChunk",
    "PipelineConfig",
    "ProcessorSpec",
    "RunReport",
    "SourceKey",
    "Streamboard",
    "TFStreamError",
    "ZERO_ALIGNMENT",
    "check_publishable",
    "compare_streamed",
    "compose",
    "complete_merge",
    "config_from_dict",
    "decide",
    "decode",
    "decode_stream",
    "drop_counts",
    "encode",
    "load_config",
    "merge_params",
    "run_plan",
    "run_unchunked",
    "validate_graph",
]

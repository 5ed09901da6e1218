"""Pipeline configuration: parsing, graph validation, alignment budgets.

A pipeline is a DAG of named processors (forks and merges, no loops)
with per-edge transports and an optional fault schedule.  Validation
topologically sorts the graph, propagates sample rates, frequency axes,
chunk lengths and cumulative alignment counters, and rejects
configurations whose chunk size leaves some transform no output column
after a break: its merged d + p and its own declared d + p, scaled to
its input steps, must be shorter than its input chunk.  A key's rate,
axis and counters live in the plan only: sinks get them from
validation, merges their drop counts from the plan, and chunks carry
none of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import yaml

from .alignment import DropCounts, compose, drop_counts, merge_params
from .chunks import PAYLOAD_DTYPES, AlignmentParams, SourceKey, ZERO_ALIGNMENT
from .errors import ChunkTooShortForDepth, ConfigError, CycleError
from .faults import FaultSchedule, parse_fault_events
from .processors import SinkProcessor, SourceProcessor, resolve_kind


@dataclass(frozen=True)
class ProcessorSpec:
    name: str
    kind: str
    params: dict


@dataclass(frozen=True)
class Edge:
    producer: str
    feature: str
    consumer: str
    transport: str = "local"  # "local" or "tcp:<host>:<port>"
    wire_dtype: str = "<f4"

    @property
    def source_key(self) -> SourceKey:
        return (self.producer, self.feature)


@dataclass
class PipelineConfig:
    processors: List[ProcessorSpec]
    edges: List[Edge]
    faults: FaultSchedule = field(default_factory=FaultSchedule)


@dataclass
class GraphPlan:
    """A validated pipeline: instances, topology and alignment budgets."""

    config: PipelineConfig
    order: List[str]                       # topological, sources first
    instances: Dict[str, object]
    in_keys: Dict[str, Tuple[SourceKey, ...]]
    out_edges: Dict[str, List[Edge]]
    cumulative: Dict[SourceKey, AlignmentParams]
    merged_at: Dict[str, AlignmentParams]
    rates: Dict[SourceKey, float]
    chunk_lengths: Dict[str, float]        # nominal input time-length per node
    #: per key, its read-only frequency axis, one value per channel
    #: (None: the key has none, and one channel)
    freqs: Dict[SourceKey, Optional[np.ndarray]]
    #: per transform, the smallest source chunk length, in samples of the
    #: longest source chunk, that leaves it an output column after a
    #: break (sinks have no depth of their own)
    minimum_lengths: Dict[str, int]

    def minimum_chunk_length(self) -> int:
        """Smallest source chunk length that every transform allows."""
        return max(self.minimum_lengths.values(), default=1)

    def drops(self, name: str) -> Dict[SourceKey, DropCounts]:
        """Drop counts of each key merged at ``name``, from the key's
        cumulative counters and the merged ones."""
        merged = self.merged_at[name]
        return {key: drop_counts(merged, self.cumulative[key])
                for key in self.in_keys[name]}


def load_config(path: Path) -> PipelineConfig:
    """Parse the YAML pipeline description."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    return config_from_dict(raw)


def _entries(raw: dict, section: str) -> list:
    """The entries of one top-level section: a list of mappings, or
    ConfigError naming the entry that is not one."""
    items = raw.get(section) or []
    if not isinstance(items, list):
        raise ConfigError(f"{section} must be a list, got {items!r}")
    for item in items:
        if not isinstance(item, dict):
            raise ConfigError(f"{section} entry must be a mapping: {item!r}")
    return items


def config_from_dict(raw: dict) -> PipelineConfig:
    processors = []
    for item in _entries(raw, "processors"):
        if "name" not in item or "kind" not in item:
            raise ConfigError(f"processor entry needs name and kind: {item}")
        params = item.get("params")
        params = {} if params is None else params
        if not isinstance(params, dict):
            raise ConfigError(f"processor {item['name']!r}: params must be "
                              f"a mapping, got {params!r}")
        processors.append(
            ProcessorSpec(name=item["name"], kind=item["kind"], params=params))
    edges, seen = [], set()
    for item in _entries(raw, "edges"):
        source = item.get("from", "")
        if not (isinstance(source, str) and "." in source):
            raise ConfigError(f"edge 'from' must be producer.feature: {source!r}")
        producer, _, feature = source.partition(".")
        edge = Edge(
            producer=producer,
            feature=feature,
            consumer=item.get("to", ""),
            transport=item.get("transport", "local"),
            wire_dtype=item.get("wire_dtype", "<f4"),
        )
        tcp = re.fullmatch(r"tcp:[^:]*:([0-9]+)", str(edge.transport))
        if edge.transport != "local" and not (tcp and int(tcp[1]) < 65536):
            raise ConfigError(
                f"edge {source} -> {edge.consumer}: transport must be "
                f"'local' or 'tcp:<host>:<port>', got {edge.transport!r}"
            )
        if edge.wire_dtype not in PAYLOAD_DTYPES:
            raise ConfigError(
                f"edge {source} -> {edge.consumer}: wire_dtype must be "
                f"'<f4' or '<f8', got {edge.wire_dtype!r}"
            )
        if (producer, feature, edge.consumer) in seen:
            raise ConfigError(f"duplicate edge {source} -> {edge.consumer}")
        seen.add((producer, feature, edge.consumer))
        edges.append(edge)
    faults = parse_fault_events(_entries(raw, "faults"))
    return PipelineConfig(processors=processors, edges=edges, faults=faults)


def _topological_order(names: List[str], edges: List[Edge]) -> List[str]:
    """Kahn's algorithm; raises CycleError when no full ordering exists."""
    dependents: Dict[str, List[str]] = {n: [] for n in names}
    in_degree = {n: 0 for n in names}
    seen = set()
    for edge in edges:
        pair = (edge.producer, edge.consumer)
        if pair in seen:
            continue
        seen.add(pair)
        dependents[edge.producer].append(edge.consumer)
        in_degree[edge.consumer] += 1
    ready = sorted(n for n in names if in_degree[n] == 0)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for successor in sorted(dependents[node]):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
        ready.sort()
    if len(order) != len(names):
        cyclic = sorted(set(names) - set(order))
        raise CycleError(f"processor graph has a cycle through {cyclic}")
    return order


def _checked_axis(name: str, axis) -> Optional[np.ndarray]:
    """A transform's published frequency axis as a read-only float array;
    ConfigError unless it is 1-D and strictly monotone."""
    if axis is None:
        return None
    axis = np.array(axis, dtype=float)
    steps = axis[1:] - axis[:-1] if axis.ndim == 1 else None
    if steps is None or not ((steps > 0).all() or (steps < 0).all()):
        raise ConfigError(
            f"processor {name!r}: published frequency axis is not a "
            f"strictly monotone 1-D array"
        )
    axis.setflags(write=False)
    return axis


def validate_graph(config: PipelineConfig) -> GraphPlan:
    """Instantiate and validate the whole pipeline; returns the plan."""
    names = [spec.name for spec in config.processors]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate processor names")
    specs = {spec.name: spec for spec in config.processors}

    for edge in config.edges:
        if edge.producer not in specs:
            raise ConfigError(f"edge references unknown producer {edge.producer!r}")
        if edge.consumer not in specs:
            raise ConfigError(f"edge references unknown consumer {edge.consumer!r}")

    order = _topological_order(names, config.edges)

    instances: Dict[str, object] = {}
    for spec in config.processors:
        cls = resolve_kind(spec.kind)
        for param in spec.params:
            if param not in cls.parameters:
                raise ConfigError(
                    f"processor {spec.name!r}: {param} is not a parameter "
                    f"of {spec.kind}; it takes {', '.join(cls.parameters)}")
        try:
            instances[spec.name] = cls(spec.name, spec.params)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"processor {spec.name!r}: {exc}") from exc

    in_keys: Dict[str, Tuple[SourceKey, ...]] = {n: () for n in names}
    out_edges: Dict[str, List[Edge]] = {n: [] for n in names}
    for edge in config.edges:
        out_edges[edge.producer].append(edge)
        in_keys[edge.consumer] = tuple(
            sorted(set(in_keys[edge.consumer]) | {edge.source_key})
        )

    cumulative: Dict[SourceKey, AlignmentParams] = {}
    merged_at: Dict[str, AlignmentParams] = {}
    rates: Dict[SourceKey, float] = {}
    chunk_lengths: Dict[str, float] = {}
    freqs: Dict[SourceKey, Optional[np.ndarray]] = {}
    minimum_lengths: Dict[str, int] = {}

    calibrated = set()  # nodes that emit or receive a calibration chunk
    source_len = 0.0  # the longest source chunk (sources come first)
    for name in order:
        inst = instances[name]
        if isinstance(inst, SourceProcessor):
            key = (name, inst.feature)
            cumulative[key] = ZERO_ALIGNMENT
            rates[key] = inst.sample_rate()
            chunk_lengths[name] = float(inst.chunk_size())
            chunk_lengths[f"{name}:out"] = chunk_lengths[name]
            source_len = max(chunk_lengths[name], source_len)
            freqs[key] = None
            if inst.params.get("calibration"):
                calibrated.add(name)
            continue
        keys = in_keys[name]
        if not keys:
            raise ConfigError(f"processor {name!r} has no incoming edges")
        for key in keys:
            if key not in cumulative:
                raise ConfigError(
                    f"edge {key[0]}.{key[1]} -> {name}: producer does not "
                    f"publish feature {key[1]!r}"
                )
        e_in = min(chunk_lengths[f"{key[0]}:out"] for key in keys)
        chunk_lengths[name] = e_in
        merged = merge_params([cumulative[key] for key in keys])
        merged_at[name] = merged
        if isinstance(inst, SinkProcessor):
            inst.set_inputs({key: rates[key] for key in keys},
                            {key: freqs[key] for key in keys},
                            {key: cumulative[key] for key in keys})
            continue
        # a transform's input contract: the features it merges, one key
        # each (one key of any feature when it names none), and whether
        # they are 2-D (have a frequency axis)
        features = sorted(feature for _, feature in keys)
        if (features != (sorted(inst.input_features) or features[:1])
                or any((freqs[key] is None) == inst.takes_2d for key in keys)):
            raise ConfigError(
                f"processor {name!r} takes one key"
                + (" each of features " + " and ".join(inst.input_features)
                   if inst.input_features else "")
                + (" with" if inst.takes_2d else " without")
                + f" a frequency axis, got {', '.join('.'.join(k) for k in keys)}")
        # a sink takes keys of any rates; a transform's share one
        in_rates = {rates[key] for key in keys}
        if len(in_rates) != 1:
            raise ConfigError(f"processor {name!r} receives mixed rates {in_rates}")
        rate_in = in_rates.pop()
        if any(key[0] in calibrated for key in keys):
            calibrated.add(name)
        elif inst.needs_threshold and (inst.theta is None or inst.beta is None):
            raise ConfigError(
                f"processor {name!r} has no (theta, beta) and no upstream "
                f"source emits a calibration chunk; configure theta/beta "
                f"or enable calibration on the input"
            )
        in_freqs = freqs[keys[0]]
        if in_freqs is not None and any(
                not np.array_equal(freqs[key], in_freqs) for key in keys):
            raise ConfigError(
                f"processor {name!r} receives different frequency axes on "
                + ", ".join(".".join(key) for key in keys)
            )
        try:
            rate_out, axis, merged_out = inst.prepare(rate_in, merged, in_freqs)
        except ValueError as exc:
            raise ConfigError(f"processor {name!r}: {exc}") from exc
        axis = _checked_axis(name, axis)
        alignment = inst.feature_alignment()
        # after a break a chunk must keep a column past the merged d + p
        # and the transform's own d + p, scaled to its input steps
        need = merged.d + merged.p + 1 + max(
            math.ceil((a.d + a.p) * rate_in / rate_out)
            for a in alignment.values())
        minimum_lengths[name] = math.ceil(need * source_len / e_in)
        for feature, align in alignment.items():
            key = (name, feature)
            cumulative[key] = compose(merged_out, align)
            rates[key] = rate_out
            freqs[key] = axis
        # output time steps per input time step
        chunk_lengths[f"{name}:out"] = e_in * (rate_out / rate_in)

    # a fractional nominal length means short/long chunks alternate; the
    # short ones are the binding case, and the ceiling counts them
    name = max(minimum_lengths, key=minimum_lengths.get, default=None)
    if name is not None and minimum_lengths[name] > source_len:
        raise ChunkTooShortForDepth(
            f"processor {name!r}: a chunk of {int(source_len)} source samples "
            f"keeps no column past the merged d+p and the processor's own "
            f"after a break; minimum chunk length is {minimum_lengths[name]} "
            f"source samples")

    edge_triples = [(e.producer, e.feature, e.consumer) for e in config.edges]
    source_names = [
        n for n, inst in instances.items() if isinstance(inst, SourceProcessor)
    ]
    config.faults.validate(edge_triples, source_names)
    for name in source_names:
        instances[name].set_overflow_numbers(config.faults.overflow_numbers(name))

    return GraphPlan(
        config=config,
        order=order,
        instances=instances,
        in_keys=in_keys,
        out_edges=out_edges,
        cumulative=cumulative,
        merged_at=merged_at,
        rates=rates,
        chunk_lengths=chunk_lengths,
        freqs=freqs,
        minimum_lengths=minimum_lengths,
    )

"""Streamboard runtime: one dispatch loop runs every source, transform and sink.

The loop, in the calling thread, publishes the sources' chunks in
number order and pushes each depth-first along the edges by direct call
before it pulls the next, so a run starts no threads.  A local send is a
call; a TCP send writes the frame, reads it back from the other end of
the socket and decodes it in the loop, at the same point in that order.
Every run of one plan therefore delivers in one order, and runs are
deterministic end to end.

Edges carry chunks either in-process (local transport, full precision)
or over a TCP socket through the framed codec.
"""

from __future__ import annotations

import socket
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from io import BytesIO
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .buffering import BufferCounters, InFlightBuffer
from .chunks import Continuity, DataChunk, SourceKey, check_publishable
from .errors import EmptyResult, IoError, TFStreamError, WireError
from .graph import Edge, GraphPlan
from .merge import MergeState, complete_merge
from .processors import Processor, SinkProcessor, SourceProcessor
from .wire import MAGIC, decode_stream, encode

@dataclass(frozen=True)
class MergeLogEntry:
    """One completed merge at one consumer."""

    number: int
    continuity: Continuity
    scenario: str                       # unanimous scenario name or "mixed"
    scenarios: Tuple[Tuple[SourceKey, str], ...]


@dataclass
class KeyStats:
    published: int = 0
    nan_cells: int = 0
    total_cells: int = 0

    @property
    def invalid_fraction(self) -> float:
        return self.nan_cells / self.total_cells if self.total_cells else 0.0


@dataclass
class RunReport:
    """Everything observable about one completed run."""

    buffer_counters: Dict[str, BufferCounters] = field(default_factory=dict)
    key_stats: Dict[SourceKey, KeyStats] = field(default_factory=dict)
    declared_invalid_fraction: Dict[SourceKey, float] = field(default_factory=dict)
    valid_columns: Dict[str, int] = field(default_factory=dict)
    calibration: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    wire_errors: Dict[str, int] = field(default_factory=Counter)
    written: Dict[SourceKey, int] = field(default_factory=dict)
    max_occupancy: Dict[str, int] = field(default_factory=dict)
    #: per merging consumer, each completed merge as its number,
    #: continuity and scenario per key; see ``merge_logs``
    merges: Dict[str, List[tuple]] = field(default_factory=dict, repr=False)

    @property
    def merge_logs(self) -> Dict[str, List[MergeLogEntry]]:
        """Per merging consumer, one entry per completed merge, built
        when read: the run records only what each merge decided."""
        summaries: Dict[tuple, Tuple[str, tuple]] = {}
        logs: Dict[str, List[MergeLogEntry]] = {}
        for name, merges in self.merges.items():
            entries = logs[name] = []
            for number, continuity, scenarios in merges:
                pairs = tuple(scenarios.items())
                summary = summaries.get(pairs)
                if summary is None:
                    names = {key: s.value for key, s in pairs}
                    unique = set(names.values())
                    summary = summaries[pairs] = (
                        unique.pop() if len(unique) == 1 else "mixed",
                        tuple(sorted(names.items())),
                    )
                entries.append(MergeLogEntry(number, continuity, *summary))
        return logs

    def scenario_names(self, consumer: str) -> List[str]:
        return [entry.scenario for entry in self.merge_logs.get(consumer, [])]


class _Route:
    """One transform's arrival path, resolved when a run starts: its
    buffer, its merge state, the list its merges are recorded in and its
    ``step``."""

    __slots__ = ("buffer", "state", "merges", "step", "peak")

    def __init__(self, buffer: InFlightBuffer, state: MergeState,
                 step: Callable):
        self.buffer = buffer
        self.state = state
        #: (number, continuity, scenarios) of each completed merge
        self.merges: List[tuple] = []
        self.step = step
        #: most chunks the buffer held after an arrival
        self.peak = 0


class _TcpLink:
    """One edge over a loopback TCP socket using the framed codec.

    Both ends live in this process: ``send`` writes the frame, reads the
    same bytes back from the other end and decodes them in the caller's
    thread, so a link holds no bytes between sends and needs no thread.

    A frame carries no key, dtype or shape but its time extent: the link
    decodes every frame as its edge's key and ``wire_dtype``, with
    ``lead``, the payload shape before the time axis that the plan gives
    that key: ``(channels,)`` for a key with a frequency axis, ``()``
    for one without.  A socket that cannot be opened raises ``IoError``
    naming the edge and the address.
    """

    def __init__(self, edge: Edge, deliver: Callable, on_wire_error: Callable,
                 lead: Tuple[int, ...]):
        self.name = f"{edge.producer}.{edge.feature}->{edge.consumer}"
        self._deliver = deliver
        self._on_wire_error = on_wire_error
        self._wire_dtype = np.dtype(edge.wire_dtype)
        self._layout = (edge.source_key, lead, self._wire_dtype)
        _, host, port = edge.transport.split(":")
        address = (host or "127.0.0.1", int(port))
        try:
            with socket.create_server(address) as listener:
                self._tx = socket.create_connection(listener.getsockname())
                try:
                    self._rx, _ = listener.accept()
                except BaseException:
                    self._tx.close()
                    raise
        except OSError as exc:
            raise IoError(f"edge {self.name}: cannot open "
                          f"{address[0]}:{address[1]}: {exc}") from exc
        self._tx.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._tx.setblocking(False)
        self._buffer = bytearray()

    def send(self, chunk: DataChunk) -> None:
        self.transfer(encode(chunk, dtype=self._wire_dtype))

    def transfer(self, data: bytes) -> None:
        """Pass ``data`` through the socket, then deliver the frames in it.

        Writes never wait and reads ask only for bytes already written,
        so a frame larger than the socket buffers cannot deadlock.
        """
        size = len(data)
        if len(self._buffer) < size:
            self._buffer = bytearray(size)
        view, into = memoryview(data), memoryview(self._buffer)
        sent = received = 0
        while received < size:
            if sent < size:
                try:
                    sent += self._tx.send(view[sent:])
                except BlockingIOError:
                    pass
            if received < sent:
                got = self._rx.recv_into(into[received:sent])
                if not got:
                    raise ConnectionError(f"{self.name}: connection closed")
                received += got
        self._decode(bytes(into[:size]))

    def _decode(self, data: bytes) -> None:
        """Deliver every intact frame in ``data``.  A damaged frame is
        lost whole and counted once: the scan resumes at the next magic
        after its first byte, so a damaged extent that overran into the
        next frame costs that frame nothing."""
        stream = BytesIO(data)
        layout = self._layout
        start = 0
        while start < len(data):
            try:
                chunk = decode_stream(stream, *layout)
            except WireError:
                self._on_wire_error(self.name)
                start = data.find(MAGIC, start + 1)
                if start < 0:
                    return
                stream.seek(start)
                continue
            start = stream.tell()
            self._deliver(chunk)

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


class Streamboard:
    """Runs a validated plan to completion in the calling thread."""

    def __init__(self, plan: GraphPlan):
        self.plan = plan
        self.report = RunReport()
        self._links: List[_TcpLink] = []
        self._routes: Dict[str, _Route] = {}
        #: per consumer, the callable an arrival from an edge goes to
        self._receivers: Dict[str, Callable] = {}
        #: per key with out-edges, its (dropped ranges, send) pairs
        self._sends: Dict[SourceKey, tuple] = {}
        #: per published key, its statistics and its sends, resolved on
        #: the key's first publish
        self._outlets: Dict[SourceKey, Tuple[KeyStats, tuple]] = {}

    # --- plumbing --------------------------------------------------------

    def _note_wire_error(self, edge_name: str) -> None:
        self.report.wire_errors[edge_name] += 1

    def _make_sends(self, edges: List[Edge]) -> tuple:
        """A (dropped number ranges, send) pair per out-edge of one key,
        with transports and the fault schedule resolved."""
        sends = []
        faults = self.plan.config.faults
        for edge in edges:
            send = self._receivers[edge.consumer]
            if edge.transport != "local":
                axis = self.plan.freqs[edge.source_key]
                link = _TcpLink(edge, send, self._note_wire_error,
                                () if axis is None else (len(axis),))
                self._links.append(link)
                send = link.send
            dropped = faults.dropped_ranges(
                edge.producer, edge.feature, edge.consumer
            )
            sends.append((dropped, send))
        return tuple(sends)

    def _publish(self, chunk: DataChunk) -> None:
        outlet = self._outlets.get(chunk.source_key)
        if outlet is None:
            key = chunk.source_key
            stats = self.report.key_stats[key] = KeyStats()
            outlet = self._outlets[key] = (stats, self._sends.get(key, ()))
        check_publishable(chunk)
        payload = chunk.payload
        payload.setflags(write=False)
        stats, sends = outlet
        stats.published += 1
        if chunk.continuity != Continuity.CALIBRATION:
            stats.total_cells += payload.size
            stats.nan_cells += np.count_nonzero(np.isnan(payload))
        number = chunk.number
        for dropped, send in sends:
            for lo, hi in dropped:
                if lo <= number <= hi:
                    break
            else:
                send(chunk)

    def _arrive(self, route: _Route, item: DataChunk) -> None:
        """One arrival at a transform; whatever it publishes in response
        has moved on, depth-first, when this returns.

        A completed set too short for its merge, which counts the
        transform's window, or for the transform (a short chunk right
        after a fault) is dropped and counted as ``too_short``.  The
        merge state and the merge list change only when both succeed, so
        the next set merges as discontinuous and no stale tail is reused.
        """
        buffer = route.buffer
        completed = buffer.accept(item)
        if completed is None:
            # Only an arrival that completes nothing can raise the
            # occupancy: a completing one takes out a chunk per key.
            occupancy = buffer.occupancy()
            if occupancy > route.peak:
                route.peak = occupancy
            return
        try:
            merged, state = complete_merge(route.state, completed, item.number)
            outputs = route.step(merged)
        except EmptyResult:
            buffer.counters.too_short += 1
            return
        route.state = state
        route.merges.append((merged.number, merged.continuity, merged.scenarios))
        for out in outputs:
            self._publish(out)

    # --- the loop --------------------------------------------------------

    def _pump(self, sources: List[str]) -> None:
        """Publish the sources' chunks in number order until every source
        ends.

        Each live source's next chunk waits as its head.  A round
        publishes every head at the lowest number, in plan order, and
        only then pulls the next chunk from each of those sources, so a
        paced source's wait never holds up another source's chunk of the
        same number.  Every join therefore receives all the chunks
        numbered n before any numbered above n, and holds at most the one
        set it is collecting.
        """
        publish = self._publish
        pulls = [self.plan.instances[name].chunks() for name in sources]
        heads = [(next(chunks, None), chunks) for chunks in pulls]
        while heads := [pair for pair in heads if pair[0] is not None]:
            lowest = min(head.number for head, _ in heads)
            for head, _ in heads:
                if head.number == lowest:
                    publish(head)
            heads = [(next(chunks, None) if head.number == lowest else head,
                      chunks) for head, chunks in heads]

    def run(self) -> RunReport:
        plan = self.plan
        report = self.report
        failure: Optional[Exception] = None
        try:
            sources = []
            for name in plan.order:
                inst = plan.instances[name]
                if isinstance(inst, SourceProcessor):
                    sources.append(name)
                elif isinstance(inst, SinkProcessor):
                    self._receivers[name] = inst.consume
                elif isinstance(inst, Processor):
                    inst.reset()
                    buffer = InFlightBuffer(frozenset(plan.in_keys[name]))
                    route = _Route(buffer,
                                   MergeState(plan.drops(name), inst.history),
                                   inst.step)
                    self._routes[name] = route
                    self._receivers[name] = partial(self._arrive, route)
                    report.merges[name] = route.merges
                    report.buffer_counters[name] = buffer.counters
            edges: Dict[SourceKey, List[Edge]] = {}
            for name in plan.order:
                for edge in plan.out_edges[name]:
                    edges.setdefault(edge.source_key, []).append(edge)
            self._sends = {key: self._make_sends(e) for key, e in edges.items()}
            try:
                self._pump(sources)
            except Exception as exc:  # noqa: BLE001 - raised below
                failure = exc
        finally:
            for link in self._links:
                link.close()
            # routes, outlets and links call back into this board: drop
            # them, so that the plan is freed without waiting for the
            # cycle collector
            routes = self._routes
            self._links, self._routes = [], {}
            self._receivers, self._sends, self._outlets = {}, {}, {}
        for name, route in routes.items():
            route.buffer.drain()
            report.max_occupancy[name] = route.peak
        for name, inst in plan.instances.items():
            if isinstance(inst, SinkProcessor):
                inst.close()
                report.written.update(inst.written)
            elif isinstance(inst, Processor):
                if inst.valid_columns is not None:
                    report.valid_columns[name] = inst.valid_columns
                if inst.theta is not None and inst.beta is not None:
                    report.calibration[name] = (inst.theta, inst.beta)
        if failure is not None:
            if isinstance(failure, TFStreamError):
                raise failure
            raise RuntimeError(f"run failed: {failure!r}") from failure
        for key, params in plan.cumulative.items():
            axis = plan.freqs[key]
            if axis is not None and len(axis) > 1:
                report.declared_invalid_fraction[key] = (
                    (params.l + params.s) / len(axis)
                )
        return report


def run_plan(plan: GraphPlan) -> RunReport:
    return Streamboard(plan).run()

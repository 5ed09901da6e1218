"""Streamboard runtime: one dispatch loop runs every source, transform and sink.

The loop, in the calling thread, pulls one chunk from each live source
in turn and pushes it depth-first along the edges by direct call before
it pulls the next, so a run starts no threads.  A local send is a call;
a TCP send writes the frame, reads it back from the other end of the
socket and decodes it in the loop, at the same point in that order.
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
from .chunks import (
    Continuity,
    DataChunk,
    SourceKey,
    as_continuity,
    check_publishable,
)
from .errors import TFStreamError, WireError
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

    merge_logs: Dict[str, List[MergeLogEntry]] = field(default_factory=dict)
    buffer_counters: Dict[str, BufferCounters] = field(default_factory=dict)
    key_stats: Dict[SourceKey, KeyStats] = field(default_factory=dict)
    declared_invalid_fraction: Dict[SourceKey, float] = field(default_factory=dict)
    valid_columns: Dict[str, int] = field(default_factory=dict)
    calibration: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    wire_errors: Dict[str, int] = field(default_factory=Counter)
    written: Dict[SourceKey, int] = field(default_factory=dict)
    max_occupancy: Dict[str, int] = field(default_factory=dict)

    def scenario_names(self, consumer: str) -> List[str]:
        return [entry.scenario for entry in self.merge_logs.get(consumer, [])]


class _TcpLink:
    """One edge over a loopback TCP socket using the framed codec.

    Both ends live in this process: ``send`` writes the frame, reads the
    same bytes back from the other end and decodes them in the caller's
    thread, so a link holds no bytes between sends and needs no thread.
    """

    def __init__(self, edge: Edge, deliver: Callable, on_wire_error: Callable):
        self.name = f"{edge.producer}.{edge.feature}->{edge.consumer}"
        self._deliver = deliver
        self._on_wire_error = on_wire_error
        self._wire_dtype = np.dtype(edge.wire_dtype)
        _, host, port = edge.transport.split(":")
        with socket.create_server((host or "127.0.0.1", int(port))) as listener:
            self._tx = socket.create_connection(listener.getsockname())
            try:
                self._rx, _ = listener.accept()
            except BaseException:
                self._tx.close()
                raise
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
        after its first byte, so a damaged length that overran into the
        next frame costs that frame nothing."""
        stream = BytesIO(data)
        start = 0
        while start < len(data):
            try:
                chunk = decode_stream(stream)
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
        self._senders: Dict[str, Dict[SourceKey, list]] = {}
        self._buffers: Dict[str, InFlightBuffer] = {}
        self._merge_states: Dict[str, MergeState] = {}
        #: per key, the channel_freqs array its last publish passed with
        self._checked_freqs: Dict[SourceKey, Optional[np.ndarray]] = {}
        #: log summary and sorted names per distinct scenario tuple
        self._scenario_logs: Dict[tuple, Tuple[str, tuple]] = {}

    # --- plumbing --------------------------------------------------------

    def _note_wire_error(self, edge_name: str) -> None:
        self.report.wire_errors[edge_name] += 1

    def _make_senders(self, name: str) -> Dict[SourceKey, list]:
        """Per published key, a (dropped number ranges, send) pair per
        out-edge, with transports and the fault schedule resolved."""
        senders: Dict[SourceKey, list] = {}
        faults = self.plan.config.faults
        for edge in self.plan.out_edges[name]:
            consumer = self.plan.instances[edge.consumer]
            if isinstance(consumer, SinkProcessor):
                send = consumer.consume
            else:
                send = partial(self._arrive, edge.consumer)
            if edge.transport != "local":
                link = _TcpLink(edge, send, self._note_wire_error)
                self._links.append(link)
                send = link.send
            dropped = faults.dropped_ranges(
                edge.producer, edge.feature, edge.consumer
            )
            senders.setdefault(edge.source_key, []).append((dropped, send))
        return senders

    def _publish(self, name: str, chunk: DataChunk) -> None:
        key = chunk.source_key
        check_publishable(chunk, self._checked_freqs.get(key))
        self._checked_freqs[key] = chunk.channel_freqs
        chunk.payload.setflags(write=False)
        stats = self.report.key_stats.get(key)
        if stats is None:
            stats = self.report.key_stats[key] = KeyStats()
        stats.published += 1
        if chunk.continuity != Continuity.CALIBRATION:
            stats.total_cells += chunk.payload.size
            stats.nan_cells += np.count_nonzero(np.isnan(chunk.payload))
        number = chunk.number
        for dropped, send in self._senders[name].get(key, ()):
            if dropped and any(lo <= number <= hi for lo, hi in dropped):
                continue
            send(chunk)

    def _arrive(self, name: str, item: DataChunk) -> None:
        """One arrival at a transform; whatever it publishes in response
        has moved on, depth-first, when this returns."""
        buffer = self._buffers[name]
        completed = buffer.accept(item)
        if completed is None:
            # Only an arrival that completes nothing can raise the
            # occupancy: a completing one takes out a chunk per key.
            occupancy = self.report.max_occupancy
            occupancy[name] = max(occupancy[name], buffer.occupancy())
            return
        n = next(iter(completed.values())).number
        merged, self._merge_states[name] = complete_merge(
            self._merge_states[name], completed, n
        )
        self.report.merge_logs[name].append(self._log_entry(merged))
        for out in self.plan.instances[name].step(merged):
            self._publish(name, out)

    def _log_entry(self, merged) -> MergeLogEntry:
        scenarios = tuple(merged.scenarios.items())
        logged = self._scenario_logs.get(scenarios)
        if logged is None:
            names = {key: s.value for key, s in scenarios}
            unique = set(names.values())
            summary = unique.pop() if len(unique) == 1 else "mixed"
            logged = (summary, tuple(sorted(names.items())))
            self._scenario_logs[scenarios] = logged
        return MergeLogEntry(
            number=merged.number,
            continuity=as_continuity(merged.continuity),
            scenario=logged[0],
            scenarios=logged[1],
        )

    # --- the loop --------------------------------------------------------

    def _pump(self, sources: List[str]) -> None:
        """Pull one chunk from each live source in turn, in plan order,
        and publish it before pulling the next, until every source ends."""
        live = [(name, self.plan.instances[name].chunks()) for name in sources]
        while live:
            pulled = []
            for name, chunks in live:
                chunk = next(chunks, None)
                if chunk is not None:
                    self._publish(name, chunk)
                    pulled.append((name, chunks))
            live = pulled

    def run(self) -> RunReport:
        plan = self.plan
        failure: Optional[Exception] = None
        try:
            sources = []
            for name in plan.order:
                inst = plan.instances[name]
                if isinstance(inst, SourceProcessor):
                    sources.append(name)
                elif isinstance(inst, Processor):
                    inst.reset()
                    buffer = InFlightBuffer(frozenset(plan.in_keys[name]))
                    self._buffers[name] = buffer
                    self._merge_states[name] = MergeState()
                    self.report.merge_logs[name] = []
                    self.report.buffer_counters[name] = buffer.counters
                    self.report.max_occupancy[name] = 0
                self._senders[name] = self._make_senders(name)
            try:
                self._pump(sources)
            except Exception as exc:  # noqa: BLE001 - raised below
                failure = exc
        finally:
            for link in self._links:
                link.close()
            # senders and links call back into this board: drop them, so
            # that the plan is freed without waiting for the cycle collector
            self._links, self._senders = [], {}
        for name, inst in plan.instances.items():
            if isinstance(inst, SinkProcessor):
                inst.close()
                self.report.written.update(inst.written)
            elif isinstance(inst, Processor):
                self._buffers[name].drain()
                if inst.valid_columns is not None:
                    self.report.valid_columns[name] = inst.valid_columns
                if inst.theta is not None and inst.beta is not None:
                    self.report.calibration[name] = (inst.theta, inst.beta)
        if failure is not None:
            if isinstance(failure, TFStreamError):
                raise failure
            raise RuntimeError(f"run failed: {failure!r}") from failure
        for key, params in plan.cumulative.items():
            channels = plan.channels.get(key, 1)
            if channels > 1:
                self.report.declared_invalid_fraction[key] = (
                    (params.l + params.s) / channels
                )
        return self.report


def run_plan(plan: GraphPlan) -> RunReport:
    return Streamboard(plan).run()

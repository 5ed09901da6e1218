"""Streamboard runtime: one dispatch loop runs every transform and sink.

Each source has a thread of its own that posts its chunks to one inbox;
the loop, in the calling thread, pushes each arrival depth-first along
the edges by direct call.  A local send is a call; a TCP send writes the
frame, reads it back from the other end of the socket and decodes it in
the loop, at the same point in that order.  The gap inference in the
buffer makes the published streams independent of when arrivals come,
so runs are deterministic end to end.

Edges carry chunks either in-process (local transport, full precision)
or over a TCP socket through the framed codec.
"""

from __future__ import annotations

import queue
import socket
import threading
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
    MergeScenario,
    SourceKey,
    check_publishable,
)
from .errors import TFStreamError, WireError
from .graph import Edge, GraphPlan
from .merge import MergeState, complete_merge
from .processors import Processor, SinkProcessor, SourceProcessor
from .wire import MAGIC, decode_stream, encode

_SCENARIO_NAMES = {
    MergeScenario.REGULAR_CONTINUOUS: "RegularContinuous",
    MergeScenario.REGULAR_DISCONTINUOUS: "RegularDiscontinuous",
    MergeScenario.IRREGULAR_DISCONTINUOUS: "IrregularDiscontinuous",
}

#: Items a source may have posted before the loop takes them; once
#: blocked, it resumes when half of them are taken.
SOURCE_BACKLOG = 16


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


#: End-of-stream sentinel: an edge or a source will deliver nothing more.
_END = object()


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
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._links: List[_TcpLink] = []
        self._senders: Dict[str, list] = {}
        self._backlog: Dict[str, threading.Semaphore] = {}
        self._buffers: Dict[str, InFlightBuffer] = {}
        self._merge_states: Dict[str, MergeState] = {}
        self._open_edges = Counter(edge.consumer for edge in plan.config.edges)

    # --- plumbing --------------------------------------------------------

    def _note_wire_error(self, edge_name: str) -> None:
        self.report.wire_errors[edge_name] += 1

    def _make_senders(self, name: str):
        """Per out-edge (edge, send) pairs, transports resolved."""
        senders = []
        for edge in self.plan.out_edges[name]:
            send = partial(self._arrive, edge.consumer)
            if edge.transport != "local":
                link = _TcpLink(edge, send, self._note_wire_error)
                self._links.append(link)
                send = link.send
            senders.append((edge, send))
        return senders

    def _publish(self, name: str, chunk: DataChunk) -> None:
        check_publishable(chunk)
        chunk.payload.setflags(write=False)
        stats = self.report.key_stats.setdefault(chunk.source_key, KeyStats())
        stats.published += 1
        if Continuity(chunk.continuity) is not Continuity.CALIBRATION:
            stats.total_cells += chunk.payload.size
            stats.nan_cells += int(np.isnan(chunk.payload).sum())
        faults = self.plan.config.faults
        for edge, send in self._senders[name]:
            if edge.source_key != chunk.source_key:
                continue
            if faults.drops_chunk(
                edge.producer, edge.feature, edge.consumer, chunk.number
            ):
                continue
            send(chunk)

    def _finish(self, name: str) -> None:
        """End every out-edge of a producer that will publish no more."""
        for edge, _ in self._senders[name]:
            self._arrive(edge.consumer, _END)

    def _arrive(self, name: str, item) -> None:
        """One arrival at a consumer (or a source's end); whatever it
        publishes in response has moved on, depth-first, when this returns."""
        if item is _END:
            self._open_edges[name] -= 1
            if not self._open_edges[name]:
                self._finish(name)
            return
        inst = self.plan.instances[name]
        if isinstance(inst, SinkProcessor):
            inst.consume(item)
            return
        buffer = self._buffers[name]
        completed = buffer.accept(item)
        occupancy = self.report.max_occupancy
        occupancy[name] = max(occupancy[name], buffer.occupancy())
        if completed is None:
            return
        n = next(iter(completed.values())).number
        merged, self._merge_states[name] = complete_merge(
            self._merge_states[name], completed, n
        )
        self.report.merge_logs[name].append(self._log_entry(merged))
        for out in inst.step(merged):
            self._publish(name, out)

    @staticmethod
    def _log_entry(merged) -> MergeLogEntry:
        names = {key: _SCENARIO_NAMES[s] for key, s in merged.scenarios.items()}
        unique = set(names.values())
        summary = unique.pop() if len(unique) == 1 else "mixed"
        return MergeLogEntry(
            number=merged.number,
            continuity=Continuity(merged.continuity),
            scenario=summary,
            scenarios=tuple(sorted(names.items())),
        )

    # --- threads and the loop --------------------------------------------

    def _run_source(self, name: str) -> None:
        """Post the source's chunks, a failure and the end to the inbox,
        at most SOURCE_BACKLOG ahead of the loop."""
        inst = self.plan.instances[name]
        backlog = self._backlog[name]

        def post(item) -> None:
            backlog.acquire()
            self._inbox.put((name, item))

        try:
            for chunk in inst.chunks():
                post(chunk)
        except BaseException as exc:  # noqa: BLE001 - raised by run
            post(exc)
        finally:
            post(_END)

    def _dispatch(self, pending: int) -> Optional[Exception]:
        """Handle inbox items until ``pending`` sources have ended;
        returns the first failure.

        After a failure, chunks are dropped but ends still count down,
        so every source runs to its end and every edge is ended.
        """
        failure: Optional[Exception] = None
        taken = dict.fromkeys(self._backlog, 0)
        while pending:
            name, item = self._inbox.get()
            # wake a blocked source once per half backlog, not once per
            # item: each wake costs thread switches on a busy loop
            taken[name] = (taken[name] + 1) % (SOURCE_BACKLOG // 2)
            if not taken[name]:
                self._backlog[name].release(SOURCE_BACKLOG // 2)
            ended = item is _END
            pending -= ended
            if failure is not None and not ended:
                continue
            try:
                if isinstance(item, BaseException):
                    raise item
                if ended:
                    self._arrive(name, item)
                else:
                    self._publish(name, item)
            except Exception as exc:  # noqa: BLE001 - raised by run
                failure = exc if failure is None else failure
        return failure

    def run(self) -> RunReport:
        plan = self.plan
        try:
            for name in plan.order:
                inst = plan.instances[name]
                if isinstance(inst, SourceProcessor):
                    self._backlog[name] = threading.Semaphore(SOURCE_BACKLOG)
                    self._open_edges[name] = 1  # the source's own thread
                elif isinstance(inst, Processor):
                    inst.reset()
                    buffer = InFlightBuffer(frozenset(plan.in_keys[name]))
                    self._buffers[name] = buffer
                    self._merge_states[name] = MergeState()
                    self.report.merge_logs[name] = []
                    self.report.buffer_counters[name] = buffer.counters
                    self.report.max_occupancy[name] = 0
                self._senders[name] = self._make_senders(name)
            sources = [
                threading.Thread(target=self._run_source, args=(name,),
                                 name=name, daemon=True)
                for name in self._backlog
            ]
            for thread in sources:
                thread.start()
            failure = self._dispatch(len(sources))
            for thread in sources:
                thread.join()
        finally:
            for link in self._links:
                link.close()
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

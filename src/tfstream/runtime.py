"""Streamboard runtime: one dispatch loop runs every transform and sink.

Sources and the receiving ends of TCP edges have threads of their own
that post arrivals to one inbox; the loop, in the calling thread, pushes
each arrival depth-first along local edges by direct call.  The gap
inference in the buffer makes the published streams independent of when
arrivals come, so runs are deterministic end to end.

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
from .wire import FrameStream, decode_stream, encode

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


#: Inbox sentinel: an edge or a source will deliver nothing more.
_END = object()


class _TcpLink:
    """One edge over a loopback TCP socket using the framed codec."""

    def __init__(self, edge: Edge, deliver: Callable, on_wire_error: Callable):
        self._edge = edge
        self._deliver = deliver
        self._on_wire_error = on_wire_error
        _, host, port = edge.transport.split(":")
        self._listener = socket.create_server((host or "127.0.0.1", int(port)))
        self._rx = threading.Thread(target=self._receive, daemon=True)
        self._rx.start()
        self._sock = socket.create_connection(self._listener.getsockname())
        self._wire_dtype = np.dtype(edge.wire_dtype)

    def send(self, chunk: DataChunk) -> None:
        self._sock.sendall(encode(chunk, dtype=self._wire_dtype))

    def shutdown_send(self) -> None:
        """No more frames; the receiver reports end of stream at EOF."""
        self._sock.close()

    def close(self) -> None:
        self._rx.join(timeout=30)
        self._listener.close()

    def _receive(self) -> None:
        conn, _ = self._listener.accept()
        name = (
            f"{self._edge.producer}.{self._edge.feature}->{self._edge.consumer}"
        )
        with conn, conn.makefile("rb") as raw:
            stream = FrameStream(raw)
            while not stream.at_end():
                stream.begin_frame()
                try:
                    chunk = decode_stream(stream)
                except WireError:
                    # A damaged frame is lost whole; the consumer just
                    # sees a number gap, like any other lost chunk.
                    self._on_wire_error(name)
                    stream.skip_to_magic()
                    continue
                self._deliver(chunk)
        self._deliver(_END)


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
        # each edge's count has one writer: the edge's receiving thread
        self.report.wire_errors[edge_name] += 1

    def _make_senders(self, name: str):
        """Per out-edge (edge, send, end) triples, transports resolved."""
        senders = []
        for edge in self.plan.out_edges[name]:
            to = edge.consumer
            if edge.transport == "local":
                send = partial(self._arrive, to)
                end = partial(self._arrive, to, _END)
            else:
                link = _TcpLink(edge, lambda item, _to=to: self._inbox.put(
                    (_to, item)), self._note_wire_error)
                self._links.append(link)
                send, end = link.send, link.shutdown_send
            senders.append((edge, send, end))
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
        for edge, send, _ in self._senders[name]:
            if edge.source_key != chunk.source_key:
                continue
            if faults.drops_chunk(
                edge.producer, edge.feature, edge.consumer, chunk.number
            ):
                continue
            send(chunk)

    def _finish(self, name: str) -> None:
        """End every out-edge of a producer that will publish no more."""
        for _, _, end in self._senders[name]:
            end()

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
        """Handle inbox items until ``pending`` ends (one per source and
        one per TCP link) have come in; returns the first failure.

        After a failure, chunks are dropped but ends still count down,
        so every source and link runs to its end.
        """
        failure: Optional[Exception] = None
        taken = dict.fromkeys(self._backlog, 0)
        while pending:
            name, item = self._inbox.get()
            backlog = self._backlog.get(name)
            if backlog is not None:
                # wake a blocked source once per half backlog, not once per
                # item: each wake costs thread switches on a busy loop
                taken[name] = (taken[name] + 1) % (SOURCE_BACKLOG // 2)
                if not taken[name]:
                    backlog.release(SOURCE_BACKLOG // 2)
            ended = item is _END
            pending -= ended
            if failure is not None and not ended:
                continue
            try:
                if isinstance(item, BaseException):
                    raise item
                if backlog is None or ended:
                    self._arrive(name, item)
                else:
                    self._publish(name, item)
            except Exception as exc:  # noqa: BLE001 - raised by run
                failure = exc if failure is None else failure
        return failure

    def run(self) -> RunReport:
        plan = self.plan
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
            threading.Thread(target=self._run_source, args=(name,), name=name,
                             daemon=True)
            for name in self._backlog
        ]
        for thread in sources:
            thread.start()
        failure = self._dispatch(len(sources) + len(self._links))
        for thread in sources:
            thread.join()
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

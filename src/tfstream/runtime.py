"""Streamboard runtime: one worker thread per processor, bounded queues.

Each consumer owns an in-flight buffer and a merge state; arriving chunks
complete numbered sets, are merged, processed and republished.  The gap
inference in the buffer makes the published streams independent of the
thread interleaving, so runs are deterministic end to end.

Edges carry chunks either in-process (local transport, full precision)
or over a TCP socket through the framed codec.
"""

from __future__ import annotations

import queue
import socket
import threading
from dataclasses import dataclass, field
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
from .processors import SinkProcessor, SourceProcessor
from .wire import FrameStream, decode_stream, encode

_SCENARIO_NAMES = {
    MergeScenario.REGULAR_CONTINUOUS: "RegularContinuous",
    MergeScenario.REGULAR_DISCONTINUOUS: "RegularDiscontinuous",
    MergeScenario.IRREGULAR_DISCONTINUOUS: "IrregularDiscontinuous",
}


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
    wire_errors: Dict[str, int] = field(default_factory=dict)
    written: Dict[SourceKey, int] = field(default_factory=dict)
    max_occupancy: Dict[str, int] = field(default_factory=dict)

    def scenario_names(self, consumer: str) -> List[str]:
        return [entry.scenario for entry in self.merge_logs.get(consumer, [])]


class _EndOfStream:
    """Inbox sentinel: the named source key will deliver nothing more."""

    __slots__ = ("key",)

    def __init__(self, key: SourceKey):
        self.key = key


class _TcpLink:
    """One edge over a loopback TCP socket using the framed codec."""

    def __init__(self, edge: Edge, deliver: Callable, on_wire_error: Callable):
        self._edge = edge
        self._deliver = deliver
        self._on_wire_error = on_wire_error
        host, port = "127.0.0.1", 0
        spec = edge.transport.split(":")
        if len(spec) == 3:
            host, port = spec[1] or host, int(spec[2])
        self._listener = socket.create_server((host, port))
        self._rx = threading.Thread(target=self._receive, daemon=True)
        self._rx.start()
        self._sock = socket.create_connection(self._listener.getsockname())
        self._wire_dtype = np.dtype(edge.wire_dtype)
        self._send_lock = threading.Lock()

    def send(self, chunk: DataChunk) -> None:
        with self._send_lock:
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
                try:
                    chunk = decode_stream(stream)
                except WireError:
                    # A damaged frame is lost whole; the consumer just
                    # sees a number gap, like any other lost chunk.
                    self._on_wire_error(name)
                    stream.skip_to_magic()
                    continue
                self._deliver(chunk)
        self._deliver(_EndOfStream(self._edge.source_key))


class Streamboard:
    """Wires a validated plan into threads and runs it to completion."""

    def __init__(self, plan: GraphPlan):
        self.plan = plan
        self.report = RunReport()
        self._inboxes: Dict[str, queue.Queue] = {}
        self._links: List[_TcpLink] = []
        self._errors: List[BaseException] = []
        self._lock = threading.Lock()

    # --- plumbing --------------------------------------------------------

    def _inbox(self, name: str) -> queue.Queue:
        if name not in self._inboxes:
            n_edges = max(1, len(self.plan.in_keys.get(name, ())))
            depth = self.plan.config.queue_depth * n_edges
            self._inboxes[name] = queue.Queue(maxsize=depth)
        return self._inboxes[name]

    def _note_wire_error(self, edge_name: str) -> None:
        with self._lock:
            self.report.wire_errors[edge_name] = (
                self.report.wire_errors.get(edge_name, 0) + 1
            )

    def _make_senders(self, name: str):
        """Per out-edge (edge, send, end) triples, transports resolved."""
        senders = []
        for edge in self.plan.out_edges.get(name, []):
            inbox = self._inbox(edge.consumer)
            if edge.transport == "local":
                send = inbox.put
                end = (lambda _inbox=inbox, _key=edge.source_key:
                       _inbox.put(_EndOfStream(_key)))
            else:
                link = _TcpLink(edge, inbox.put, self._note_wire_error)
                self._links.append(link)
                send = link.send
                end = link.shutdown_send
            senders.append((edge, send, end))
        return senders

    def _publish(self, name: str, chunk: DataChunk, senders) -> None:
        check_publishable(chunk)
        chunk.payload.setflags(write=False)
        faults = self.plan.config.faults
        with self._lock:
            stats = self.report.key_stats.setdefault(chunk.source_key, KeyStats())
            stats.published += 1
            if Continuity(chunk.continuity) is not Continuity.CALIBRATION:
                stats.total_cells += chunk.payload.size
                stats.nan_cells += int(np.isnan(chunk.payload).sum())
        for edge, send, _ in senders:
            if edge.source_key != chunk.source_key:
                continue
            if faults.drops_chunk(
                edge.producer, edge.feature, edge.consumer, chunk.number
            ):
                continue
            send(chunk)

    @staticmethod
    def _finish(senders) -> None:
        for _, _, end in senders:
            end()

    # --- workers ---------------------------------------------------------

    def _guard(self, fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported at join
                with self._lock:
                    self._errors.append(exc)

        return wrapped

    def _run_source(self, name: str) -> None:
        inst = self.plan.instances[name]
        senders = self._make_senders(name)
        try:
            for chunk in inst.chunks():
                self._publish(name, chunk, senders)
        finally:
            self._finish(senders)

    def _drain(self, name: str, handle: Callable) -> None:
        """Pass every inbox item to handle until each input has ended.

        After a failure the inbox is still drained, so producers never
        block; the first failure is raised at the end.
        """
        inbox = self._inbox(name)
        keys = frozenset(self.plan.in_keys[name])
        ended: set = set()
        failure: Optional[BaseException] = None
        while ended != keys:
            item = inbox.get()
            if isinstance(item, _EndOfStream):
                ended.add(item.key)
            elif failure is None:
                try:
                    handle(item)
                except BaseException as exc:  # noqa: BLE001
                    failure = exc
        if failure is not None:
            raise failure

    def _run_transform(self, name: str) -> None:
        inst = self.plan.instances[name]
        inst.reset()
        senders = self._make_senders(name)
        buffer = InFlightBuffer(configured_keys=frozenset(self.plan.in_keys[name]))
        state = MergeState()
        log: List[MergeLogEntry] = []
        max_occ = 0

        def handle(item: DataChunk) -> None:
            nonlocal state, max_occ
            completed = buffer.accept(item)
            max_occ = max(max_occ, buffer.occupancy())
            if completed is None:
                return
            n = next(iter(completed.values())).number
            merged, state = complete_merge(state, completed, n)
            log.append(self._log_entry(merged))
            for out in inst.step(merged):
                self._publish(name, out, senders)

        try:
            self._drain(name, handle)
            buffer.drain()
        finally:
            with self._lock:
                self.report.merge_logs[name] = log
                self.report.buffer_counters[name] = buffer.counters
                self.report.max_occupancy[name] = max_occ
                if inst.valid_columns is not None:
                    self.report.valid_columns[name] = inst.valid_columns
                if inst.theta is not None and inst.beta is not None:
                    self.report.calibration[name] = (inst.theta, inst.beta)
            self._finish(senders)

    def _run_sink(self, name: str) -> None:
        inst = self.plan.instances[name]
        try:
            self._drain(name, inst.consume)
        finally:
            inst.close()
            with self._lock:
                self.report.written.update(inst.written)

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

    # --- orchestration ---------------------------------------------------

    def run(self) -> RunReport:
        for name, inst in self.plan.instances.items():
            if not isinstance(inst, SourceProcessor):
                self._inbox(name)
        threads = []
        for name in self.plan.order:
            inst = self.plan.instances[name]
            if isinstance(inst, SourceProcessor):
                target = self._run_source
            elif isinstance(inst, SinkProcessor):
                target = self._run_sink
            else:
                target = self._run_transform
            thread = threading.Thread(
                target=self._guard(lambda n=name, t=target: t(n)), name=name
            )
            threads.append(thread)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for link in self._links:
            link.close()
        if self._errors:
            first = self._errors[0]
            if isinstance(first, TFStreamError):
                raise first
            raise RuntimeError(f"worker failed: {first!r}") from first
        for key, params in self.plan.cumulative.items():
            channels = self.plan.channels.get(key, 1)
            if channels > 1:
                self.report.declared_invalid_fraction[key] = (
                    (params.l + params.s) / channels
                )
        return self.report


def run_plan(plan: GraphPlan) -> RunReport:
    return Streamboard(plan).run()

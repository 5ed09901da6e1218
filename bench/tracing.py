"""Spans around the calls into each tfstream layer, recorded from outside.

Nothing inside ``src/tfstream`` is instrumented.  The benchmark wraps:

* each processor instance's ``process`` (transforms) or ``consume`` (the
  file writer), and the source's ``chunks`` generator;
* ``complete_merge``, ``encode`` and ``decode_stream`` where
  ``tfstream.runtime`` calls them, ``complete_merge`` where
  ``tfstream.oracle`` calls it, and ``InFlightBuffer.accept``.

A span is (layer, chunk number, thread, start, end, busy): the chunk
number is the identifier all spans of one chunk share, and busy is the
calling thread's CPU time inside the call (``time.thread_time``), so
``end - start - busy`` is time spent waiting for the interpreter lock or
the scheduler.  Spans stay in memory and are written when the run ends.

A patched call site that has moved, or a layer that records no calls on a
workload that must exercise it, raises ``TraceError``: a refactor that
moves a call must break the trace instead of reporting zero.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from tfstream import buffering, merge, oracle, runtime, wire
from tfstream.chunks import Continuity, MergeScenario
from tfstream.processors import Processor, SinkProcessor, SourceProcessor


class TraceError(RuntimeError):
    """The trace no longer covers a layer it must cover."""


#: The processor modules; each is one layer, named after its module.
LAYERS = ("sources", "resampler", "filterbank", "structure", "ptn", "writer")


def layer_of(inst) -> str:
    module = type(inst).__module__.rsplit(".", 1)[-1]
    if module not in LAYERS:
        raise TraceError(f"processor {inst.name!r} lives in unknown module {module!r}")
    return module


class Tracer:
    """Collects spans; one instance per benchmark phase."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.round = 0
        self.spans: List[tuple] = []

    def record(self, layer, number, start, end, busy, out=0) -> None:
        self.spans.append((self.round, self.prefix + layer, number,
                           threading.current_thread().name,
                           start, end, busy, out))

    def wrap(self, layer: str, fn: Callable, number_of: Callable,
             out_of: Callable = lambda result: 0) -> Callable:
        perf, cpu, record = time.perf_counter, time.thread_time, self.record

        def traced(*args, **kwargs):
            w0, c0 = perf(), cpu()
            result = fn(*args, **kwargs)
            c1, w1 = cpu(), perf()
            record(layer, number_of(args, result), w0, w1, c1 - c0,
                   out_of(result))
            return result

        return traced

    # --- processors --------------------------------------------------------

    def wrap_instances(self, instances: Dict[str, object]) -> None:
        for inst in instances.values():
            layer = layer_of(inst)
            if isinstance(inst, Processor):
                inst.process = self.wrap(
                    layer, inst.process,
                    lambda args, result: args[0].number,
                    lambda result: sum(f.payload.size for f in result.values()),
                )
            elif isinstance(inst, SinkProcessor):
                inst.consume = self.wrap(
                    layer, inst.consume, lambda args, result: args[0].number)

    # --- module call sites -------------------------------------------------

    @contextmanager
    def runtime_call_sites(self) -> Iterator[None]:
        """Patch the streaming runtime's merge, codec and buffer calls."""
        patches = [
            (runtime, "complete_merge", merge.complete_merge, self.wrap(
                "merge", merge.complete_merge,
                lambda args, result: args[2],
                lambda result: int(
                    MergeScenario.IRREGULAR_DISCONTINUOUS
                    in result[0].scenarios.values()))),
            (runtime, "encode", wire.encode, self.wrap(
                "wire.encode", wire.encode,
                lambda args, result: args[0].number,
                lambda result: len(result))),
            (runtime, "decode_stream", wire.decode_stream, self.wrap(
                "wire.decode", wire.decode_stream,
                lambda args, result: result.number)),
            (buffering.InFlightBuffer, "accept", buffering.InFlightBuffer.accept,
             self.wrap("buffering", buffering.InFlightBuffer.accept,
                       lambda args, result: args[1].number)),
        ]
        if runtime.InFlightBuffer is not buffering.InFlightBuffer:
            raise TraceError("tfstream.runtime no longer buffers through "
                             "tfstream.buffering.InFlightBuffer")
        with _patched(patches):
            yield

    @contextmanager
    def oracle_call_sites(self) -> Iterator[None]:
        """Patch the oracle's merge call."""
        patches = [
            (oracle, "complete_merge", merge.complete_merge, self.wrap(
                "merge", merge.complete_merge, lambda args, result: args[2])),
        ]
        with _patched(patches):
            yield

    # --- results -----------------------------------------------------------

    def layer_totals(self, round_index: int) -> Dict[str, dict]:
        """Per layer: calls, busy_s, wait_s, out (summed) for one round."""
        totals: Dict[str, dict] = {}
        for rnd, layer, _, _, start, end, busy, out in self.spans:
            if rnd != round_index:
                continue
            t = totals.setdefault(layer, {"calls": 0, "busy_s": 0.0,
                                          "wait_s": 0.0, "out": 0})
            t["calls"] += 1
            t["busy_s"] += busy
            t["wait_s"] += max(end - start - busy, 0.0)
            t["out"] += out
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                rnd, layer, number, thread, start, end, busy, out = span
                fh.write(json.dumps({
                    "round": rnd, "layer": layer, "chunk": number,
                    "thread": thread, "start": start, "end": end,
                    "busy": busy, "out": out,
                }) + "\n")


@contextmanager
def _patched(patches) -> Iterator[None]:
    """Replace attributes for the duration of the block; each must still
    hold the original function, or the call site has moved."""
    for owner, attr, original, _ in patches:
        current = getattr(owner, attr, None)
        if current is not original:
            raise TraceError(
                f"{getattr(owner, '__name__', owner)}.{attr} is no longer "
                f"{original.__module__}.{original.__qualname__}; the call "
                f"site moved and the trace must follow it")
    try:
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)


def require_calls(totals: Dict[str, dict], layers) -> None:
    """Fail loudly when a layer that the workload must exercise is silent."""
    silent = [layer for layer in layers if totals.get(layer, {}).get("calls", 0) == 0]
    if silent:
        raise TraceError(f"traced layers recorded no calls: {', '.join(silent)}")


def pace_source(inst: SourceProcessor, period: Optional[float],
                  tracer: Optional[Tracer], emits: List[tuple]) -> None:
    """Drive the source's chunks on a schedule; record (number, due, emit).

    With a period, chunk n is due at t0 + n * period and the generator
    sleeps until then (open loop: it never waits for the pipeline except
    through the runtime's own bounded queues, and a stall makes later
    chunks late, which their latency counts).  Without one, every chunk
    is due at t0: the source floods.
    """
    inner = inst.chunks
    perf, cpu = time.perf_counter, time.thread_time

    def chunks():
        t0 = perf()
        it = inner()
        while True:
            w0, c0 = perf(), cpu()
            try:
                chunk = next(it)
            except StopIteration:
                return
            c1, w1 = cpu(), perf()
            if tracer is not None:
                tracer.record("sources", chunk.number, w0, w1, c1 - c0)
            due = t0 + chunk.number * period if period else t0
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            emits.append((chunk.number, due, perf()))
            yield chunk

    inst.chunks = chunks


def sink_clock(inst: SinkProcessor, written: Dict[int, float]) -> None:
    """Record, per chunk number, when the sink finished writing its last
    output (calibration chunks are consumed but never written)."""
    consume = inst.consume
    perf = time.perf_counter

    def timed(chunk):
        consume(chunk)
        if Continuity(chunk.continuity) is not Continuity.CALIBRATION:
            written[chunk.number] = perf()

    inst.consume = timed

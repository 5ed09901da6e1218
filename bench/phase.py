"""One measured phase of a benchmark run, in a process of its own.

    python3 bench/phase.py {stream,oracle} WORKLOAD SEED BUDGET_S TRACE RUN_DIR SLICE

``run.py`` starts this once per phase and slice, so that each phase's
peak resident set size is its own (``ru_maxrss`` covers the whole life of
a process).  A slice repeats whole rounds until its time budget would be
exceeded (at least one round); every round builds a fresh plan from the
configuration, which is the set-up time measured.  Results go to
``RUN_DIR/<phase>.<SLICE>.json``; outputs of the last round stay in
RUN_DIR for the checks that ``run.py`` makes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from tfstream.graph import config_from_dict, validate_graph  # noqa: E402
from tfstream.oracle import run_unchunked  # noqa: E402
from tfstream.runtime import run_plan  # noqa: E402

import tracing as tr  # noqa: E402
import workloads  # noqa: E402

STREAM_LAYERS = ("sources", "resampler", "filterbank", "structure", "ptn",
                 "merge", "buffering", "writer")
#: Plans built before the first round, on top of the one each round
#: builds, so that the set-up median rests on enough samples.
SETUP_REPEATS = 15
ORACLE_LAYERS = ("oracle.resampler", "oracle.filterbank", "oracle.structure",
                 "oracle.ptn", "oracle.merge")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_plan(raw: dict):
    t0 = time.perf_counter()
    plan = validate_graph(config_from_dict(raw))
    return plan, time.perf_counter() - t0


def digest(out_dir: Path) -> dict:
    """CRC32 and size of every output file: rounds must be byte-identical."""
    result = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        result[path.name] = [zlib.crc32(data), len(data)]
    return result


def stream_round(wl, tracer):
    plan, setup_s = build_plan(wl.raw)
    emits, written = [], {}
    tr.pace_source(plan.instances[wl.source], wl.period_s, tracer, emits)
    if tracer is not None:
        tracer.wrap_instances(plan.instances)
    tr.sink_clock(plan.instances[wl.sink], written)
    w0, c0 = time.perf_counter(), time.process_time()
    if tracer is not None:
        with tracer.runtime_call_sites():
            report = run_plan(plan)
    else:
        report = run_plan(plan)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    due = {number: d for number, d, _ in emits}
    counters = report.buffer_counters.values()
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "latency_s": [written[n] - due[n] for n in sorted(written)],
        "lateness_s": [emit - d for _, d, emit in emits],
        "emitted": len(emits),
        "ptn_trace": [[e.number, e.scenario] for e in report.merge_logs["ptn"]],
        "discarded": sum(c.discarded for c in counters),
        "stale": sum(c.stale for c in counters),
        "max_occupancy": max(report.max_occupancy.values()),
        "wire_errors": sum(report.wire_errors.values()),
        "records": sum(report.written.values()),
        "digest": digest(wl.out_dir),
        "out_bytes": sum(p.stat().st_size for p in wl.out_dir.iterdir()),
    }


def oracle_round(wl, tracer):
    plan, setup_s = build_plan(workloads.without_faults(wl.raw))
    if tracer is not None:
        tracer.wrap_instances(plan.instances)
    w0 = time.perf_counter()
    if tracer is not None:
        with tracer.oracle_call_sites():
            results = run_unchunked(plan)
    else:
        results = run_unchunked(plan)
    return {"setup_s": setup_s, "wall_s": time.perf_counter() - w0}, results


def save_reference(wl, results, run_dir: Path) -> None:
    """Whole-signal results for the checks; on wire_faults also the
    whole-signal result of every fault-free segment."""
    ref = run_dir / "oracle"
    ref.mkdir(exist_ok=True)
    for (producer, feature), chunk in results.items():
        np.save(ref / f"{producer}.{feature}.npy", chunk.payload)
    if wl.name != "wire_faults":
        return
    mic = workloads.spec(wl.raw, wl.source)["params"]
    size = mic["chunk_size"]
    for first, last in workloads.fault_free_segments(wl):
        plan, _ = build_plan(workloads.without_faults(wl.raw))
        full = plan.instances[wl.source].full_signal()
        segment = full[first * size:(last + 1) * size]
        plan.instances[wl.source].full_signal = lambda s=segment: s.copy()
        seg = run_unchunked(plan)
        for key in (("cochlea", "E"), ("se", "T")):
            np.save(ref / f"{key[0]}.{key[1]}.seg{first}-{last}.npy",
                    seg[key].payload)


def run_phase(phase: str, wl, budget_s: float, trace: bool, run_dir: Path,
              tag: str) -> dict:
    tracer = tr.Tracer("oracle." if phase == "oracle" else "") if trace else None
    rounds, layer_rounds = [], []
    start = time.perf_counter()
    raw = wl.raw if phase == "stream" else workloads.without_faults(wl.raw)
    setups = [build_plan(raw)[1] for _ in range(SETUP_REPEATS)]
    results = None
    while True:
        if tracer is not None:
            tracer.round = len(rounds)
        if phase == "stream":
            rounds.append(stream_round(wl, tracer))
        else:
            row, results = oracle_round(wl, tracer)
            rounds.append(row)
        if tracer is not None:
            layer_rounds.append(tracer.layer_totals(len(rounds) - 1))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > budget_s:
            break
    setups += [row["setup_s"] for row in rounds]
    out = {"rounds": rounds, "setups_s": setups, "peak_rss_mb": peak_rss_mb(),
           "layers": layer_rounds}
    if phase == "oracle" and not (run_dir / "oracle").exists():
        save_reference(wl, results, run_dir)
    if tracer is not None:
        required = STREAM_LAYERS if phase == "stream" else ORACLE_LAYERS
        if phase == "stream" and wl.uses_wire:
            required += ("wire.encode", "wire.decode")
        for totals in layer_rounds:
            tr.require_calls(totals, required)
        tracer.write(run_dir / f"{phase}_spans.{tag}.jsonl")
    return out


def main(argv) -> int:
    phase, name, seed, budget_s, trace, run_dir, tag = argv
    run_dir = Path(run_dir)
    wl = workloads.build(name, int(seed), ROOT, run_dir)
    out = run_phase(phase, wl, float(budget_s), trace == "1", run_dir, tag)
    with open(run_dir / f"{phase}.{tag}.json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

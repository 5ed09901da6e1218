"""tfstream benchmark: one workload, checked outputs, metrics as JSON.

    python3 bench/run.py --workload {file_batch,live_paced,wire_faults} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
streams the workload for a share of S seconds and runs the whole-signal
oracle for the rest (see phase.py), then checks the outputs (see
checks.py) and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans recorded around each layer's calls.  Run
outputs (chunk files, whole-signal arrays, spans, result.json) are left
in ``.bench_runs/<workload>/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from statistics import median
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PHASE_TIMEOUT_S = 60
#: Each phase runs in this many processes, alternating with the other
#: phase's, so that both phases sample the machine over the whole run and
#: over more than one process placement.
SLICES = 2


def _pin_to_one_cpu() -> None:
    """Run every phase on one CPU; the phase processes inherit this.

    On a shared host the threaded runtime loses most when its interpreter
    lock moves between CPUs that are each stolen by other tenants now and
    then, so its throughput swung with the host's load far more than the
    work did (see README.md).  One CPU measures the work and the thread
    hand-offs without that swing.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _require_source() -> None:
    package = ROOT / "src" / "tfstream" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a tfstream "
                         f"source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of the pooled samples, interpolated."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(wl, stream: dict, oracle: dict) -> dict:
    latency = [x for row in stream["rounds"] for x in row["latency_s"]]
    setups = stream["setups_s"] + oracle["setups_s"]
    values = {
        "rt_factor": (median([wl.audio_s / r["wall_s"] for r in stream["rounds"]]), "x"),
        "oracle_rt_factor": (median([wl.audio_s / r["wall_s"] for r in oracle["rounds"]]), "x"),
        "latency_p50_ms": (1e3 * _quantile(latency, 0.5), "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (stream["peak_rss_mb"], "MB"),
        "oracle_peak_rss_mb": (oracle["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _round_value(rows, metric: str, name: str):
    """A count that every round must repeat exactly."""
    values = {row.get(metric, 0) for row in rows}
    if len(values) != 1:
        raise SystemExit(f"error: per-round count {name} varies: {sorted(values)}")
    return values.pop()


def per_layer(stream: dict, oracle: dict) -> dict:
    rounds, layers = stream["rounds"], stream["layers"]
    latency = [x for row in rounds for x in row["latency_s"]]
    empty = {"calls": 0, "busy_s": 0.0, "wait_s": 0.0, "out": 0}

    def per_round(layer):
        return [totals.get(layer, empty) for totals in layers]

    def busy(rows):
        return median([t["busy_s"] for t in rows])

    # The latency tail under pacing does not repeat within any bound on a
    # shared 2-vCPU machine, so it is reported here, without one.
    m = {"latency_p90_ms": (1e3 * _quantile(latency, 0.9), "ms")}
    for layer in ("resampler", "filterbank", "structure", "ptn"):
        rows = per_round(layer)
        m[f"{layer}.busy_s"] = (busy(rows), "s")
        m[f"{layer}.wait_s"] = (median([t["wait_s"] for t in rows]), "s")
        m[f"{layer}.calls"] = (_round_value(rows, "calls", f"{layer}.calls"), "count")
        m[f"{layer}.cells_out"] = (_round_value(rows, "out", f"{layer}.cells_out"), "count")
    for layer in ("resampler", "filterbank", "structure", "ptn", "merge"):
        rows = [totals.get(f"oracle.{layer}", empty) for totals in oracle["layers"]]
        m[f"oracle.{layer}.busy_s"] = (busy(rows), "s")
    merge = per_round("merge")
    m["merge.busy_s"] = (busy(merge), "s")
    m["merge.calls"] = (_round_value(merge, "calls", "merge.calls"), "count")
    m["merge.irregular"] = (_round_value(merge, "out", "merge.irregular"), "count")
    m["buffering.busy_s"] = (busy(per_round("buffering")), "s")
    # How a lost chunk is counted, discarded at a fast-forward or stale on
    # arrival, depends on which edge's thread delivers first; their sum
    # does not.
    m["buffering.discarded"] = (median([r["discarded"] for r in rounds]), "count")
    m["buffering.stale"] = (median([r["stale"] for r in rounds]), "count")
    m["buffering.lost"] = (_round_value(
        [{"lost": r["discarded"] + r["stale"]} for r in rounds],
        "lost", "buffering.lost"), "count")
    m["buffering.max_occupancy"] = (median([r["max_occupancy"] for r in rounds]), "count")
    encode = per_round("wire.encode")
    m["wire.encode_s"] = (busy(encode), "s")
    m["wire.decode_s"] = (busy(per_round("wire.decode")), "s")
    m["wire.frames"] = (_round_value(encode, "calls", "wire.frames"), "count")
    m["wire.bytes"] = (_round_value(encode, "out", "wire.bytes"), "bytes")
    m["writer.busy_s"] = (busy(per_round("writer")), "s")
    m["writer.records"] = (_round_value(rounds, "records", "writer.records"), "count")
    m["writer.bytes"] = (_round_value(rounds, "out_bytes", "writer.bytes"), "bytes")
    attributed = [sum(t["busy_s"] for t in totals.values()) for totals in layers]
    m["runtime.cpu_s"] = (median([r["cpu_s"] for r in rounds]), "s")
    m["runtime.unattributed_cpu_s"] = (
        median([r["cpu_s"] - a for r, a in zip(rounds, attributed)]), "s")
    m["sources.emit_s"] = (busy(per_round("sources")), "s")
    lateness = [x for row in rounds for x in row["lateness_s"]]
    m["sources.lateness_p90_ms"] = (1e3 * _quantile(lateness, 0.9), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _run_slice(phase: str, args, budget_s: float, run_dir: Path, tag: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "phase.py"), phase, args.workload,
         str(args.seed), repr(budget_s), str(args.trace), str(run_dir), str(tag)],
        check=True, timeout=PHASE_TIMEOUT_S, stdout=sys.stderr,
    )
    with open(run_dir / f"{phase}.{tag}.json") as fh:
        return json.load(fh)


def _run_phases(wl, args, run_dir: Path):
    """Alternate stream and oracle slices; join each phase's slices."""
    parts = {"stream": [], "oracle": []}
    for tag in range(SLICES):
        for phase, share in (("stream", wl.stream_share),
                             ("oracle", 1 - wl.stream_share)):
            budget_s = args.seconds * share / SLICES
            parts[phase].append(_run_slice(phase, args, budget_s, run_dir, tag))
    return [{
        "rounds": [r for p in slices for r in p["rounds"]],
        "setups_s": [x for p in slices for x in p["setups_s"]],
        "layers": [t for p in slices for t in p["layers"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in slices),
    } for slices in (parts["stream"], parts["oracle"])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("file_batch", "live_paced", "wire_faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    _pin_to_one_cpu()
    import checks
    import workloads

    run_dir = ROOT / ".bench_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, ROOT, run_dir)
    stream, oracle = _run_phases(wl, args, run_dir)

    failed, problems = checks.check(wl, run_dir, stream)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    e2e = end_to_end(wl, stream, oracle)
    result = {
        "correct": not problems,
        "attempted": wl.chunks_per_round * len(stream["rounds"]),
        "failed": failed,
        "metrics": per_layer(stream, oracle) if args.trace else e2e,
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "end_to_end": e2e,
                   "stream_rounds": len(stream["rounds"]),
                   "oracle_rounds": len(oracle["rounds"])}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

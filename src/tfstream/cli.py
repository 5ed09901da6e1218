"""Command line interface.

    tfstream validate --config pipeline.yaml
    tfstream run      --config pipeline.yaml [--input in.wav]
                      [--output outdir] [--seed N] [--stats]
    tfstream oracle   --config pipeline.yaml [--input in.wav] --output outdir
    tfstream export   --chunkfile out/ptn.E_T.tfc --csv blocks.csv
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .chunkfile import export_csv
from .errors import IoError, TFStreamError
from .graph import PipelineConfig, ProcessorSpec, load_config, validate_graph
from .oracle import run_unchunked
from .runtime import run_plan


def _override(config: PipelineConfig, args) -> PipelineConfig:
    """Apply --input / --output / --seed to the parsed configuration."""
    specs = []
    for spec in config.processors:
        params = dict(spec.params)
        if args.input is not None and spec.kind == "wav_reader":
            params["path"] = args.input
        if getattr(args, "output", None) is not None and spec.kind == "file_writer":
            params["directory"] = args.output
        if getattr(args, "seed", None) is not None:
            if spec.kind == "mic_input":
                params["seed"] = args.seed
            if spec.kind == "wav_reader" and params.get("calibration"):
                calibration = dict(params["calibration"])
                calibration["seed"] = args.seed
                params["calibration"] = calibration
        specs.append(ProcessorSpec(spec.name, spec.kind, params))
    return dataclasses.replace(config, processors=specs)


def _cmd_validate(args) -> int:
    plan = validate_graph(_override(load_config(args.config), args))
    print(f"configuration valid; processing order: {' -> '.join(plan.order)}")
    for key in sorted(plan.cumulative):
        params = plan.cumulative[key]
        print(
            f"  {key[0]}.{key[1]}: p={params.p} d={params.d} "
            f"l={params.l} s={params.s}"
        )
    print(f"minimum workable source chunk length: {plan.minimum_chunk_length()}")
    return 0


def _cmd_run(args) -> int:
    config = _override(load_config(args.config), args)
    plan = validate_graph(config)
    report = run_plan(plan)
    for key in sorted(report.written):
        print(f"wrote {report.written[key]} chunks for {key[0]}.{key[1]}")
    if args.stats:
        merge_logs = report.merge_logs
        for name in plan.order:
            if name not in merge_logs:
                continue
            entries = merge_logs[name]
            print(f"{name}: {len(entries)} merges")
            for entry in entries:
                print(
                    f"  #{entry.number} {entry.scenario} "
                    f"({entry.continuity.name.lower()})"
                )
            counters = report.buffer_counters[name]
            print(
                f"  buffered max {report.max_occupancy[name]}, "
                f"completed {counters.completed}, "
                f"discarded {counters.discarded}, stale {counters.stale}, "
                f"too short {counters.too_short}"
            )
        for key in sorted(report.key_stats):
            stats = report.key_stats[key]
            declared = report.declared_invalid_fraction.get(key)
            line = (
                f"{key[0]}.{key[1]}: {stats.published} chunks, "
                f"invalid fraction {stats.invalid_fraction:.4f}"
            )
            if declared is not None:
                line += f" (declared {declared:.4f})"
            print(line)
        for name, (theta, beta) in sorted(report.calibration.items()):
            print(
                f"{name}: mean theta={np.mean(theta):.6f} "
                f"mean beta={np.mean(beta):.6f}"
            )
        for edge, count in sorted(report.wire_errors.items()):
            print(f"{edge}: {count} damaged frames dropped")
    return 0


def _cmd_oracle(args) -> int:
    """Write the whole-signal reference arrays.

    They equal the arrays of ``tfstream run`` bit for bit only when both
    processes use the same BLAS build and thread count: the filterbank's
    GEMM may sum in a different order under another configuration.
    """
    config = _override(load_config(args.config), args)
    plan = validate_graph(config)
    results = run_unchunked(plan)
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for key in sorted(results):
            path = out / f"{key[0]}.{key[1]}.npy"
            np.save(path, results[key].payload)
            print(f"wrote {path} shape {results[key].payload.shape}")
    except OSError as exc:
        raise IoError(f"cannot write {exc.filename or out}: "
                      f"{exc.strerror or exc}") from None
    return 0


def _cmd_export(args) -> int:
    export_csv(Path(args.chunkfile), Path(args.csv))
    print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfstream",
        description="streaming time-frequency analysis pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a pipeline configuration")
    p_validate.add_argument("--config", required=True)
    p_validate.add_argument("--input", help="override the WAV input path")
    p_validate.set_defaults(fn=_cmd_validate)

    p_run = sub.add_parser("run", help="run a pipeline to completion")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--input", help="override the WAV input path")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument("--seed", type=int, help="override source noise seeds")
    p_run.add_argument("--stats", action="store_true",
                       help="print merge logs and counters")
    p_run.set_defaults(fn=_cmd_run)

    oracle_help = (
        "whole-signal reference computation (no chunking); bit-equal to "
        "`run` only under the same BLAS build and thread count"
    )
    p_oracle = sub.add_parser("oracle", help=oracle_help, description=oracle_help)
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--input", help="override the WAV input path")
    p_oracle.add_argument("--output", required=True)
    p_oracle.add_argument("--seed", type=int, help="override source noise seeds")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_export = sub.add_parser("export", help="dump a chunk file as CSV")
    p_export.add_argument("--chunkfile", required=True)
    p_export.add_argument("--csv", required=True)
    p_export.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TFStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

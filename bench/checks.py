"""Correctness checks on a benchmark run's outputs.

Nothing here compares with a stored copy of earlier output.  Each check
is a property the method must have, or an independent computation:

* streamed == whole-signal (``run_unchunked``) with NaN-aware
  ``array_equal`` over the streamed extent, which may fall short of the
  whole signal only by the key's cumulative included-past count p;
* on ``file_batch``, a few filterbank channels recomputed with
  ``scipy.signal.lfilter`` from the public taps (``design_lowpass``,
  ``gammachirp_ir``), because the oracle shares the streaming kernels and
  cannot catch a kernel fault both paths share; and the channel with the
  largest mean energy must be the one whose centre is nearest the tone;
* on ``wire_faults``, the chunk numbers written per key and the ptn merge
  scenario trace must be what the fault schedule predicts, and the
  filterbank and structure outputs over each fault-free segment must
  equal the whole-signal computation of that segment.

Every round's output files must be byte-identical to the last round's,
which is the one checked in full.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Tuple

import numpy as np
from scipy import signal as sps
from scipy.io import wavfile

from tfstream.chunkfile import read_chunk_file
from tfstream.graph import config_from_dict, validate_graph
from tfstream.processors.filterbank import gammachirp_ir
from tfstream.processors.resampler import design_lowpass

import workloads

#: Tolerance of the scipy anchor, relative to the channel's peak energy.
#: lfilter sums the same products as the streaming kernel in another
#: order, so the two agree to a few float64 rounding steps.
ANCHOR_RTOL = 1e-9


def _records(out_dir: Path, key) -> List[dict]:
    return read_chunk_file(out_dir / f"{key[0]}.{key[1]}.tfc")[1]


def _concat(records: List[dict]) -> np.ndarray:
    return np.concatenate([r["payload"] for r in records], axis=-1)


def _exact(name: str, streamed: np.ndarray, reference: np.ndarray,
           max_tail: int) -> List[str]:
    n, m = streamed.shape[-1], reference.shape[-1]
    if streamed.shape[:-1] != reference.shape[:-1]:
        return [f"{name}: shape {streamed.shape} vs whole-signal {reference.shape}"]
    if not m - max_tail <= n <= m:
        return [f"{name}: streamed {n} columns, whole signal {m}, "
                f"withheld tail may be at most {max_tail}"]
    if not np.array_equal(streamed, reference[..., :n], equal_nan=True):
        bad = ~((streamed == reference[..., :n])
                | (np.isnan(streamed) & np.isnan(reference[..., :n])))
        return [f"{name}: {int(bad.sum())} cells differ from the whole-signal result"]
    return []


def _whole_signal(wl, run_dir: Path, plan) -> List[str]:
    problems = []
    keys = sorted(k for k in plan.cumulative if k[0] != wl.source)
    for key in keys:
        path = wl.out_dir / f"{key[0]}.{key[1]}.tfc"
        if not path.exists():
            continue          # not subscribed by the writer
        reference = np.load(run_dir / "oracle" / f"{key[0]}.{key[1]}.npy")
        problems += _exact(f"{key[0]}.{key[1]}", _concat(_records(wl.out_dir, key)),
                           reference, plan.cumulative[key].p)
    return problems


def _scipy_anchor(wl, plan) -> List[str]:
    """Recompute filterbank channels with scipy from the public taps."""
    rate, pcm = wavfile.read(workloads.spec(wl.raw, wl.source)["params"]["path"])
    x = pcm.astype(np.float64) / 32768.0
    res = plan.instances["resampler"]
    bank = plan.instances["cochlea"]
    factor = res.factor
    h = design_lowpass(res.fir_length, factor)
    drop = math.ceil((res.fir_length - 1) / factor)
    y = sps.lfilter(h, [1.0], x)[::factor][drop:]
    rate_out = rate / factor
    length = max(2, int(round(bank.impulse_ms * rate_out / 1000.0)))

    header, records = read_chunk_file(wl.out_dir / "cochlea.E.tfc")
    energy = _concat(records)
    freqs = np.asarray(header["channel_freqs"])
    nearest = int(np.argmin(np.abs(freqs - wl.tone_hz)))
    problems = []
    for c in sorted({0, nearest, len(freqs) - 1}):
        taps = gammachirp_ir(freqs[c], rate_out, length, bank.order, chirp=bank.chirp)
        expected = np.abs(sps.lfilter(taps, [1.0], y)[length:]) ** 2
        got = energy[c]
        if got.shape != expected.shape:
            problems.append(f"anchor channel {c}: {got.shape} vs {expected.shape}")
            continue
        err = np.max(np.abs(got - expected)) / np.max(expected)
        if not err <= ANCHOR_RTOL:
            problems.append(f"anchor channel {c}: relative error {err:.3e} "
                            f"> {ANCHOR_RTOL:g}")
    loudest = int(np.argmax(np.nanmean(energy, axis=1)))
    if loudest != nearest:
        problems.append(f"loudest channel {loudest} ({freqs[loudest]:.1f} Hz) is "
                        f"not the one nearest the {wl.tone_hz:.1f} Hz tone "
                        f"({nearest})")
    return problems


def _fault_predictions(wl, run_dir: Path, stream: dict, plan) -> List[str]:
    problems = []
    for key, numbers in workloads.predicted_numbers(wl).items():
        got = [r["number"] for r in _records(wl.out_dir, key)]
        if got != numbers:
            lost = sorted(set(numbers) - set(got))
            extra = sorted(set(got) - set(numbers))
            problems.append(f"{key[0]}.{key[1]}: lost {lost}, unexpected {extra}")
    trace = [list(t) for t in workloads.predicted_ptn_trace(wl)]
    for i, row in enumerate(stream["rounds"]):
        if row["ptn_trace"] != trace:
            diff = [(a, b) for a, b in zip(row["ptn_trace"], trace) if a != b]
            problems.append(f"round {i}: ptn scenario trace differs from the "
                            f"schedule's prediction, first at {diff[:1]}")
    for first, last in workloads.fault_free_segments(wl):
        for key in (("cochlea", "E"), ("se", "T")):
            records = [r for r in _records(wl.out_dir, key)
                       if first <= r["number"] <= last]
            reference = np.load(run_dir / "oracle"
                                / f"{key[0]}.{key[1]}.seg{first}-{last}.npy")
            problems += _exact(f"{key[0]}.{key[1]} chunks {first}-{last}",
                               _concat(records), reference, plan.cumulative[key].p)
    return problems


def check(wl, run_dir: Path, stream: dict) -> Tuple[int, List[str]]:
    """Return (failed source chunks, problems) for the stream phase."""
    plan = validate_graph(config_from_dict(workloads.without_faults(wl.raw)))
    problems = _whole_signal(wl, run_dir, plan) if wl.name != "wire_faults" else []
    if wl.name == "file_batch":
        problems += _scipy_anchor(wl, plan)
    if wl.name == "wire_faults":
        problems += _fault_predictions(wl, run_dir, stream, plan)
    rounds = stream["rounds"]
    expected_emits = wl.chunks_per_round - len(wl.overflow)
    last_ok = not problems
    failed_rounds = 0
    for i, row in enumerate(rounds):
        if row["digest"] != rounds[-1]["digest"]:
            problems.append(f"round {i}: output files differ from the last round's")
        elif row["emitted"] != expected_emits or row["wire_errors"]:
            problems.append(f"round {i}: emitted {row['emitted']} of "
                            f"{expected_emits} chunks, {row['wire_errors']} "
                            f"damaged frames")
        elif last_ok:
            continue
        failed_rounds += 1
    return failed_rounds * wl.chunks_per_round, problems

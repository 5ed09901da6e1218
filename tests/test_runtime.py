"""Dispatch-loop runtime: end-to-end runs, transports, faults, reporting."""

import argparse
import dataclasses
import gc
import socket
import struct
import tempfile
import threading
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    file_pipeline_config, mic_pipeline_config, synth_tone_noise, write_wav)
from tfstream import runtime
from tfstream.chunkfile import concatenate_payloads, read_chunk_file
from tfstream.chunks import Continuity, DataChunk
from tfstream.cli import _override
from tfstream.errors import IoError, TFStreamError
from tfstream.graph import Edge, config_from_dict, load_config, validate_graph
from tfstream.oracle import compare_streamed, run_unchunked
from tfstream.processors import Processor, SinkProcessor, StructureExtractor
from tfstream.runtime import _TcpLink, run_plan
from tfstream.wire import encode

OUT_KEYS = [
    ("cochlea", "E"), ("se", "T"), ("ptn", "E_T"), ("ptn", "E_T_valid"),
    ("ptn", "E_blocks"),
]


def run_config(raw):
    plan = validate_graph(config_from_dict(raw))
    return plan, run_plan(plan)


def read_outputs(out_dir, keys=OUT_KEYS):
    outputs = {}
    for producer, feature in keys:
        path = out_dir / f"{producer}.{feature}.tfc"
        _, records = read_chunk_file(path)
        outputs[(producer, feature)] = concatenate_payloads(records)
    return outputs


def assert_streamed_matches_reference(raw, out_dir):
    """Every written key equals the whole-signal reference (exactly)."""
    plan, report = run_config(raw)
    streamed = read_outputs(out_dir)
    reference = run_unchunked(validate_graph(config_from_dict(raw)))
    assert sorted(report.written) == sorted(OUT_KEYS)
    for key in OUT_KEYS:
        problem = compare_streamed(streamed[key], reference[key].payload)
        assert problem is None, f"{key}: {problem}"
    return streamed, report


def test_file_pipeline_matches_unchunked_reference(tone_wav, tmp_path):
    out_dir = tmp_path / "out"
    _, report = assert_streamed_matches_reference(
        file_pipeline_config(tone_wav, out_dir), out_dir)
    assert report.written[("ptn", "E_T")] > 0


def test_run_report_exposes_calibration_and_valid_columns(tone_wav, tmp_path):
    plan, report = run_config(file_pipeline_config(tone_wav, tmp_path / "o"))
    # only ptn gates by (theta, beta), so only ptn calibrates
    assert sorted(report.calibration) == ["ptn"]
    theta_ptn, beta_ptn = report.calibration["ptn"]
    assert np.all(np.asarray(beta_ptn) > 0)
    # every score column the extractor could fully cover became a valid one
    assert report.valid_columns["ptn"] == 12000 - 303 - 40


def test_tcp_transport_is_equivalent_to_local(tone_wav, tmp_path):
    local_dir = tmp_path / "local"
    run_config(file_pipeline_config(tone_wav, local_dir))

    raw = file_pipeline_config(tone_wav, tmp_path / "tcp")
    for edge in raw["edges"]:
        if edge["from"] == "se.T":
            edge["transport"] = "tcp::0"
            edge["wire_dtype"] = "<f8"
    run_config(raw)

    a = read_outputs(local_dir)
    b = read_outputs(tmp_path / "tcp")
    for key in OUT_KEYS:
        np.testing.assert_array_equal(a[key], b[key])


def test_runs_are_deterministic(tone_wav, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    reports = [
        run_config(file_pipeline_config(tone_wav, d))[1] for d in dirs
    ]
    assert (reports[0].merge_logs["ptn"] == reports[1].merge_logs["ptn"])
    for producer, feature in OUT_KEYS:
        fa = dirs[0] / f"{producer}.{feature}.tfc"
        fb = dirs[1] / f"{producer}.{feature}.tfc"
        assert fa.read_bytes() == fb.read_bytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["mic_pipeline.yaml", "file_pipeline.yaml"])
def test_every_record_holds_its_keys_planned_counters(tmp_path, name):
    """Chunks do not carry counters: a key's are the plan's, composed at
    validation, and its file's header holds them once for every record.
    Each written file's header holds exactly its key's
    ``plan.cumulative``, on the mic pipeline behind its TCP edge, a
    dropped chunk and an overflow, and on the file pipeline across its
    calibration chunk and both rates."""
    wav = write_wav(tmp_path / "in.wav", 16000, synth_tone_noise(16000, 2.0))
    args = argparse.Namespace(input=str(wav), output=str(tmp_path / "out"),
                              seed=None)
    plan = validate_graph(_override(load_config(CONFIGS / name), args))
    report = run_plan(plan)
    if name == "mic_pipeline.yaml":
        assert "IrregularDiscontinuous" in report.scenario_names("ptn")
    assert sorted(report.written) == sorted(plan.in_keys["out"])
    for key in report.written:
        header, records = read_chunk_file(
            tmp_path / "out" / f"{key[0]}.{key[1]}.tfc")
        assert records
        assert header["alignment"] == list(plan.cumulative[key].as_tuple()), key


def test_mic_pipeline_scenarios_without_faults(tmp_path):
    plan, report = run_config(mic_pipeline_config(tmp_path / "out"))
    scenarios = report.scenario_names("ptn")
    assert scenarios[0] == "RegularDiscontinuous"
    assert all(s == "RegularContinuous" for s in scenarios[1:])
    logs = report.merge_logs["ptn"]
    assert logs[0].continuity is Continuity.DISCONTINUOUS
    assert logs[-1].continuity is Continuity.LAST


def test_dropped_chunk_produces_irregular_merge(tmp_path):
    plan, report = run_config(mic_pipeline_config(
        tmp_path / "out",
        faults=[{"kind": "drop_chunk", "edge": "se.T->ptn", "number": 2}],
    ))
    logs = {entry.number: entry for entry in report.merge_logs["ptn"]}
    assert 2 not in logs          # the set for #2 could not complete
    assert logs[3].scenario == "IrregularDiscontinuous"
    assert logs[4].scenario == "RegularContinuous"
    assert report.buffer_counters["ptn"].discarded >= 1


def test_link_down_drops_a_range(tmp_path):
    plan, report = run_config(mic_pipeline_config(
        tmp_path / "out", num_chunks=10,
        faults=[{"kind": "link_down", "edge": "se.T->ptn",
                 "from_number": 3, "to_number": 5}],
    ))
    merged_numbers = {e.number for e in report.merge_logs["ptn"]}
    assert merged_numbers & {3, 4, 5} == set()
    assert 6 in merged_numbers
    logs = {e.number: e for e in report.merge_logs["ptn"]}
    assert logs[6].scenario == "IrregularDiscontinuous"


def test_a_dead_edge_leaves_one_chunk_buffered(tmp_path):
    """se.T->ptn down from chunk 3 to the end of a 200-chunk run: each
    cochlea.E chunk that reaches ptn alone is discarded by the next
    number, so ptn never holds more than one chunk."""
    _, report = run_config(mic_pipeline_config(
        tmp_path / "out", num_chunks=200,
        faults=[{"kind": "link_down", "edge": "se.T->ptn",
                 "from_number": 3, "to_number": 199}],
    ))
    counters = report.buffer_counters["ptn"]
    assert report.max_occupancy["ptn"] <= 1
    assert (counters.completed, counters.discarded, counters.stale) == (
        3, 197, 0)
    assert [e.number for e in report.merge_logs["ptn"]] == [0, 1, 2]


INTO_PTN = ("cochlea.E->ptn", "se.T->ptn")
fault_numbers = st.integers(min_value=0, max_value=11)
fault_events = st.one_of(
    st.builds(lambda edge, n: {"kind": "drop_chunk", "edge": edge,
                               "number": n},
              st.sampled_from(INTO_PTN), fault_numbers),
    st.builds(lambda edge, a, b: {"kind": "link_down", "edge": edge,
                                  "from_number": min(a, b),
                                  "to_number": max(a, b)},
              st.sampled_from(INTO_PTN), fault_numbers, fault_numbers),
    st.builds(lambda n: {"kind": "overflow", "input": "mic", "number": n},
              fault_numbers),
)


def lost_numbers(faults, edge):
    lost = set()
    for f in faults:
        if f["kind"] == "drop_chunk" and f["edge"] == edge:
            lost.add(f["number"])
        elif f["kind"] == "link_down" and f["edge"] == edge:
            lost.update(range(f["from_number"], f["to_number"] + 1))
    return lost


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(fault_events, max_size=5))
def test_ptn_merges_exactly_the_numbers_no_fault_hit(faults):
    """Any drops and outages into ptn and overflows at the mic, on a
    12-chunk run: ptn merges every number that was emitted and lost on
    neither edge into it, holds at most one chunk, and counts every
    arrival once, as part of a completed set or as a loss."""
    with tempfile.TemporaryDirectory() as out:
        _, report = run_config(mic_pipeline_config(
            Path(out), num_chunks=12, faults=faults))
    emitted = set(range(12)) - {
        f["number"] for f in faults if f["kind"] == "overflow"}
    lost = {edge: lost_numbers(faults, edge) for edge in INTO_PTN}
    assert [e.number for e in report.merge_logs["ptn"]] == sorted(
        emitted - lost["cochlea.E->ptn"] - lost["se.T->ptn"])
    assert report.max_occupancy["ptn"] <= 1
    for key in [("cochlea", "E"), ("se", "T")]:
        assert report.key_stats[key].published == len(emitted)
    arrivals = sum(len(emitted - numbers) for numbers in lost.values())
    c = report.buffer_counters["ptn"]
    assert 2 * c.completed + c.discarded + c.stale == arrivals
    assert c.too_short == 0


#: (edge, extra, consumer): chunk 4 dropped on ``edge`` leaves the final
#: chunk of ``extra`` samples too short for ``consumer``, for its merge
#: (ptn) or for its own window (every other consumer); the ptn cases
#: keep the ids they had when ptn was the only case
SHORT_AFTER_FAULT = [
    ("cochlea.E->ptn", 1, "ptn"),
    ("cochlea.E->ptn", 30, "ptn"),
    ("cochlea.E->ptn", 60, "ptn"),
    ("cochlea.E->ptn", 200, "ptn"),
    ("reader.snd->resampler", 1, "resampler"),
    ("reader.snd->resampler", 30, "resampler"),
    ("reader.snd->resampler", 200, "cochlea"),
    ("reader.snd->resampler", 600, "se"),
    ("resampler.snd->cochlea", 200, "cochlea"),
    ("resampler.snd->cochlea", 600, "se"),
    ("cochlea.E->se", 600, "se"),
]


@pytest.mark.parametrize(
    "edge, extra, consumer", SHORT_AFTER_FAULT,
    ids=[str(extra) if edge == "cochlea.E->ptn" else f"{edge}-{extra}"
         for edge, extra, _ in SHORT_AFTER_FAULT])
def test_a_short_chunk_after_a_fault_costs_only_itself(
        tmp_path, edge, extra, consumer):
    """Four 1024-sample chunks and ``extra`` more samples, with chunk 4
    dropped on ``edge``: the final chunk reaches ``consumer`` after the
    break and is too short for its merge or its window.  That set is
    dropped and counted there; the run completes and every chunk before
    the fault is written."""
    signal = synth_tone_noise(8000, 1.0)[: 4 * 1024 + extra]
    wav = write_wav(tmp_path / "in.wav", 8000, signal)
    raw = file_pipeline_config(wav, tmp_path / "out", chunk_size=1024,
                               faults=[{"kind": "drop_chunk",
                                        "edge": edge, "number": 4}])
    _, report = run_config(raw)
    too_short = {name: c.too_short
                 for name, c in report.buffer_counters.items() if c.too_short}
    assert too_short == {consumer: 1}
    assert [e.number for e in report.merge_logs[consumer]] == [0, 1, 2, 3]
    if consumer == "ptn":
        assert report.buffer_counters["ptn"].discarded == 1
    # chunk 0 is the calibration chunk, which is never written
    for key in OUT_KEYS:
        _, records = read_chunk_file(tmp_path / "out" / f"{key[0]}.{key[1]}.tfc")
        numbers = [r["number"] for r in records]
        assert numbers[:3] == [1, 2, 3], key
        if consumer == "ptn":
            assert numbers == ([1, 2, 3] if key[0] == "ptn"
                               else [1, 2, 3, 4, 5]), key


def test_a_final_chunk_between_two_resampled_outputs_costs_nothing(tmp_path):
    """Chunks of 1025 samples and a final one of 1 sample, no fault: the
    last chunk falls between two /2 outputs, so the resampler takes it
    into its history and publishes nothing.  No set is too short, and
    every written key equals the whole-signal reference."""
    wav = write_wav(tmp_path / "in.wav", 8000,
                    synth_tone_noise(8000, 1.0)[: 3 * 1025 + 1])
    out_dir = tmp_path / "out"
    _, report = assert_streamed_matches_reference(
        file_pipeline_config(wav, out_dir, chunk_size=1025), out_dir)
    assert all(c.too_short == 0 for c in report.buffer_counters.values())
    # chunk 0 is the calibration chunk and chunk 4 the one-sample one
    assert report.merge_logs["resampler"][-1].number == 4
    assert report.merge_logs["cochlea"][-1].number == 3


def test_a_set_too_short_for_a_window_costs_what_a_lost_chunk_costs(tmp_path):
    """Chunk 4 lost and chunk 5 cut to 30 samples, too short for the
    resampler's window after the break: the set is counted as too short
    and the merge state stays at chunk 3, so chunk 6 merges as
    discontinuous and reuses no stale carried tail.  Every key writes what
    it writes when chunk 5 is lost as well."""
    wav = write_wav(tmp_path / "in.wav", 8000,
                    synth_tone_noise(8000, 1.0)[: 6 * 1024])

    def run(lost, out):
        raw = file_pipeline_config(
            wav, tmp_path / out, chunk_size=1024,
            faults=[{"kind": "drop_chunk", "edge": "reader.snd->resampler",
                     "number": n} for n in lost])
        plan = validate_graph(config_from_dict(raw))
        reader = plan.instances["reader"]
        chunks = list(reader.chunks())
        chunks[5] = dataclasses.replace(chunks[5],
                                        payload=chunks[5].payload[:30])
        reader.chunks = lambda: iter(chunks)
        return run_plan(plan)

    cut, lost = run([4], "cut"), run([4, 5], "lost")
    assert cut.buffer_counters["resampler"].too_short == 1
    assert lost.buffer_counters["resampler"].too_short == 0
    assert cut.merge_logs == lost.merge_logs
    assert cut.merge_logs["resampler"][-1].number == 6
    assert cut.merge_logs["resampler"][-1].scenario == "IrregularDiscontinuous"
    for key in OUT_KEYS:
        name = f"{key[0]}.{key[1]}.tfc"
        assert ((tmp_path / "cut" / name).read_bytes()
                == (tmp_path / "lost" / name).read_bytes()), key


def test_overflow_regularizes_downstream(tmp_path):
    plan, report = run_config(mic_pipeline_config(
        tmp_path / "out",
        faults=[{"kind": "overflow", "input": "mic", "number": 5}],
    ))
    resampler = {e.number: e for e in report.merge_logs["resampler"]}
    assert 5 not in resampler
    assert resampler[6].scenario == "IrregularDiscontinuous"
    # one merge later the gap is already regular again
    downstream = {e.number: e for e in report.merge_logs["cochlea"]}
    assert downstream[6].scenario == "RegularDiscontinuous"


def test_invalid_fraction_matches_declared(tone_wav, tmp_path):
    plan, report = run_config(file_pipeline_config(tone_wav, tmp_path / "o"))
    key = ("se", "T")
    declared = report.declared_invalid_fraction[key]
    assert declared == (3 + 3) / 64
    measured = report.key_stats[key].invalid_fraction
    assert abs(measured - declared) < 1e-3


def test_published_payloads_are_frozen(tone_wav, tmp_path):
    """Consumers must never mutate shared arrays; a fork feeds the same
    chunk object to several consumers."""
    plan, report = run_config(file_pipeline_config(tone_wav, tmp_path / "o"))
    # the run completing without copy-on-write crashes is the main check;
    # spot check that written output is finite where declared valid
    e = read_outputs(tmp_path / "o", keys=[("cochlea", "E")])[("cochlea", "E")]
    assert np.isfinite(e).all()


def test_a_finished_plan_is_freed_without_the_cycle_collector(tmp_path):
    """Nothing a run or the oracle leaves behind holds a processor in a
    reference cycle, so a dropped plan's arrays go at once: one cycle
    through ptn kept its whole-signal arrays alive until a collection."""
    gc.disable()
    try:
        for run in (run_plan, run_unchunked):
            plan = validate_graph(config_from_dict(
                mic_pipeline_config(tmp_path / run.__name__)))
            run(plan)
            refs = [weakref.ref(inst) for inst in plan.instances.values()]
            del plan
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


# magic, version, number and continuity, then the time extent
CONTINUITY_OFFSET = 4 + 2 + 8
TIME_OFFSET = CONTINUITY_OFFSET + 4
SE_T_PTN = Edge("se", "T", "ptn", transport="tcp::0", wire_dtype="<f8")


def se_frames(channels, columns, count=6):
    """Frames of ``se.T`` chunks 0..count-1, chunk n filled with n."""
    return [
        encode(DataChunk(number=n, source_key=("se", "T"),
                         payload=np.full((channels, columns), float(n)),
                         continuity=Continuity.WITHPREVIOUS), dtype="<f8")
        for n in range(count)
    ]


def flip(data, offset, bit):
    damaged = bytearray(data)
    damaged[offset + bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def transfer(pieces, channels):
    """The chunk numbers delivered and the wire errors counted when
    ``pieces`` pass through one TCP link of ``se.T`` frames with
    ``channels`` rows, one transfer each."""
    delivered, errors = [], []
    link = _TcpLink(SE_T_PTN, delivered.append, errors.append, (channels,))
    try:
        for piece in pieces:
            link.transfer(piece)
    finally:
        link.close()
    return [c.number for c in delivered], errors


@pytest.mark.parametrize("bit", [
    0,    # 101 columns: the reader overruns into frame 2
    2,    # 96 columns: the CRC is read from the payload
    3,
    12,   # more columns than all the frames hold
    30,   # far above any real extent
], ids=["time-0", "time-2", "time-3", "time-12", "time-30"])
def test_damaged_frame_costs_one_wire_error(bit):
    """The link skips a frame with a damaged time extent whole and
    counts it once, whether the frames pass through it as one piece or
    one at a time."""
    frames = se_frames(64, 100)
    assert struct.unpack_from("<I", frames[1], TIME_OFFSET) == (100,)
    frames[1] = flip(frames[1], TIME_OFFSET, bit)
    for pieces in ([b"".join(frames)], frames):
        assert transfer(pieces, 64) == ([0, 2, 3, 4, 5], ["se.T->ptn"])


def rewrite(frame, fmt, offset, value):
    """``frame`` with the field at ``offset`` set to ``value`` and its CRC
    recomputed over the fields after the version and the payload, so only
    that value is wrong."""
    data = bytearray(frame)
    struct.pack_into(fmt, data, offset, value)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(data[6:-4]))
    return bytes(data)


@pytest.mark.parametrize("fmt, offset, value", [
    ("<i", CONTINUITY_OFFSET, int(Continuity.INVALID)),
    ("<i", CONTINUITY_OFFSET, 7),
], ids=["continuity-invalid", "continuity-unknown"])
def test_intact_frame_with_an_unusable_field_costs_one_wire_error(
        fmt, offset, value):
    """A frame whose CRC holds but whose continuity is INVALID, which no
    publish sends, or no code at all, is lost like a damaged one: one
    wire error, and the next frame is delivered."""
    frames = se_frames(4, 10, count=3)
    frames[1] = rewrite(frames[1], fmt, offset, value)
    for pieces in ([b"".join(frames)], frames):
        assert transfer(pieces, 4) == ([0, 2], ["se.T->ptn"])


def version_3_frame(chunk):
    """``chunk`` framed as version 3 did: a length-prefixed header of
    names, number, continuity, dtype tag, ndim and extents."""
    header = b"".join(struct.pack("<H", len(name)) + name.encode()
                      for name in chunk.source_key)
    shape = chunk.payload.shape
    header += struct.pack(f"<QiBB{len(shape)}I", chunk.number,
                          int(chunk.continuity), 1, len(shape), *shape)
    payload = np.ascontiguousarray(chunk.payload, "<f8").tobytes()
    return b"".join((b"TFSB", struct.pack("<HI", 3, len(header)), header,
                     payload, struct.pack("<I", zlib.crc32(header + payload))))


def test_version_3_frame_costs_one_wire_error():
    """A frame of the previous version between two current ones is one
    wire error; the frames around it are delivered."""
    frames = se_frames(4, 10, count=3)
    frames[1] = version_3_frame(DataChunk(
        number=1, source_key=("se", "T"), payload=np.ones((4, 10)),
        continuity=Continuity.WITHPREVIOUS))
    for pieces in ([b"".join(frames)], frames):
        assert transfer(pieces, 4) == ([0, 2], ["se.T->ptn"])


@pytest.mark.parametrize("prefix, suffix", [
    (b"xxTF" + b"TFS", b""),
    (b"", b"no frame here TFS"),
], ids=["false-magic-starts", "tail-without-magic"])
def test_rescan_skips_junk_to_the_next_magic(prefix, suffix):
    """Junk holding false starts of the magic before intact frames, or a
    tail with no magic after them, is one wire error and costs no frame."""
    frames = se_frames(4, 10)
    for pieces in ([prefix + b"".join(frames) + suffix],
                   [prefix, *frames, suffix]):
        assert transfer(pieces, 4) == ([0, 1, 2, 3, 4, 5], ["se.T->ptn"])


def test_every_single_bit_flip_costs_exactly_its_frame():
    frames = se_frames(4, 10)
    whole, start = b"".join(frames), len(frames[0])
    delivered, errors = [], []
    link = _TcpLink(SE_T_PTN, delivered.append, errors.append, (4,))
    try:
        for bit in range(8 * len(frames[1])):
            link.transfer(flip(whole, start, bit))
            numbers = [c.number for c in delivered]
            assert (numbers, len(errors)) == ([0, 2, 3, 4, 5], 1), f"bit {bit}"
            delivered.clear()
            errors.clear()
    finally:
        link.close()


def test_a_delivered_chunk_keeps_its_values_after_the_next_transfer():
    """A decoded payload is a read-only view of bytes of its own, never
    of the link's reusable receive buffer: the next frame through the
    link leaves it as it was delivered."""
    first, second = se_frames(4, 10, count=2)
    delivered = []
    link = _TcpLink(SE_T_PTN, delivered.append, [].append, (4,))
    try:
        link.transfer(first)
        kept = delivered[0].payload
        link.transfer(second)
    finally:
        link.close()
    assert [c.number for c in delivered] == [0, 1]
    assert not kept.flags.writeable
    np.testing.assert_array_equal(kept, np.zeros((4, 10)))
    np.testing.assert_array_equal(delivered[1].payload, np.ones((4, 10)))


def test_frame_larger_than_the_socket_buffers_goes_through():
    frame = se_frames(64, 20_000, count=1)[0]     # about 10 MB
    assert transfer([frame], 64) == ([0], [])


def mic_run_over_tcp(out_dir, faults=None, damage=None):
    """A 40-chunk mic run whose ``se.T`` edges are TCP, in a thread with a
    time limit; ``damage`` may rewrite the frames the runtime encodes."""
    raw = mic_pipeline_config(out_dir, num_chunks=40, faults=faults)
    for edge in raw["edges"]:
        if edge["from"] == "se.T":
            edge["transport"] = "tcp::0"
            edge["wire_dtype"] = "<f8"
    plan = validate_graph(config_from_dict(raw))
    reports = []
    with pytest.MonkeyPatch.context() as patch:
        if damage is not None:
            patch.setattr(runtime, "encode", damage)
        worker = threading.Thread(
            target=lambda: reports.append(run_plan(plan)), daemon=True)
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive(), "run_plan did not return"
    return reports[0]


def test_frame_declaring_a_huge_shape_costs_only_its_chunk(tmp_path):
    """Bit 28 of the time extent makes one frame declare 2**28 more
    columns than it holds.  The run still ends with one wire error; it
    writes what the fault-free run writes before the lost chunk, and
    exactly what dropping that chunk on that edge writes."""
    lost = 7

    def damage(chunk, dtype):
        frame = encode(chunk, dtype)
        if chunk.source_key == ("se", "T") and chunk.number == lost:
            frame = flip(frame, TIME_OFFSET, 28)
        return frame

    damaged = mic_run_over_tcp(tmp_path / "damaged", damage=damage)
    dropped = mic_run_over_tcp(tmp_path / "dropped", faults=[
        {"kind": "drop_chunk", "edge": "se.T->ptn", "number": lost}])
    clean = mic_run_over_tcp(tmp_path / "clean")
    assert damaged.wire_errors == {"se.T->ptn": 1}
    assert not dropped.wire_errors and not clean.wire_errors
    assert damaged.merge_logs == dropped.merge_logs
    assert damaged.buffer_counters == dropped.buffer_counters
    for name in ["ptn.E_T.tfc", "ptn.E_blocks.tfc"]:
        got = (tmp_path / "damaged" / name).read_bytes()
        assert got == (tmp_path / "dropped" / name).read_bytes()
        _, records = read_chunk_file(tmp_path / "damaged" / name)
        _, want = read_chunk_file(tmp_path / "clean" / name)
        assert [r["number"] for r in records[:lost]] == list(range(lost))
        assert records[lost]["number"] == lost + 1
        for record, reference in zip(records[:lost], want):
            np.testing.assert_array_equal(record["payload"], reference["payload"])


@pytest.mark.parametrize("cut", [
    lambda payload: payload[:4],
    lambda payload: payload[0],
], ids=["four-rows", "one-row-as-1-D"])
def test_intact_frame_whose_shape_disagrees_with_the_plan_costs_its_chunk(
        tmp_path, cut):
    """The plan gives se.T 64 channels.  A frame of chunk 3 whose CRC
    holds but which carries 4 rows, or one row as a 1-D series, costs one
    wire error and exactly what dropping that chunk on that edge costs."""
    lost = 3

    def damage(chunk, dtype):
        if chunk.source_key == ("se", "T") and chunk.number == lost:
            chunk = dataclasses.replace(chunk, payload=cut(chunk.payload))
        return encode(chunk, dtype)

    damaged = mic_run_over_tcp(tmp_path / "damaged", damage=damage)
    dropped = mic_run_over_tcp(tmp_path / "dropped", faults=[
        {"kind": "drop_chunk", "edge": "se.T->ptn", "number": lost}])
    assert damaged.wire_errors == {"se.T->ptn": 1}
    assert damaged.merge_logs == dropped.merge_logs
    assert damaged.buffer_counters == dropped.buffer_counters
    for name in ["ptn.E_T.tfc", "ptn.E_blocks.tfc"]:
        got = (tmp_path / "damaged" / name).read_bytes()
        assert got == (tmp_path / "dropped" / name).read_bytes()


def threads_of_a_run(raw):
    """The threads that call ``process`` or ``consume`` in one run, and
    the names of the threads started while it ran."""
    plan = validate_graph(config_from_dict(raw))
    before = set(threading.enumerate())
    callers, started = set(), set()

    def record(fn):
        def wrapped(*args):
            callers.add(threading.get_ident())
            started.update(t.name for t in set(threading.enumerate()) - before)
            return fn(*args)
        return wrapped

    for inst in plan.instances.values():
        if isinstance(inst, Processor):
            inst.process = record(inst.process)
        elif isinstance(inst, SinkProcessor):
            inst.consume = record(inst.consume)
    run_plan(plan)
    return callers, started


def test_transforms_and_sinks_run_in_the_calling_thread(tone_wav, tmp_path):
    """One dispatch loop runs sources, transforms and sinks: a run starts
    no thread."""
    callers, started = threads_of_a_run(
        file_pipeline_config(tone_wav, tmp_path / "o"))
    assert callers == {threading.get_ident()}
    assert started == set()


def test_tcp_edges_start_no_thread(tone_wav, tmp_path):
    """A TCP edge is decoded in the loop: a run with TCP edges starts no
    thread either."""
    raw = file_pipeline_config(tone_wav, tmp_path / "o")
    for edge in raw["edges"]:
        if edge["from"] in ("cochlea.E", "se.T"):
            edge["transport"] = "tcp::0"
    callers, started = threads_of_a_run(raw)
    assert callers == {threading.get_ident()}
    assert started == set()


def runs_with_faults(tmp_path, transport):
    """Two 12-chunk mic runs with a drop and an outage on ptn's inputs,
    every edge into ptn on ``transport``."""
    faults = [
        {"kind": "drop_chunk", "edge": "se.T->ptn", "number": 2},
        {"kind": "link_down", "edge": "cochlea.E->ptn",
         "from_number": 5, "to_number": 7},
    ]
    reports = []
    for i in range(2):
        raw = mic_pipeline_config(tmp_path / f"r{i}", num_chunks=12,
                                  faults=faults)
        for edge in raw["edges"]:
            if edge["to"] in ("se", "ptn"):
                edge["transport"] = transport
        reports.append(run_config(raw)[1])
    assert reports[0].merge_logs == reports[1].merge_logs
    assert reports[0].buffer_counters == reports[1].buffer_counters
    assert reports[0].buffer_counters["ptn"].discarded == 4
    assert all(c.stale == 0 for c in reports[0].buffer_counters.values())
    return reports[0]


def test_all_local_runs_with_faults_repeat_their_counters(tmp_path):
    """On local edges the loop delivers in one order, so even the split
    of lost chunks between discarded and stale repeats."""
    runs_with_faults(tmp_path, "local")


def test_tcp_runs_with_faults_repeat_their_counters(tmp_path):
    """A TCP send delivers where a local send would, so across TCP edges
    the counters repeat too, and equal the all-local ones."""
    tcp = runs_with_faults(tmp_path / "tcp", "tcp::0")
    local = runs_with_faults(tmp_path / "local", "local")
    assert tcp.merge_logs == local.merge_logs
    assert tcp.buffer_counters == local.buffer_counters


def two_mic_config(out_dir):
    """Two microphones joined at ptn, ``mic_a -> cochlea_a -> ptn`` and
    ``mic_b -> cochlea_b -> se -> ptn``, with a fault on each path."""
    processors = [
        {"name": f"mic_{x}", "kind": "mic_input", "params": {
            "sample_rate": 8000, "chunk_size": 1024, "num_chunks": 12,
            "seed": seed}}
        for x, seed in (("a", 3), ("b", 4))
    ] + [
        {"name": f"cochlea_{x}", "kind": "gammachirp_filterbank", "params": {
            "channels": 64, "f_min": 100, "f_max": 1500, "impulse_ms": 50}}
        for x in "ab"
    ] + [
        {"name": "se", "kind": "structure_extractor",
         "params": {"w_t": 40, "w_s": 3}},
        {"name": "ptn", "kind": "ptn", "params": {
            "block_dt": 100, "block_df": 8, "theta": 0.96, "beta": 0.02}},
        {"name": "out", "kind": "file_writer",
         "params": {"directory": str(out_dir)}},
    ]
    edges = [
        {"from": "mic_a.snd", "to": "cochlea_a"},
        {"from": "mic_b.snd", "to": "cochlea_b"},
        {"from": "cochlea_a.E", "to": "ptn"},
        {"from": "cochlea_b.E", "to": "se"},
        {"from": "se.T", "to": "ptn"},
        {"from": "ptn.E_T", "to": "out"},
        {"from": "ptn.E_blocks", "to": "out"},
    ]
    faults = [
        {"kind": "drop_chunk", "edge": "se.T->ptn", "number": 2},
        {"kind": "link_down", "edge": "cochlea_a.E->ptn",
         "from_number": 5, "to_number": 7},
        {"kind": "link_down", "edge": "mic_b.snd->cochlea_b",
         "from_number": 9, "to_number": 9},
    ]
    return {"processors": processors, "edges": edges, "faults": faults}


def test_runs_with_several_sources_repeat_their_counters(tmp_path):
    """Sources are published in number order, in plan order within a
    number, so with two sources joined at ptn the split of lost chunks
    between discarded and stale repeats as well as the output bytes."""
    first = run_config(two_mic_config(tmp_path / "r0"))[1]
    assert sum(c.discarded + c.stale
               for c in first.buffer_counters.values()) > 0
    # in number order, not one source to its end first, which would make
    # ptn buffer 9 chunks of the first source
    assert first.max_occupancy["ptn"] == 1
    for i in range(1, 8):
        report = run_config(two_mic_config(tmp_path / f"r{i}"))[1]
        assert report.merge_logs == first.merge_logs
        assert report.buffer_counters == first.buffer_counters
        for name in ["ptn.E_T.tfc", "ptn.E_blocks.tfc"]:
            got = (tmp_path / f"r{i}" / name).read_bytes()
            assert got == (tmp_path / "r0" / name).read_bytes()


def test_skewed_sources_repeat_their_merges_and_stay_bounded(tmp_path):
    """An overflow on mic_a skips a number that mic_b emits.  The loop
    publishes in number order, so mic_a's later chunks do not run ahead
    of mic_b's: ptn holds one chunk at most, and merges, counters and
    bytes repeat across runs."""
    def config(out_dir):
        raw = two_mic_config(out_dir)
        raw["faults"].append({"kind": "overflow", "input": "mic_a",
                              "number": 3})
        return raw

    first = run_config(config(tmp_path / "r0"))[1]
    assert 3 not in {e.number for e in first.merge_logs["ptn"]}
    assert first.max_occupancy["ptn"] == 1
    for i in range(1, 4):
        report = run_config(config(tmp_path / f"r{i}"))[1]
        assert report.merge_logs == first.merge_logs
        assert report.buffer_counters == first.buffer_counters
        assert report.max_occupancy == first.max_occupancy
        for name in ["ptn.E_T.tfc", "ptn.E_blocks.tfc"]:
            got = (tmp_path / f"r{i}" / name).read_bytes()
            assert got == (tmp_path / "r0" / name).read_bytes()


INTO_TWO_MIC_PTN = ("cochlea_a.E->ptn", "se.T->ptn")
two_mic_fault_events = st.one_of(
    st.builds(lambda edge, n: {"kind": "drop_chunk", "edge": edge,
                               "number": n},
              st.sampled_from(INTO_TWO_MIC_PTN), fault_numbers),
    st.builds(lambda edge, a, b: {"kind": "link_down", "edge": edge,
                                  "from_number": min(a, b),
                                  "to_number": max(a, b)},
              st.sampled_from(INTO_TWO_MIC_PTN), fault_numbers,
              fault_numbers),
    st.builds(lambda mic, n: {"kind": "overflow", "input": mic, "number": n},
              st.sampled_from(["mic_a", "mic_b"]), fault_numbers),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(two_mic_fault_events, max_size=6))
def test_two_sources_merge_exactly_the_numbers_no_fault_hit(faults):
    """Overflows on either microphone and drops and outages into ptn, on
    the 12-chunk two-microphone graph: ptn merges every number that both
    microphones emitted and neither edge into it lost, holds at most one
    chunk however the overflows skew the two sources, and counts every
    arrival once, as part of a completed set or as a loss."""
    with tempfile.TemporaryDirectory() as out:
        raw = two_mic_config(Path(out))
        raw["faults"] = faults
        _, report = run_config(raw)
    emitted = {mic: set(range(12)) - {
        f["number"] for f in faults
        if f["kind"] == "overflow" and f["input"] == mic}
        for mic in ("mic_a", "mic_b")}
    arriving = [emitted["mic_a"] - lost_numbers(faults, "cochlea_a.E->ptn"),
                emitted["mic_b"] - lost_numbers(faults, "se.T->ptn")]
    assert [e.number for e in report.merge_logs["ptn"]] == sorted(
        arriving[0] & arriving[1])
    assert report.max_occupancy["ptn"] <= 1
    c = report.buffer_counters["ptn"]
    assert 2 * c.completed + c.discarded + c.stale == sum(map(len, arriving))
    assert c.too_short == 0


def test_each_number_is_consumed_before_the_next_is_pulled(tmp_path):
    """Two sources into one sink: both chunks numbered n reach the sink
    before either source is asked for chunk n + 1.  So a paced source,
    whose pull waits until its next chunk is due, never holds up the
    other source's chunk of the number already pulled."""
    n_chunks = 6
    names = ("mic0", "mic1")
    plan = validate_graph(config_from_dict({
        "processors": [
            {"name": name, "kind": "mic_input", "params": {
                "sample_rate": 8000, "chunk_size": 64,
                "num_chunks": n_chunks, "seed": seed}}
            for seed, name in enumerate(names)
        ] + [{"name": "out", "kind": "file_writer",
              "params": {"directory": str(tmp_path)}}],
        "edges": [{"from": f"{name}.snd", "to": "out"} for name in names],
    }))
    events = []

    def recorded(name, chunks):
        def asked():
            it = chunks()
            while True:
                events.append(("ask", name))
                chunk = next(it, None)
                if chunk is None:
                    return
                yield chunk
        return asked

    for name in names:
        inst = plan.instances[name]
        inst.chunks = recorded(name, inst.chunks)
    out = plan.instances["out"]
    consume = out.consume

    def recorded_consume(chunk):
        events.append(("consume", chunk.source_key[0], chunk.number))
        consume(chunk)

    out.consume = recorded_consume
    run_plan(plan)
    asked, consumed = {}, {}
    for index, (kind, name, *number) in enumerate(events):
        if kind == "ask":
            count = sum(1 for key in asked if key[0] == name)
            asked[name, count] = index
        else:
            consumed[name, number[0]] = index
    assert len(consumed) == 2 * n_chunks
    for n in range(n_chunks - 1):
        assert max(consumed[name, n] for name in names) < min(
            asked[name, n + 1] for name in names)


def test_transport_failing_at_set_up_closes_the_links_made(tmp_path,
                                                          monkeypatch):
    """A second TCP edge whose port another socket holds fails the run
    before it starts; the first edge's sockets are closed."""
    made = []

    class RecordedLink(_TcpLink):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runtime, "_TcpLink", RecordedLink)
    with socket.create_server(("127.0.0.1", 0)) as held:
        raw = mic_pipeline_config(tmp_path / "out")
        for edge in raw["edges"]:
            if edge["from"] == "cochlea.E" and edge["to"] == "se":
                edge["transport"] = "tcp::0"
            elif edge["from"] == "se.T":
                edge["transport"] = f"tcp:127.0.0.1:{held.getsockname()[1]}"
        plan = validate_graph(config_from_dict(raw))
        with pytest.raises(IoError, match="se.T->ptn"):
            run_plan(plan)
    assert len(made) == 1
    sockets = [v for v in vars(made[0]).values() if isinstance(v, socket.socket)]
    assert sockets and all(s.fileno() == -1 for s in sockets)


def test_two_edges_on_one_fixed_port_run(tmp_path):
    """A link's listener closes once its connection is accepted, so the
    next edge can listen on the same port."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    local, fixed = tmp_path / "local", tmp_path / "fixed"
    run_config(mic_pipeline_config(local))
    raw = mic_pipeline_config(fixed)
    for edge in raw["edges"]:
        if edge["to"] in ("se", "ptn"):
            edge["transport"] = f"tcp:127.0.0.1:{port}"
            edge["wire_dtype"] = "<f8"
    run_config(raw)
    for name in ["ptn.E_T.tfc", "ptn.E_blocks.tfc"]:
        assert (fixed / name).read_bytes() == (local / name).read_bytes()


class Failure(TFStreamError):
    """What a failing processor raises."""


def fail(processor, merged):
    """A ``process`` that fails on every chunk."""
    raise Failure(f"{processor.name} fails on chunk {merged.number}")


@pytest.mark.parametrize("transport", ["local", "tcp::0"])
def test_failing_processor_ends_the_run(tmp_path, monkeypatch, transport):
    """A failure on the first chunk of a 60-chunk run ends the run:
    run_plan returns and raises the failure."""
    monkeypatch.setattr(StructureExtractor, "process", fail)
    raw = mic_pipeline_config(tmp_path / "out", num_chunks=60)
    for edge in raw["edges"]:
        if edge["from"] in ("cochlea.E", "se.T"):
            edge["transport"] = transport
    plan = validate_graph(config_from_dict(raw))
    raised = []

    def run():
        with pytest.raises(Failure):
            run_plan(plan)
        raised.append(True)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "run_plan did not return after a failure"
    assert raised


def test_a_failure_stops_pulling_the_sources(tmp_path, monkeypatch):
    """After the first failure the loop pulls nothing more: a run that
    fails on its first chunk pulls one chunk of 60, still closes its
    sink, and raises the failure."""
    monkeypatch.setattr(StructureExtractor, "process", fail)
    raw = mic_pipeline_config(tmp_path / "out", num_chunks=60)
    plan = validate_graph(config_from_dict(raw))
    mic, out = plan.instances["mic"], plan.instances["out"]
    chunks, close = mic.chunks, out.close
    pulled, closed = [], []

    def counted_chunks():
        for chunk in chunks():
            pulled.append(chunk.number)
            yield chunk

    mic.chunks = counted_chunks
    out.close = lambda: closed.append(close())
    with pytest.raises(Failure):
        run_plan(plan)
    assert pulled == [0]
    assert closed


def test_many_sources_feed_one_loop(tmp_path):
    """Four sources pulled in number order into one sink: every chunk of
    every source reaches the sink once, in order."""
    n_sources, n_chunks = 4, 40
    raw = {
        "processors": [
            {"name": f"mic{i}", "kind": "mic_input", "params": {
                "sample_rate": 8000, "chunk_size": 64,
                "num_chunks": n_chunks, "seed": i}}
            for i in range(n_sources)
        ] + [{"name": "out", "kind": "file_writer",
              "params": {"directory": str(tmp_path)}}],
        "edges": [{"from": f"mic{i}.snd", "to": "out"}
                  for i in range(n_sources)],
    }
    plan = validate_graph(config_from_dict(raw))
    reports = []
    worker = threading.Thread(
        target=lambda: reports.append(run_plan(plan)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "run_plan did not return"
    assert reports[0].written == {
        (f"mic{i}", "snd"): n_chunks for i in range(n_sources)}
    for i in range(n_sources):
        _, records = read_chunk_file(tmp_path / f"mic{i}.snd.tfc")
        assert [r["number"] for r in records] == list(range(n_chunks))


def test_source_is_never_ahead_of_the_loop(tmp_path):
    """The loop pulls a chunk only once the one before it has gone all the
    way through: when the source yields chunk n, chunks 0 to n-1 have all
    been consumed."""
    plan = validate_graph(config_from_dict({
        "processors": [
            {"name": "mic", "kind": "mic_input", "params": {
                "sample_rate": 8000, "chunk_size": 64, "num_chunks": 200}},
            {"name": "out", "kind": "file_writer",
             "params": {"directory": str(tmp_path)}},
        ],
        "edges": [{"from": "mic.snd", "to": "out"}],
    }))
    mic, out = plan.instances["mic"], plan.instances["out"]
    consumed, ahead = [], []
    consume, chunks = out.consume, mic.chunks

    def counting_consume(chunk):
        consume(chunk)
        consumed.append(chunk.number)

    def watched_chunks():
        for chunk in chunks():
            ahead.append(chunk.number - len(consumed))
            yield chunk

    out.consume, mic.chunks = counting_consume, watched_chunks
    run_plan(plan)
    assert len(consumed) == 200
    assert ahead == [0] * 200

"""Command line interface on the two shipped configurations."""

import json
import os
import re
import socket
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import miswired_config, synth_tone_noise, write_wav
from tfstream.chunkfile import (
    ChunkFileWriter,
    concatenate_payloads,
    read_chunk_file,
)
from tfstream.chunks import AlignmentParams, Continuity, DataChunk, ZERO_ALIGNMENT
from tfstream.cli import main
from tfstream.errors import IoError
from tfstream.graph import load_config, validate_graph
from tfstream.runtime import run_plan

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MIC = str(CONFIGS / "mic_pipeline.yaml")
SRC = Path(__file__).resolve().parent.parent / "src"


def test_validate_file_pipeline(tmp_path, capsys):
    wav = write_wav(tmp_path / "in.wav", 8000, synth_tone_noise(8000, 1.0))
    code = main(["validate", "--config", str(CONFIGS / "file_pipeline.yaml"),
                 "--input", str(wav)])
    assert code == 0
    assert "configuration valid" in capsys.readouterr().out


def test_validate_mic_pipeline(capsys):
    assert main(["validate", "--config", MIC]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_validate_rejects_a_transform_wired_outside_its_contract(
        tmp_path, capsys):
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(
        miswired_config("ptn_fed_two_tracts", str(tmp_path / "out"))))
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: processor 'ptn' takes")


def test_run_with_stats_writes_files_and_one_line_per_merging_processor(
        tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", MIC, "--output", str(out), "--stats"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "ptn.E_T.tfc", "ptn.E_blocks.tfc"]
    printed = capsys.readouterr().out
    merges = re.findall(r"^(\w+): \d+ merges$", printed, flags=re.MULTILINE)
    assert sorted(merges) == ["cochlea", "ptn", "resampler", "se"]
    # each merging processor's buffer counters, sets too short included
    assert re.findall(r"stale \d+, too short (\d+)$", printed,
                      flags=re.MULTILINE) == ["0"] * 4


def test_oracle_writes_one_array_per_transform_feature(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", MIC, "--output", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cochlea.E.npy", "ptn.E_T.npy", "ptn.E_T_valid.npy",
        "ptn.E_blocks.npy", "resampler.snd.npy", "se.T.npy"]
    assert np.load(out / "ptn.E_T.npy").ndim == 2


def test_a_cut_chunk_file_reads_to_its_last_record_or_fails_clearly(
        tmp_path, capsys):
    """A two-record file cut at every byte offset: a cut on a record
    boundary reads the records before it, any other cut raises IoError,
    and ``export`` prints an error instead of a traceback."""
    def file_of(count):
        path = tmp_path / f"{count}.tfc"
        writer = ChunkFileWriter(path, ("ptn", "E_T"), 4000.0,
                                 np.geomspace(100.0, 1500.0, 3), ZERO_ALIGNMENT)
        for number, columns in enumerate([5, 2][:count]):
            writer.append(DataChunk(
                number=number, source_key=("ptn", "E_T"),
                payload=np.full((3, columns), float(number)),
                continuity=Continuity.WITHPREVIOUS))
        writer.close()
        return path.read_bytes()

    boundaries = {len(file_of(count)): count for count in range(3)}
    data = file_of(2)
    header, _ = read_chunk_file(tmp_path / "2.tfc")
    cut = tmp_path / "cut.tfc"
    for size in range(len(data) + 1):
        cut.write_bytes(data[:size])
        if size in boundaries:
            got_header, records = read_chunk_file(cut)
            assert got_header == header
            assert [r["number"] for r in records] == list(range(boundaries[size]))
        else:
            with pytest.raises(IoError):
                read_chunk_file(cut)
    cut.write_bytes(data[:-1])
    assert main(["export", "--chunkfile", str(cut),
                 "--csv", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def written_chunk_file(path, shapes=((3, 5),)):
    """A ``ptn.E_T`` file of one record per shape, with three channels
    when the shapes are 2-D; returns its bytes."""
    axis = np.geomspace(100.0, 1500.0, 3) if len(shapes[0]) == 2 else None
    writer = ChunkFileWriter(path, ("ptn", "E_T"), 4000.0, axis,
                             AlignmentParams(1, 2, 0, 1))
    for number, shape in enumerate(shapes):
        writer.append(DataChunk(
            number=number, source_key=("ptn", "E_T"),
            payload=np.full(shape, float(number)),
            continuity=Continuity.WITHPREVIOUS))
    writer.close()
    return path.read_bytes()


def damaged_chunk_files(tmp_path):
    """Complete chunk files, each damaged in its header or its frame."""
    data = written_chunk_file(tmp_path / "good.tfc")
    (header_len,) = struct.unpack_from("<I", data, 4)
    frame = 8 + header_len
    header = json.loads(data[8:frame])

    def with_header(drop=None, **fields):
        raw = json.dumps({k: v for k, v in {**header, **fields}.items()
                          if k != drop}).encode("utf-8")
        return b"TFCF" + struct.pack("<I", len(raw)) + raw + data[frame:]

    def with_frame(version=4, continuity=int(Continuity.WITHPREVIOUS),
                   columns=5):
        # the written frame with its head changed and its CRC recomputed
        body = (data[frame + 6 : frame + 14] + struct.pack("<iI", continuity, columns)
                + data[frame + 22 : -4])
        return (data[:frame] + b"TFSB" + struct.pack("<H", version) + body
                + struct.pack("<I", zlib.crc32(body)))

    flipped = bytearray(data)
    flipped[frame + 22] ^= 0x01
    return {
        "not json": b"TFCF" + struct.pack("<I", 5) + b"{bad}",
        "not an object": b"TFCF" + struct.pack("<I", 2) + b"[]",
        "no keys": b"TFCF" + struct.pack("<I", 2) + b"{}",
        "no alignment": with_header(drop="alignment"),
        "bad dtype": with_header(dtype="<i9"),
        "integer dtype": with_header(dtype="<i8"),
        "alignment not a list": with_header(alignment="1201"),
        "alignment of three": with_header(alignment=[1, 2, 0]),
        "alignment negative": with_header(alignment=[1, -2, 0, 1]),
        "alignment fractional": with_header(alignment=[1, 2.5, 0, 1]),
        "alignment over the cap": with_header(alignment=[2**31, 2, 0, 1]),
        "alignment of strings": with_header(alignment=["1", "2", "0", "1"]),
        "channel_freqs a number": with_header(channel_freqs=3),
        "channel_freqs of strings": with_header(channel_freqs=["a", "b", "c"]),
        "flipped payload byte": bytes(flipped),
        "unknown continuity": with_frame(continuity=7),
        "invalid continuity": with_frame(continuity=int(Continuity.INVALID)),
        "version 3": with_frame(version=3),
        # time extents that declare 51 GB, 1.5 MB and 103 GB of payload,
        # each more than the file holds
        "extent 2**31": with_frame(columns=2**31),
        "extent 2**16": with_frame(columns=2**16),
        "extent 2**32 - 1": with_frame(columns=2**32 - 1),
    }


def test_a_damaged_chunk_file_fails_clearly(tmp_path, capsys):
    """Damage inside a complete file raises IoError, and ``export``
    prints an error and exits with 1 instead of a traceback."""
    for case, data in damaged_chunk_files(tmp_path).items():
        path = tmp_path / "damaged.tfc"
        path.write_bytes(data)
        with pytest.raises(IoError):
            read_chunk_file(path)
        assert main(["export", "--chunkfile", str(path),
                     "--csv", str(tmp_path / "x.csv")]) == 1, case
        assert capsys.readouterr().err.startswith("error: "), case


def test_a_flipped_payload_byte_is_an_error_naming_its_record(tmp_path):
    """A record carries a CRC: one flipped bit in the last record's
    payload raises IoError naming the byte offset where that record
    starts, instead of reading back as data."""
    path = tmp_path / "k.tfc"
    data = bytearray(written_chunk_file(path, [(3, 5), (3, 2)]))
    last = len(data) - (26 + 3 * 2 * 8)
    data[-5] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(IoError, match=rf"damaged record at byte {last}: CRC"):
        read_chunk_file(path)


def test_a_file_in_the_record_format_before_wire_frames_is_refused(tmp_path):
    """A file written before records became wire frames, its header
    without ``alignment`` and each record with its own counters and
    extents, is an IoError, not data."""
    raw = json.dumps({"channel_freqs": None, "dtype": "<f8", "feature": "snd",
                      "producer": "mic", "sample_rate": 16000.0},
                     sort_keys=True).encode("utf-8")
    record = struct.pack("<Qi4IBI", 0, int(Continuity.NEWFILE), 0, 0, 0, 0, 1, 4)
    path = tmp_path / "mic.snd.tfc"
    path.write_bytes(b"TFCF" + struct.pack("<I", len(raw)) + raw + record
                     + np.arange(4.0).tobytes())
    with pytest.raises(IoError, match="header needs the keys"):
        read_chunk_file(path)


@pytest.mark.parametrize("command", [
    "export-missing-file", "export-directory", "export-to-directory",
    "run-into-a-file", "oracle-into-a-file"])
def test_a_file_system_error_is_one_error_line(tmp_path, capsys, command):
    """A chunk file that is missing or a directory, a CSV path that is a
    directory, and an output directory that is a regular file: each
    command exits with 1 and an error line naming the path."""
    written_chunk_file(tmp_path / "k.tfc")
    a_file = tmp_path / "not_a_dir"
    a_file.write_bytes(b"")
    argv, named = {
        "export-missing-file": (["export", "--chunkfile", "missing.tfc",
                                 "--csv", "x.csv"], "missing.tfc"),
        "export-directory": (["export", "--chunkfile", str(tmp_path),
                              "--csv", "x.csv"], str(tmp_path)),
        "export-to-directory": (["export", "--chunkfile", str(tmp_path / "k.tfc"),
                                 "--csv", str(tmp_path)], str(tmp_path)),
        "run-into-a-file": (["run", "--config", MIC, "--output", str(a_file)],
                            str(a_file)),
        "oracle-into-a-file": (["oracle", "--config", MIC,
                                "--output", str(a_file)], str(a_file)),
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("shapes, rows", [([(3, 5), (3, 2)], 3),
                                          ([(4,), (6,)], 1)],
                         ids=["2-D", "1-D"])
def test_export_writes_one_row_per_channel(tmp_path, capsys, shapes, rows):
    """``export`` writes one CSV row per channel, the records joined along
    time, and a 1-D file as one row; every value, NaN included, reads
    back exactly."""
    rng = np.random.default_rng(3)
    path, csv = tmp_path / "k.f.tfc", tmp_path / "k.f.csv"
    axis = np.geomspace(100.0, 1500.0, rows) if rows > 1 else None
    writer = ChunkFileWriter(path, ("k", "f"), 40.0, axis, ZERO_ALIGNMENT)
    for number, shape in enumerate(shapes):
        payload = rng.standard_normal(shape)
        payload[..., number] = np.nan
        writer.append(DataChunk(number=number, source_key=("k", "f"),
                                payload=payload,
                                continuity=Continuity.WITHPREVIOUS))
    writer.close()
    assert main(["export", "--chunkfile", str(path), "--csv", str(csv)]) == 0
    assert capsys.readouterr().out == f"wrote {csv}\n"
    got = np.loadtxt(csv, delimiter=",", ndmin=2)
    assert got.shape == (rows, sum(shape[-1] for shape in shapes))
    data = concatenate_payloads(read_chunk_file(path)[1])
    np.testing.assert_array_equal(got, data.reshape(rows, -1))


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    (b"RIFF", "not a readable WAV file"),
], ids=["directory", "four-byte-riff"])
def test_an_unreadable_wav_input_is_one_error_line(tmp_path, capsys,
                                                   content, message):
    """An ``--input`` that names a directory, or a file that holds only
    ``RIFF``, exits with 1 and an error line instead of a traceback."""
    path = tmp_path
    if content is not None:
        path = tmp_path / "in.wav"
        path.write_bytes(content)
    code = main(["validate", "--config", str(CONFIGS / "file_pipeline.yaml"),
                 "--input", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def tfstream_subprocess(*args):
    """``tfstream`` in a new interpreter in development mode, with an
    unclosed resource an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "tfstream.cli", *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("host", ["127.0.0.1", "192.0.2.1"],
                         ids=["port-in-use", "non-local-host"])
def test_a_tcp_edge_that_cannot_open_fails_with_one_error_line(tmp_path, host):
    """The mic config's TCP edge on a port another socket holds, or on an
    address of no local interface: ``run_plan`` raises IoError naming the
    edge and the address, and ``tfstream run`` exits with 1 and one error
    line, no traceback and no unclosed socket."""
    raw = yaml.safe_load(Path(MIC).read_text())
    with socket.create_server(("127.0.0.1", 0)) as held:
        port = held.getsockname()[1] if host == "127.0.0.1" else 0
        for edge in raw["edges"]:
            if edge["from"] == "se.T":
                edge["transport"] = f"tcp:{host}:{port}"
        config = tmp_path / "pipeline.yaml"
        config.write_text(yaml.safe_dump(raw))
        plan = validate_graph(load_config(str(config)))
        with pytest.raises(IoError,
                           match=rf"se\.T->ptn: cannot open {host}:{port}"):
            run_plan(plan)
        result = tfstream_subprocess("run", "--config", str(config),
                                     "--output", str(tmp_path / "out"))
    assert result.returncode == 1
    assert result.stderr.startswith("error: edge se.T->ptn: cannot open")
    assert "Traceback" not in result.stderr
    assert "ResourceWarning" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_a_wav_that_holds_no_samples_is_one_error_line(tmp_path):
    """A 44-byte header that declares 64,000 data bytes but holds none:
    ``tfstream run`` exits with 1 and one error line naming the file, no
    traceback, and creates no output directory."""
    path = tmp_path / "empty.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + 64000) + b"WAVE"
                     + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                     + b"data" + struct.pack("<I", 64000))
    assert path.stat().st_size == 44
    result = tfstream_subprocess(
        "run", "--config", str(CONFIGS / "file_pipeline.yaml"),
        "--input", str(path), "--output", str(tmp_path / "out"))
    assert result.returncode == 1
    errors = [line for line in result.stderr.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {path}: holds no samples"]
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()

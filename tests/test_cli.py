"""Command line interface on the two shipped configurations."""

import re
from pathlib import Path

import numpy as np

from conftest import synth_tone_noise, write_wav
from tfstream.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MIC = str(CONFIGS / "mic_pipeline.yaml")


def test_validate_file_pipeline(tmp_path, capsys):
    wav = write_wav(tmp_path / "in.wav", 8000, synth_tone_noise(8000, 1.0))
    code = main(["validate", "--config", str(CONFIGS / "file_pipeline.yaml"),
                 "--input", str(wav)])
    assert code == 0
    assert "configuration valid" in capsys.readouterr().out


def test_validate_mic_pipeline(capsys):
    assert main(["validate", "--config", MIC]) == 0
    assert "configuration valid" in capsys.readouterr().out


def test_run_with_stats_writes_files_and_one_line_per_merging_processor(
        tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", MIC, "--output", str(out), "--stats"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "ptn.E_T.tfc", "ptn.E_blocks.tfc"]
    merges = re.findall(r"^(\w+): \d+ merges$", capsys.readouterr().out,
                        flags=re.MULTILINE)
    assert sorted(merges) == ["cochlea", "ptn", "resampler", "se"]


def test_oracle_writes_one_array_per_transform_feature(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", MIC, "--output", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cochlea.E.npy", "ptn.E_T.npy", "ptn.E_T_valid.npy",
        "ptn.E_blocks.npy", "resampler.snd.npy", "se.T.npy"]
    assert np.load(out / "ptn.E_T.npy").ndim == 2

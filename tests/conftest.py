import numpy as np
import pytest
from scipy.io import wavfile


def synth_tone_noise(fs, seconds, tone_freq=440.0, tone_level=0.3,
                     noise_level=0.05, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(int(fs * seconds)) / fs
    return (tone_level * np.sin(2 * np.pi * tone_freq * t)
            + noise_level * rng.standard_normal(t.size))


def write_wav(path, fs, signal):
    wavfile.write(str(path), int(fs), (signal * 32767).astype(np.int16))
    return path


@pytest.fixture(scope="session")
def tone_wav(tmp_path_factory):
    """A 3 s tone-plus-noise WAV at 8 kHz, shared across tests."""
    path = tmp_path_factory.mktemp("wavs") / "tone.wav"
    return write_wav(path, 8000, synth_tone_noise(8000, 3.0))


@pytest.fixture(scope="session")
def noise_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "noise.wav"
    rng = np.random.default_rng(9)
    return write_wav(path, 8000, 0.1 * rng.standard_normal(8000 * 3))


def file_pipeline_config(wav_path, out_dir, chunk_size=1024, **overrides):
    """The file-processing pipeline: reader, resampler, filterbank,
    structure extractor, tonal-energy processor, file writer."""
    cfg = {
        "processors": [
            {"name": "reader", "kind": "wav_reader", "params": {
                "path": str(wav_path), "chunk_size": chunk_size,
                "calibration": {"seed": 7, "duration_s": 2.0, "level": 0.1}}},
            {"name": "resampler", "kind": "resampler", "params": {"factor": 2}},
            {"name": "cochlea", "kind": "gammachirp_filterbank", "params": {
                "channels": 64, "f_min": 100, "f_max": 1500, "impulse_ms": 50}},
            {"name": "se", "kind": "structure_extractor",
             "params": {"w_t": 40, "w_s": 3}},
            {"name": "ptn", "kind": "ptn",
             "params": {"block_dt": 100, "block_df": 8}},
            {"name": "out", "kind": "file_writer",
             "params": {"directory": str(out_dir)}},
        ],
        "edges": [
            {"from": "reader.snd", "to": "resampler"},
            {"from": "resampler.snd", "to": "cochlea"},
            {"from": "cochlea.E", "to": "se"},
            {"from": "cochlea.E", "to": "ptn"},
            {"from": "se.T", "to": "ptn"},
            {"from": "cochlea.E", "to": "out"},
            {"from": "se.T", "to": "out"},
            {"from": "ptn.E_T", "to": "out"},
            {"from": "ptn.E_T_valid", "to": "out"},
            {"from": "ptn.E_blocks", "to": "out"},
        ],
    }
    cfg.update(overrides)
    return cfg


def mic_pipeline_config(out_dir, num_chunks=8, chunk_size=1024, faults=None,
                        theta=0.96, beta=0.02):
    """The live pipeline: microphone source, no calibration chunk, so the
    sigmoid parameters are configured explicitly."""
    return {
        "processors": [
            {"name": "mic", "kind": "mic_input", "params": {
                "sample_rate": 8000, "chunk_size": chunk_size,
                "num_chunks": num_chunks, "seed": 3}},
            {"name": "resampler", "kind": "resampler", "params": {"factor": 2}},
            {"name": "cochlea", "kind": "gammachirp_filterbank", "params": {
                "channels": 64, "f_min": 100, "f_max": 1500, "impulse_ms": 50}},
            {"name": "se", "kind": "structure_extractor",
             "params": {"w_t": 40, "w_s": 3}},
            {"name": "ptn", "kind": "ptn", "params": {
                "block_dt": 100, "block_df": 8,
                "theta": theta, "beta": beta}},
            {"name": "out", "kind": "file_writer",
             "params": {"directory": str(out_dir)}},
        ],
        "edges": [
            {"from": "mic.snd", "to": "resampler"},
            {"from": "resampler.snd", "to": "cochlea"},
            {"from": "cochlea.E", "to": "se"},
            {"from": "cochlea.E", "to": "ptn"},
            {"from": "se.T", "to": "ptn"},
            {"from": "ptn.E_T", "to": "out"},
            {"from": "ptn.E_blocks", "to": "out"},
        ],
        "faults": faults or [],
    }


#: Wirings outside a transform's input contract, and the transform that
#: refuses them; see ``miswired_config``.
MISWIRINGS = [
    ("energy_into_resampler", "r2"),
    ("filterbank_fed_two_keys", "cochlea"),
    ("ptn_without_tract", "ptn"),
    ("ptn_fed_two_tracts", "ptn"),
]


def miswired_config(case, out_dir):
    """The live pipeline with one transform wired outside its input
    contract: a resampler fed filterbank energy, a filterbank fed two
    series at one rate, a ptn without a tract, or a ptn fed two."""
    raw = mic_pipeline_config(out_dir)
    processors, edges = raw["processors"], raw["edges"]
    if case == "energy_into_resampler":
        processors.append(
            {"name": "r2", "kind": "resampler", "params": {"factor": 2}})
        edges += [{"from": "cochlea.E", "to": "r2"},
                  {"from": "r2.snd", "to": "out"}]
    elif case == "filterbank_fed_two_keys":
        processors.append(
            {"name": "r2", "kind": "resampler", "params": {"factor": 2}})
        edges += [{"from": "mic.snd", "to": "r2"},
                  {"from": "r2.snd", "to": "cochlea"}]
    elif case == "ptn_without_tract":
        edges.remove({"from": "se.T", "to": "ptn"})
    else:
        processors.append({"name": "se2", "kind": "structure_extractor",
                           "params": {"w_t": 40, "w_s": 3}})
        edges += [{"from": "cochlea.E", "to": "se2"},
                  {"from": "se2.T", "to": "ptn"}]
    return raw

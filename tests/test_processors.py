"""Processor kinds: sources, resampler, filterbank, scores, blocks."""

import numpy as np
import pytest

from conftest import (
    file_pipeline_config, mic_pipeline_config, synth_tone_noise, write_wav)
from tfstream.alignment import DropCounts
from tfstream.chunkfile import read_chunk_file
from tfstream.chunks import AlignmentParams, Continuity, DataChunk, ZERO_ALIGNMENT
from tfstream.errors import (
    ConfigError,
    EmptyResult,
    IoError,
    UnsupportedFormat,
)
from tfstream.graph import config_from_dict, validate_graph
from tfstream.merge import MergedChunk, MergeState, complete_merge
from tfstream.runtime import run_plan
from tfstream.processors import (
    FeatureData,
    GammaChirpFilterbank,
    MicInput,
    PTNProcessor,
    Processor,
    Resampler,
    StructureExtractor,
    WavReader,
    registered_kinds,
    resolve_kind,
)
from tfstream.processors.filterbank import erb_bandwidth, gammachirp_ir
from tfstream.processors.ptn import block_averages, logistic
from tfstream.processors.resampler import design_lowpass
from tfstream.processors.sources import calibration_noise
from tfstream.processors.structure import _horizontal_valid, _vertical_valid


def test_registry_contains_all_kinds():
    kinds = registered_kinds()
    for kind in ("wav_reader", "mic_input", "resampler",
                 "gammachirp_filterbank", "structure_extractor", "ptn",
                 "file_writer"):
        assert kind in kinds
        assert resolve_kind(kind).kind == kind


#: drop counts of a key whose counters are the merged ones
NO_DROPS = DropCounts(0, 0, 0)


def as_merged(processor_name, key, payload, continuity):
    """Wrap one array as the merged input set of a single-input processor."""
    chunk = DataChunk(
        number=0, source_key=key, payload=payload, continuity=continuity,
    )
    merged, _ = complete_merge(MergeState({key: NO_DROPS}), {key: chunk}, 0)
    return merged


def designed_bank(params, rate):
    """A filterbank designed at ``rate``, as graph validation prepares one
    fed by a source."""
    fb = GammaChirpFilterbank("fb", params)
    fb.prepare(rate, ZERO_ALIGNMENT, None)
    return fb


# --- sources ------------------------------------------------------------

def test_wav_reader_chunk_sequence(tmp_path):
    path = write_wav(tmp_path / "t.wav", 8000, synth_tone_noise(8000, 0.5))
    reader = WavReader("r", {"path": str(path), "chunk_size": 1000})
    chunks = list(reader.chunks())
    assert [c.continuity for c in chunks] == [
        Continuity.NEWFILE, Continuity.WITHPREVIOUS, Continuity.WITHPREVIOUS,
        Continuity.LAST,
    ]
    assert [c.number for c in chunks] == [0, 1, 2, 3]
    assert all(c.time_length == 1000 for c in chunks)


def test_wav_reader_short_final_chunk(tmp_path):
    path = write_wav(tmp_path / "t.wav", 8000, np.zeros(2500))
    reader = WavReader("r", {"path": str(path), "chunk_size": 1000})
    chunks = list(reader.chunks())
    assert chunks[-1].time_length == 500
    assert chunks[-1].continuity is Continuity.LAST


def test_wav_reader_single_chunk_file_is_newfile(tmp_path):
    path = write_wav(tmp_path / "t.wav", 8000, np.zeros(300))
    reader = WavReader("r", {"path": str(path), "chunk_size": 1000})
    (only,) = list(reader.chunks())
    assert only.continuity is Continuity.NEWFILE


def test_wav_reader_calibration_chunk_first(tmp_path):
    path = write_wav(tmp_path / "t.wav", 8000, np.zeros(2000))
    reader = WavReader("r", {
        "path": str(path), "chunk_size": 1000,
        "calibration": {"seed": 5, "duration_s": 0.25},
    })
    chunks = list(reader.chunks())
    assert chunks[0].continuity is Continuity.CALIBRATION
    assert chunks[0].number == 0
    assert chunks[0].time_length == 2000
    assert chunks[1].number == 1


def test_wav_reader_missing_file():
    with pytest.raises(IoError):
        WavReader("r", {"path": "/nonexistent/x.wav", "chunk_size": 100})


def test_wav_reader_rejects_unsupported_dtype(tmp_path):
    from scipy.io import wavfile
    path = tmp_path / "t.wav"
    wavfile.write(str(path), 8000, np.zeros(100, dtype=np.int32))
    with pytest.raises(UnsupportedFormat):
        WavReader("r", {"path": str(path), "chunk_size": 100})


def test_calibration_noise_deterministic():
    np.testing.assert_array_equal(
        calibration_noise(11, 500), calibration_noise(11, 500)
    )
    assert not np.array_equal(calibration_noise(11, 500),
                              calibration_noise(12, 500))


def test_mic_input_sequence_without_faults():
    mic = MicInput("m", {"num_chunks": 4, "chunk_size": 256, "seed": 2})
    chunks = list(mic.chunks())
    assert [c.continuity for c in chunks] == [
        Continuity.DISCONTINUOUS, Continuity.WITHPREVIOUS,
        Continuity.WITHPREVIOUS, Continuity.LAST,
    ]


def test_mic_overflow_keeps_invalid_chunk_unpublished():
    mic = MicInput("m", {"num_chunks": 6, "chunk_size": 256, "seed": 2})
    mic.set_overflow_numbers({3})
    chunks = list(mic.chunks())
    assert [c.number for c in chunks] == [0, 1, 2, 4, 5]
    # successor keeps its natural flag; the number gap carries the signal
    assert chunks[3].continuity is Continuity.WITHPREVIOUS


def test_mic_signal_content_is_independent_of_overflow():
    plain = MicInput("m", {"num_chunks": 5, "chunk_size": 128, "seed": 4})
    faulty = MicInput("m", {"num_chunks": 5, "chunk_size": 128, "seed": 4})
    faulty.set_overflow_numbers({2})
    by_number = {c.number: c for c in plain.chunks()}
    for c in faulty.chunks():
        np.testing.assert_array_equal(c.payload, by_number[c.number].payload)


# --- resampler ----------------------------------------------------------

def test_design_lowpass_unit_dc_gain():
    for factor in (1, 2, 4):
        h = design_lowpass(127, factor)
        assert abs(h.sum() - 1.0) < 1e-12


def test_design_lowpass_length_one_is_identity():
    np.testing.assert_array_equal(design_lowpass(1, 2), np.ones(1))


def test_design_lowpass_rejects_even_length():
    with pytest.raises(ValueError):
        design_lowpass(126, 2)


def test_resampler_rejects_non_integer_rate(tmp_path):
    """A factor that does not divide the input rate is a ConfigError
    naming the resampler, raised by validation."""
    raw = mic_pipeline_config(tmp_path)
    raw["processors"][1]["params"]["factor"] = 3
    with pytest.raises(ConfigError, match="processor 'resampler': factor 3 "
                                          "does not divide sample rate 8000"):
        validate_graph(config_from_dict(raw))


def test_resampler_chunked_equals_unchunked():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    key = ("src", "snd")

    whole = Resampler("r", {"factor": 2})
    ref = whole.process(
        as_merged("r", key, x, Continuity.DISCONTINUOUS)
    )["snd"].payload

    chunked = Resampler("r", {"factor": 2})
    parts = []
    state = MergeState({key: NO_DROPS}, chunked.history)
    for i, continuity in zip(range(4), [Continuity.DISCONTINUOUS] + 3 * [
            Continuity.WITHPREVIOUS]):
        chunk = DataChunk(
            number=i, source_key=key, payload=x[i * 1024:(i + 1) * 1024],
            continuity=continuity,
        )
        merged, state = complete_merge(state, {key: chunk}, i)
        parts.append(chunked.process(merged)["snd"].payload)
    np.testing.assert_array_equal(np.concatenate(parts), ref)


@pytest.mark.parametrize("factor, fir_length", [(2, 127), (4, 31)])
def test_resampler_minimum_chunk_after_a_discontinuity(factor, fir_length):
    """drop * factor samples yield nothing, one more yields one output,
    and the error names that minimum."""
    r = Resampler("r", {"factor": factor, "fir_length": fir_length})
    minimum = r.drop * factor + 1
    assert minimum == {2: 127, 4: 33}[factor]
    x = np.random.default_rng(2).standard_normal(minimum)
    with pytest.raises(EmptyResult, match=f"minimum chunk length is {minimum} "):
        r.process(as_merged("r", ("src", "snd"), x[:-1],
                            Continuity.DISCONTINUOUS))
    out = r.process(as_merged("r", ("src", "snd"), x,
                              Continuity.DISCONTINUOUS))["snd"].payload
    assert out.shape == (1,)


def test_resampler_declared_drop_is_honest():
    """The first declared-dropped output after a discontinuity really does
    depend on missing history: providing that history changes it."""
    rng = np.random.default_rng(1)
    past = rng.standard_normal(1024)
    x = rng.standard_normal(1024)
    key = ("src", "snd")

    r1 = Resampler("r", {"factor": 2})
    without = r1.process(
        as_merged("r", key, x, Continuity.DISCONTINUOUS)
    )["snd"].payload

    r2 = Resampler("r", {"factor": 2})
    r2.process(as_merged("r", key, past, Continuity.DISCONTINUOUS))
    state = MergeState({key: NO_DROPS}, r2.history)
    chunk0 = DataChunk(number=0, source_key=key, payload=past,
                       continuity=Continuity.DISCONTINUOUS)
    _, state = complete_merge(state, {key: chunk0}, 0)
    chunk1 = DataChunk(number=1, source_key=key, payload=x,
                       continuity=Continuity.WITHPREVIOUS)
    merged, _ = complete_merge(state, {key: chunk1}, 1)
    with_history = r2.process(merged)["snd"].payload

    drop = r1.drop
    # outputs the first run kept agree exactly with the historied run
    np.testing.assert_array_equal(without, with_history[drop:])
    # and at least the first withheld output would have been wrong
    assert with_history.shape[-1] == without.shape[-1] + drop


# --- gammachirp filterbank ----------------------------------------------

def test_erb_bandwidth_values():
    assert erb_bandwidth(0) == pytest.approx(24.7)
    assert erb_bandwidth(1000) == pytest.approx(24.7 + 108.0)


def test_gammachirp_ir_unit_peak_gain():
    for cf in (200.0, 500.0, 1200.0):
        h = gammachirp_ir(cf, 4000.0, 200)
        spectrum = np.abs(np.fft.fft(h, 8192))
        assert spectrum.max() == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("params", [
    # (bank parameters, design rate)
    # the shipped bank, 64 channels at 8 kHz after the resampler
    ({"channels": 64, "f_min": 100, "f_max": 1500, "impulse_ms": 50}, 8000.0),
    ({"channels": 64, "f_min": 100, "f_max": 1500, "impulse_ms": 50,
      "chirp": -2.0}, 4000.0),
    # the benchmark's wire_faults bank: 8 channels, 4 ms responses
    ({"channels": 8, "f_min": 200, "f_max": 2000, "impulse_ms": 4}, 8000.0),
    ({"channels": 16, "f_min": 100, "f_max": 8000, "impulse_ms": 20}, 22050.0),
])
def test_filterbank_designs_every_channel_as_the_scalar_response(params):
    """The bank is designed in one batch; each channel's taps equal the
    scalar gammachirp_ir of its centre frequency bit for bit."""
    params, rate = params
    fb = designed_bank(params, rate)
    bank = gammachirp_ir(fb.center_freqs, rate, fb.impulse_length,
                         fb.order, chirp=fb.chirp)
    for c, cf in enumerate(fb.center_freqs):
        h = gammachirp_ir(cf, rate, fb.impulse_length, fb.order,
                          chirp=fb.chirp)
        assert h.shape == (fb.impulse_length,)
        assert np.array_equal(bank[c], h)
        assert np.array_equal(fb._h_real[c], h.real)
        assert np.array_equal(fb._h_imag[c], h.imag)


@pytest.mark.parametrize("pipeline", ["mic", "file"])
def test_file_writer_headers_hold_the_plan_rates_and_axes(
        tone_wav, tmp_path, pipeline):
    """Chunks carry neither rate nor axis: every chunk file's header
    holds its key's rate and axis as the plan resolved them."""
    out = tmp_path / "out"
    raw = (mic_pipeline_config(out) if pipeline == "mic"
           else file_pipeline_config(tone_wav, out))
    plan = validate_graph(config_from_dict(raw))
    report = run_plan(plan)
    assert sorted(report.written) == sorted(plan.in_keys["out"])
    for key in report.written:
        header, _ = read_chunk_file(out / f"{key[0]}.{key[1]}.tfc")
        axis = plan.freqs[key]
        assert header["sample_rate"] == plan.rates[key]
        assert header["channel_freqs"] == (
            None if axis is None else axis.tolist())


def test_filterbank_white_noise_energy_matches_filter_norm():
    fb = designed_bank({
        "channels": 16, "f_min": 300, "f_max": 1500, "impulse_ms": 25,
    }, 4000)
    rng = np.random.default_rng(3)
    sigma = 0.2
    noise = sigma * rng.standard_normal(8 * 4000)
    key = ("src", "snd")
    out = fb.process(
        as_merged("fb", key, noise, Continuity.DISCONTINUOUS)
    )["E"].payload
    norms = (fb._h_real ** 2 + fb._h_imag ** 2).sum(axis=1)
    measured = out.mean(axis=1)
    expected = sigma ** 2 * norms
    assert np.all(np.abs(measured / expected - 1) < 0.1)


def test_filterbank_tone_peaks_at_matching_channel():
    fb = designed_bank({
        "channels": 32, "f_min": 100, "f_max": 1500, "impulse_ms": 50,
    }, 4000)
    t = np.arange(4000) / 4000.0
    tone = np.sin(2 * np.pi * 440.0 * t)
    out = fb.process(
        as_merged("fb", ("s", "snd"), tone, Continuity.DISCONTINUOUS)
    )["E"].payload
    peak = int(np.argmax(out.mean(axis=1)))
    nearest = int(np.argmin(np.abs(fb.center_freqs - 440.0)))
    assert abs(peak - nearest) <= 1


def test_filterbank_rejects_f_max_at_nyquist(tmp_path):
    """f_max at the Nyquist frequency of the bank's input (4 kHz after
    the resampler) is a ConfigError naming the filterbank."""
    config = mic_pipeline_with_cochlea(tmp_path, f_max=2000)
    with pytest.raises(ConfigError, match="processor 'cochlea': f_max 2000"):
        validate_graph(config)


def mic_pipeline_with_cochlea(out_dir, **params):
    raw = mic_pipeline_config(out_dir)
    cochlea = next(p for p in raw["processors"] if p["name"] == "cochlea")
    cochlea["params"].update(params)
    return config_from_dict(raw)


def test_filterbank_needs_enough_channels(tmp_path):
    config = mic_pipeline_with_cochlea(tmp_path, channels=3)
    with pytest.raises(ConfigError, match="processor 'cochlea': filterbank "
                                          "needs at least 4 channels"):
        validate_graph(config)


def test_filterbank_refuses_a_pinned_sample_rate(tmp_path):
    """The bank is designed at its input key's rate; a config that pins
    another one is refused, never silently redesigned."""
    config = mic_pipeline_with_cochlea(tmp_path, sample_rate=8000)
    with pytest.raises(ConfigError, match="processor 'cochlea': sample_rate "
                                          "is not a parameter of "
                                          "gammachirp_filterbank"):
        validate_graph(config)


def test_filterbank_chunked_equals_unchunked():
    params = {"channels": 12, "f_min": 200, "f_max": 1500, "impulse_ms": 25}
    fb_whole = designed_bank(params, 4000)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3000)
    key = ("src", "snd")
    ref = fb_whole.process(
        as_merged("fb", key, x, Continuity.DISCONTINUOUS)
    )["E"].payload

    fb = designed_bank(params, 4000)
    state = MergeState({key: NO_DROPS}, fb.history)
    parts = []
    bounds = [(0, 1000), (1000, 2000), (2000, 3000)]
    for i, (lo, hi) in enumerate(bounds):
        continuity = (Continuity.DISCONTINUOUS if i == 0
                      else Continuity.WITHPREVIOUS)
        chunk = DataChunk(number=i, source_key=key, payload=x[lo:hi],
                          continuity=continuity)
        merged, state = complete_merge(state, {key: chunk}, i)
        parts.append(fb.process(merged)["E"].payload)
    np.testing.assert_array_equal(np.concatenate(parts, axis=-1), ref)


# --- structure scores ---------------------------------------------------

def test_horizontal_score_constant_input_is_one():
    energy = np.full((8, 200), 3.5)
    scores = _horizontal_valid(energy, 10)
    assert scores.shape == (8, 180)
    np.testing.assert_allclose(scores, 1.0, atol=1e-12)


def test_horizontal_score_zero_denominator_is_one():
    energy = np.zeros((4, 100))
    scores = _horizontal_valid(energy, 5)
    np.testing.assert_array_equal(scores, 1.0)


def test_horizontal_score_periodic_rows_score_high_noise_low():
    rng = np.random.default_rng(6)
    t = np.arange(400)
    periodic = 1.0 + 0.5 * np.sin(2 * np.pi * t / 20)[None, :] * np.ones((3, 1))
    noisy = rng.exponential(size=(3, 400))
    w_t = 40  # multiple of the period: shifted windows line up exactly
    p_scores = _horizontal_valid(periodic, w_t)
    n_scores = _horizontal_valid(noisy, w_t)
    assert p_scores.min() > 0.999
    assert n_scores.mean() < 0.9


def test_horizontal_score_bounds():
    rng = np.random.default_rng(7)
    energy = rng.exponential(size=(6, 300))
    scores = _horizontal_valid(energy, 20)
    assert np.all(scores > 0)
    assert np.all(scores <= 1.0 + 1e-12)


def test_vertical_score_constant_input_is_one():
    energy = np.full((12, 100), 2.0)
    scores = _vertical_valid(energy, 5, 2)
    assert scores.shape == (12, 90)
    assert np.isnan(scores[:2]).all() and np.isnan(scores[-2:]).all()
    np.testing.assert_allclose(scores[2:-2], 1.0, atol=1e-12)


def test_structure_extractor_marks_scale_margins():
    """T is NaN in the merged input's invalid rows (l = 1, s = 3, as
    prepare fixed them) plus w_s = 2 at each edge."""
    l, s = 1, 3
    se = StructureExtractor("se", {"w_t": 10, "w_s": 2})
    se.prepare(8000.0, AlignmentParams(p=5, d=5, l=l, s=s),
               np.geomspace(100, 1500, 16))
    rng = np.random.default_rng(8)
    energy = rng.exponential(size=(16, 300))
    merged = as_merged("se", ("fb", "E"), energy,
                       Continuity.DISCONTINUOUS)
    out = se.process(merged)["T"].payload
    assert np.isnan(out[: l + 2]).all()
    assert np.isnan(out[16 - s - 2 :]).all()
    assert not np.isnan(out[l + 2 : 16 - s - 2]).any()


def test_structure_extractor_alignment_declaration():
    se = StructureExtractor("se", {"w_t": 7, "w_s": 2})
    assert se.feature_alignment() == {
        "T": AlignmentParams(p=7, d=7, l=2, s=2)
    }


# --- ptn ----------------------------------------------------------------

def test_logistic_limits_and_midpoint():
    assert logistic(np.array([0.0]))[0] == pytest.approx(0.5)
    assert logistic(np.array([50.0]))[0] == pytest.approx(1.0)
    assert logistic(np.array([-50.0]))[0] == pytest.approx(0.0, abs=1e-20)
    # no overflow warnings for large negative input
    with np.errstate(over="raise"):
        logistic(np.array([-1000.0, 1000.0]))


def test_logistic_matches_per_sign_reference():
    z = np.random.default_rng(12).standard_normal(10000) * 30
    z[:4] = [0.0, -0.0, 800.0, -800.0]
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expected[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    np.testing.assert_array_equal(logistic(z), expected)


def test_block_average_nan_aware():
    data = np.array([
        [1.0, 2.0],
        [np.nan, 4.0],
        [5.0, np.nan],
        [np.nan, np.nan],
    ])
    means, counts = block_averages(data, 2, 2)
    assert means[0, 0] == pytest.approx((1 + 2 + 4) / 3)
    assert counts[0, 0] == 3
    assert means[1, 0] == pytest.approx(5.0)
    assert counts[1, 0] == 1
    nan_means, nan_counts = block_averages(data[3:4], 2, 2)
    assert np.isnan(nan_means[0, 0]) and nan_counts[0, 0] == 0


def make_ptn_merged(energy, tract, continuity, number=0, state=None):
    if state is None:
        state = MergeState({("fb", "E"): NO_DROPS, ("se", "T"): NO_DROPS})
    e = DataChunk(number=number, source_key=("fb", "E"), payload=energy,
                  continuity=continuity)
    t = DataChunk(number=number, source_key=("se", "T"), payload=tract,
                  continuity=continuity)
    return complete_merge(state, {("fb", "E"): e, ("se", "T"): t}, number)


def test_ptn_sigmoid_saturation_recovers_energy_blocks():
    """With the threshold far below every score, tonal energy equals the
    total energy block for block."""
    rng = np.random.default_rng(11)
    energy = rng.exponential(size=(8, 50))
    tract = rng.uniform(0.5, 1.0, size=(8, 50))
    ptn = PTNProcessor("p", {"block_dt": 10, "block_df": 4,
                             "theta": -1e6, "beta": 1.0})
    merged, _ = make_ptn_merged(energy, tract, Continuity.DISCONTINUOUS)
    out = ptn.process(merged)
    np.testing.assert_allclose(out["E_T"].payload, out["E_blocks"].payload,
                               rtol=1e-12)


def test_ptn_block_carry_across_continuous_chunks():
    """Blocks are cut at multiples of block_dt from the discontinuity,
    not from chunk borders."""
    rng = np.random.default_rng(12)
    energy = rng.exponential(size=(4, 75))
    tract = rng.uniform(0, 1, size=(4, 75))
    params = {"block_dt": 10, "block_df": 2, "theta": 0.5, "beta": 0.1}

    whole = PTNProcessor("p", params)
    merged, _ = make_ptn_merged(energy, tract, Continuity.DISCONTINUOUS)
    ref = whole.process(merged)["E_T"].payload

    split = PTNProcessor("p", params)
    state = None
    parts = []
    for i, (lo, hi) in enumerate([(0, 35), (35, 75)]):
        continuity = (Continuity.DISCONTINUOUS if i == 0
                      else Continuity.WITHPREVIOUS)
        merged, state = make_ptn_merged(energy[:, lo:hi], tract[:, lo:hi],
                                        continuity, number=i, state=state)
        out = split.process(merged)
        if out:
            parts.append(out["E_T"].payload)
    np.testing.assert_array_equal(np.concatenate(parts, axis=-1), ref)


@pytest.mark.parametrize("widths", [[35, 40], [5, 3, 30], [20]])
def test_ptn_carry_owns_only_its_tail(widths):
    """After every chunk each carry is its own array of fewer than
    block_dt columns, so no chunk-wide array stays pinned."""
    rng = np.random.default_rng(16)
    ptn = PTNProcessor("p", {"block_dt": 10, "block_df": 2,
                             "theta": 0.5, "beta": 0.1})
    state = None
    for number, width in enumerate(widths):
        continuity = (Continuity.DISCONTINUOUS if number == 0
                      else Continuity.WITHPREVIOUS)
        merged, state = make_ptn_merged(rng.exponential(size=(4, width)),
                                        rng.uniform(0, 1, size=(4, width)),
                                        continuity, number=number, state=state)
        ptn.process(merged)
        carried = sum(widths[: number + 1]) % 10
        for carry in (ptn._carry_et, ptn._carry_e):
            assert carry.base is None
            assert carry.shape == (4, carried)


def test_ptn_discontinuity_resets_block_phase():
    rng = np.random.default_rng(13)
    params = {"block_dt": 10, "block_df": 2, "theta": 0.5, "beta": 0.1}
    ptn = PTNProcessor("p", params)
    e0 = rng.exponential(size=(4, 25))
    t0 = rng.uniform(0, 1, size=(4, 25))
    merged, state = make_ptn_merged(e0, t0, Continuity.DISCONTINUOUS)
    ptn.process(merged)          # 2 blocks out, 5 columns carried
    e1 = rng.exponential(size=(4, 30))
    t1 = rng.uniform(0, 1, size=(4, 30))
    merged, _ = make_ptn_merged(e1, t1, Continuity.DISCONTINUOUS,
                                number=5, state=state)
    out = ptn.process(merged)
    # the carry was abandoned: exactly 3 fresh blocks from the new segment
    assert out["E_T"].payload.shape[-1] == 3


def test_ptn_pending_discontinuity_surfaces_on_next_output():
    """A break whose chunk completes no block reaches the next published
    chunk through ``step``, and no later one; ``reset`` drops it."""
    params = {"block_dt": 50, "block_df": 2, "theta": 0.5, "beta": 0.1}
    ptn = PTNProcessor("p", params)
    rng = np.random.default_rng(14)
    state = None

    def published(number, continuity, width):
        nonlocal state
        merged, state = make_ptn_merged(rng.exponential(size=(4, width)),
                                        rng.uniform(0, 1, size=(4, width)),
                                        continuity, number=number, state=state)
        return {chunk.continuity for chunk in ptn.step(merged)}

    # 30 columns complete no block; 30 + 30 complete one, 10 + 60 another
    assert published(0, Continuity.DISCONTINUOUS, 30) == set()
    assert published(1, Continuity.WITHPREVIOUS, 30) == {Continuity.DISCONTINUOUS}
    assert published(2, Continuity.WITHPREVIOUS, 60) == {Continuity.WITHPREVIOUS}
    assert published(3, Continuity.DISCONTINUOUS, 30) == set()
    ptn.reset()
    assert published(4, Continuity.WITHPREVIOUS, 60) == {Continuity.WITHPREVIOUS}


class Gate(Processor):
    """A one-key transform that publishes its input, or nothing while
    ``hold`` is set."""

    def __init__(self):
        super().__init__("gate", {})
        self.hold = False

    def feature_alignment(self):
        return {"x": ZERO_ALIGNMENT}

    def process(self, merged):
        (x,) = merged.payloads.values()
        return {} if self.hold else {"x": FeatureData(x)}


def gate_step(gate, continuity, hold=False):
    """The continuity ``gate`` publishes one chunk with, or None when it
    publishes nothing."""
    gate.hold = hold
    merged = MergedChunk(number=0, continuity=continuity,
                         payloads={("src", "snd"): np.zeros(4)}, scenarios={})
    chunks = gate.step(merged)
    return chunks[0].continuity if chunks else None


@pytest.mark.parametrize("code", [Continuity.DISCONTINUOUS, Continuity.NEWFILE],
                         ids=lambda code: code.name.lower())
def test_a_break_that_publishes_nothing_overrides_the_next_continuous_publish(
        code):
    gate = Gate()
    assert gate_step(gate, code, hold=True) is None
    # a continuous set that publishes nothing keeps the break
    assert gate_step(gate, Continuity.WITHPREVIOUS, hold=True) is None
    assert gate_step(gate, Continuity.LAST) is code
    assert gate_step(gate, Continuity.WITHPREVIOUS) is Continuity.WITHPREVIOUS


def test_a_calibration_that_publishes_nothing_carries_nothing():
    gate = Gate()
    assert gate_step(gate, Continuity.CALIBRATION, hold=True) is None
    assert gate_step(gate, Continuity.WITHPREVIOUS) is Continuity.WITHPREVIOUS


def test_a_break_that_publishes_clears_the_carried_break():
    gate = Gate()
    gate_step(gate, Continuity.DISCONTINUOUS, hold=True)
    assert gate_step(gate, Continuity.NEWFILE) is Continuity.NEWFILE
    assert gate_step(gate, Continuity.WITHPREVIOUS) is Continuity.WITHPREVIOUS


def test_reset_clears_the_carried_break():
    gate = Gate()
    gate_step(gate, Continuity.DISCONTINUOUS, hold=True)
    gate.reset()
    assert gate_step(gate, Continuity.WITHPREVIOUS) is Continuity.WITHPREVIOUS


def test_ptn_requires_threshold_without_calibration():
    from tfstream.errors import ConfigError
    ptn = PTNProcessor("p", {"block_dt": 10, "block_df": 2})
    rng = np.random.default_rng(15)
    merged, _ = make_ptn_merged(rng.exponential(size=(4, 20)),
                                rng.uniform(0, 1, size=(4, 20)),
                                Continuity.DISCONTINUOUS)
    with pytest.raises(ConfigError):
        ptn.process(merged)

"""Pipeline configuration parsing and whole-graph validation."""

import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import (
    MISWIRINGS,
    file_pipeline_config,
    mic_pipeline_config,
    miswired_config,
    synth_tone_noise,
    write_wav,
)
from tfstream.chunks import AlignmentParams
from tfstream.errors import (
    ChunkTooShortForDepth,
    ConfigError,
    CycleError,
    UnknownProcessorKind,
)
from tfstream.graph import config_from_dict, load_config, validate_graph
from tfstream.processors import StructureExtractor
from tfstream.processors.ptn import group_means
from tfstream.runtime import run_plan


def build(raw):
    return validate_graph(config_from_dict(raw))


def test_load_config_from_yaml(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    path = tmp_path / "pipeline.yaml"
    path.write_text(yaml.safe_dump(raw))
    config = load_config(path)
    assert [p.name for p in config.processors] == [
        "reader", "resampler", "cochlea", "se", "ptn", "out"]
    assert len(config.edges) == 10
    plan = validate_graph(config)
    assert plan.order[0] == "reader"
    assert plan.order[-1] == "out"


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_cumulative_alignment_budget(tone_wav, tmp_path):
    plan = build(file_pipeline_config(tone_wav, tmp_path / "out"))
    assert plan.cumulative[("resampler", "snd")] == AlignmentParams(0, 63, 0, 0)
    assert plan.cumulative[("cochlea", "E")] == AlignmentParams(0, 263, 0, 0)
    assert plan.cumulative[("se", "T")] == AlignmentParams(40, 303, 3, 3)
    # block outputs publish whole blocks only: no partial-column debt
    assert plan.cumulative[("ptn", "E_T")].p == 0
    assert plan.cumulative[("ptn", "E_T")].d == 0
    # the merge point feeding the block processor sees both paths
    assert plan.merged_at["ptn"] == AlignmentParams(40, 303, 3, 3)


def test_rates_and_channels_propagate(tone_wav, tmp_path):
    plan = build(file_pipeline_config(tone_wav, tmp_path / "out"))
    assert plan.rates[("reader", "snd")] == 8000.0
    assert plan.rates[("resampler", "snd")] == 4000.0
    assert plan.rates[("se", "T")] == 4000.0
    for feature in ("E_T", "E_T_valid", "E_blocks"):
        assert plan.rates[("ptn", feature)] == 40.0
    assert plan.freqs[("resampler", "snd")] is None
    assert len(plan.freqs[("cochlea", "E")]) == 64
    assert len(plan.freqs[("ptn", "E_T")]) == 8
    axis = plan.freqs[("cochlea", "E")]
    assert np.array_equal(axis, plan.instances["cochlea"].center_freqs)
    assert np.array_equal(plan.freqs[("se", "T")], axis)
    assert np.array_equal(plan.freqs[("ptn", "E_T")], group_means(axis, 8))
    assert not any(a.flags.writeable for a in plan.freqs.values()
                   if a is not None)
    assert plan.chunk_lengths["ptn:out"] == pytest.approx(512 / 100)


def test_transform_fed_two_rates_is_rejected(tmp_path):
    """ptn publishes at its block rate, 40 Hz here: a second ptn merging
    filterbank energy with the scores of those blocks mixes 4000 Hz and
    40 Hz, which validation rejects before a merge can disagree."""
    raw = mic_pipeline_config(tmp_path / "out", chunk_size=60000)
    ptn = raw["processors"][4]
    ptn["params"]["block_df"] = 1
    raw["processors"] += [
        {"name": "se2", "kind": "structure_extractor",
         "params": {"w_t": 1, "w_s": 1}},
        {"name": "ptn2", "kind": "ptn", "params": dict(ptn["params"])},
    ]
    raw["edges"] += [
        {"from": "ptn.E_blocks", "to": "se2"},
        {"from": "cochlea.E", "to": "ptn2"},
        {"from": "se2.T", "to": "ptn2"},
    ]
    with pytest.raises(ConfigError, match="'ptn2' receives mixed rates"):
        build(raw)


@pytest.mark.parametrize("channels", [4, 6])
def test_structure_extractor_with_too_few_channels_is_rejected(
        tmp_path, channels):
    """w_s = 3 needs 7 channels: the count is a plan constant, checked
    once at validation, not on every chunk."""
    raw = mic_pipeline_config(tmp_path / "out")
    raw["processors"][2]["params"]["channels"] = channels
    with pytest.raises(ConfigError,
                       match=f"'se'.* needs >= 7 channels, got {channels}"):
        build(raw)
    raw["processors"][2]["params"]["channels"] = 7
    build(raw)


@pytest.mark.parametrize("case", ["equal_bounds", "swapped_pair"])
def test_frequency_axis_that_is_not_strictly_monotone_is_rejected(
        tmp_path, monkeypatch, case):
    """Each published axis is checked once, at validation: a filterbank
    whose bounds coincide publishes 64 equal frequencies, and a transform
    may derive an axis out of order."""
    raw = mic_pipeline_config(tmp_path / "out")
    if case == "equal_bounds":
        raw["processors"][2]["params"]["f_max"] = 100
        name = "cochlea"
    else:
        prepare = StructureExtractor.prepare

        def swapped(self, in_rate, merged, in_freqs):
            rate, axis, merged_out = prepare(self, in_rate, merged, in_freqs)
            return rate, axis[[1, 0, *range(2, len(axis))]], merged_out
        monkeypatch.setattr(StructureExtractor, "prepare", swapped)
        name = "se"
    with pytest.raises(ConfigError, match=f"'{name}': .*monotone"):
        build(raw)


def test_transform_fed_two_frequency_axes_is_rejected(tmp_path):
    """ptn merges E and T along time only, so both must share one axis:
    here the structure extractor reads a second, narrower filterbank."""
    raw = mic_pipeline_config(tmp_path / "out")
    narrow = copy.deepcopy(raw["processors"][2])
    narrow["name"] = "narrow"
    narrow["params"]["f_max"] = 1400
    raw["processors"].append(narrow)
    raw["edges"][2] = {"from": "narrow.E", "to": "se"}
    raw["edges"].append({"from": "resampler.snd", "to": "narrow"})
    with pytest.raises(ConfigError,
                       match="'ptn' receives different frequency axes "
                             "on cochlea.E, se.T"):
        build(raw)
    raw["processors"][-1]["params"]["f_max"] = 1500
    build(raw)


@pytest.mark.parametrize("case, processor", MISWIRINGS)
def test_wiring_outside_a_transforms_input_contract_is_rejected(
        tmp_path, case, processor):
    """Each transform declares the features it merges and whether they
    are 2-D, and validation checks that once: these wirings failed at the
    first chunk or mid-run, or (a ptn fed two tracts) kept whichever
    tract came last in hash order, so the output hung on the hash seed."""
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=f"processor '{processor}' takes"):
        build(miswired_config(case, out))
    assert not out.exists()


def test_minimum_chunk_length_is_honest(tone_wav, tmp_path):
    plan = build(file_pipeline_config(tone_wav, tmp_path / "out"))
    need = plan.minimum_chunk_length()
    # the budget fits at the configured size but not below the minimum
    assert need <= 1024
    build(file_pipeline_config(tone_wav, tmp_path / "out", chunk_size=need))
    with pytest.raises(ChunkTooShortForDepth):
        build(file_pipeline_config(tone_wav, tmp_path / "out",
                                   chunk_size=need - 1))


def test_minimum_chunk_length_counts_each_consumers_own_window(tmp_path):
    """16 kHz audio, resampled /2, into a 50 ms filterbank: after a break
    the filterbank drops the resampler's 63 columns and then its own 400
    before its first output, so at 8 kHz it needs 464 columns, 928
    source samples.  At 927 the graph is refused, and the error gives
    the minimum in source samples; at 928 every chunk of a 2 s file is
    written and none is too short."""
    wav = write_wav(tmp_path / "in.wav", 16000, synth_tone_noise(16000, 2.0))

    def config(chunk_size):
        return {
            "processors": [
                {"name": "reader", "kind": "wav_reader",
                 "params": {"path": str(wav), "chunk_size": chunk_size}},
                {"name": "resampler", "kind": "resampler",
                 "params": {"factor": 2}},
                {"name": "cochlea", "kind": "gammachirp_filterbank",
                 "params": {"impulse_ms": 50}},
                {"name": "out", "kind": "file_writer",
                 "params": {"directory": str(tmp_path / "out")}},
            ],
            "edges": [
                {"from": "reader.snd", "to": "resampler"},
                {"from": "resampler.snd", "to": "cochlea"},
                {"from": "cochlea.E", "to": "out"},
            ],
        }

    assert build(config(1024)).minimum_chunk_length() == 928
    with pytest.raises(ChunkTooShortForDepth,
                       match="processor 'cochlea'.* minimum chunk length "
                             "is 928 source samples"):
        build(config(927))
    report = run_plan(build(config(928)))
    assert report.written[("cochlea", "E")] == -(-32000 // 928) == 35
    assert all(c.too_short == 0 for c in report.buffer_counters.values())


def test_minimum_chunk_length_counts_the_resamplers_own_depth(tmp_path):
    """An 8 kHz mic resampled /4 by a 31-tap FIR, straight to a writer:
    after a break the resampler's first output needs 8 dropped outputs
    of 4 samples each and one more sample, 33 in all, although the
    filter reads only 30 samples of history.  32 is refused; at 33 all
    6 chunks are written and none is too short."""
    def config(chunk_size):
        return {
            "processors": [
                {"name": "mic", "kind": "mic_input", "params": {
                    "sample_rate": 8000, "chunk_size": chunk_size,
                    "num_chunks": 6}},
                {"name": "resampler", "kind": "resampler",
                 "params": {"factor": 4, "fir_length": 31}},
                {"name": "out", "kind": "file_writer",
                 "params": {"directory": str(tmp_path / "out")}},
            ],
            "edges": [
                {"from": "mic.snd", "to": "resampler"},
                {"from": "resampler.snd", "to": "out"},
            ],
        }

    assert build(config(1024)).minimum_chunk_length() == 33
    with pytest.raises(ChunkTooShortForDepth,
                       match="processor 'resampler'.* minimum chunk length "
                             "is 33 source samples"):
        build(config(32))
    report = run_plan(build(config(33)))
    assert report.written[("resampler", "snd")] == 6
    assert report.buffer_counters["resampler"].too_short == 0


def test_chunk_too_short_message_names_processor(tone_wav, tmp_path):
    with pytest.raises(ChunkTooShortForDepth, match="minimum"):
        build(file_pipeline_config(tone_wav, tmp_path / "out", chunk_size=256))


def test_duplicate_processor_names(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["processors"].append(dict(raw["processors"][1]))
    with pytest.raises(ConfigError, match="duplicate"):
        build(raw)


def test_duplicate_edges(tone_wav, tmp_path):
    """One feature twice into one consumer would deliver every chunk twice;
    two features of one producer into one consumer stay valid."""
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    for repeat in [{"from": "cochlea.E", "to": "out"},
                   {"from": "se.T", "to": "ptn", "transport": "tcp::0"}]:
        bad = copy.deepcopy(raw)
        bad["edges"].append(repeat)
        with pytest.raises(ConfigError, match="duplicate edge"):
            config_from_dict(bad)
    assert ({("ptn", "E_T", "out"), ("ptn", "E_blocks", "out")}
            <= {(e.producer, e.feature, e.consumer) for e in build(raw).config.edges})


def test_unknown_kind(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["processors"][1] = {"name": "resampler", "kind": "no_such_kind"}
    with pytest.raises(UnknownProcessorKind):
        build(raw)


def test_unknown_edge_endpoints(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    bad = copy.deepcopy(raw)
    bad["edges"].append({"from": "ghost.snd", "to": "out"})
    with pytest.raises(ConfigError, match="producer"):
        build(bad)
    bad = copy.deepcopy(raw)
    bad["edges"].append({"from": "cochlea.E", "to": "ghost"})
    with pytest.raises(ConfigError, match="consumer"):
        build(bad)


def test_unknown_feature(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"].append({"from": "cochlea.Q", "to": "out"})
    with pytest.raises(ConfigError, match="feature"):
        build(raw)


def test_edge_from_must_have_feature(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"][0] = {"from": "reader", "to": "resampler"}
    with pytest.raises(ConfigError, match="producer.feature"):
        build(raw)


def _set_se_params(raw, value):
    next(p for p in raw["processors"] if p["name"] == "se")["params"] = value


#: (id, a change to the mic pipeline's dict, the message expected)
MALFORMED = [
    ("params-int", lambda raw: _set_se_params(raw, 40),
     "processor 'se': params must be a mapping, got 40"),
    ("params-list", lambda raw: _set_se_params(raw, [40, 3]),
     "processor 'se': params must be a mapping"),
    ("params-string", lambda raw: _set_se_params(raw, "w_t: 40"),
     "processor 'se': params must be a mapping"),
    ("fault-not-mapping", lambda raw: raw.update(faults=["drop_chunk"]),
     "faults entry must be a mapping: 'drop_chunk'"),
    ("fault-without-edge",
     lambda raw: raw.update(faults=[{"kind": "drop_chunk", "number": 2}]),
     "fault entry .* needs .edge. as a string, got None"),
    ("fault-without-number",
     lambda raw: raw.update(faults=[{"kind": "drop_chunk",
                                     "edge": "se.T->ptn"}]),
     "fault entry .* needs .number. as an integer, got None"),
    ("fault-number-not-integer",
     lambda raw: raw.update(faults=[{"kind": "overflow", "input": "mic",
                                     "number": "five"}]),
     "fault entry .* needs .number. as an integer, got .five."),
    ("fault-number-float",
     lambda raw: raw.update(faults=[{"kind": "link_down", "edge": "se.T->ptn",
                                     "from_number": 2, "to_number": 3.5}]),
     "fault entry .* needs .to_number. as an integer, got 3.5"),
    ("edge-not-mapping", lambda raw: raw["edges"].append("se.T -> ptn"),
     "edges entry must be a mapping: 'se.T -> ptn'"),
    ("edge-from-not-string",
     lambda raw: raw["edges"].append({"from": 5, "to": "ptn"}),
     "edge 'from' must be producer.feature: 5"),
]


@pytest.mark.parametrize("change, message", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_a_malformed_entry_is_a_config_error_naming_it(tmp_path, change,
                                                       message):
    """Each of these once escaped as a TypeError, ValueError, KeyError or
    AttributeError, which the command line prints as a traceback."""
    raw = mic_pipeline_config(tmp_path / "out")
    change(raw)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_cycle_detection(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"].append({"from": "se.T", "to": "cochlea"})
    with pytest.raises(CycleError):
        build(raw)


def test_transform_without_inputs(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"] = [e for e in raw["edges"] if e["to"] != "resampler"]
    with pytest.raises(ConfigError, match="incoming"):
        build(raw)


def test_bad_processor_params_reported_with_name(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["processors"][3]["params"] = {"w_t": 0, "w_s": 3}
    with pytest.raises(ConfigError, match="se"):
        build(raw)


@pytest.mark.parametrize("name, param", [
    ("se", "w_tt"), ("mic", "rate"), ("out", "format"),
])
def test_a_parameter_the_kind_does_not_read_is_rejected(tmp_path, name, param):
    """A misspelt parameter is refused, never run with the default of the
    one it meant."""
    raw = mic_pipeline_config(tmp_path / "out")
    spec = next(p for p in raw["processors"] if p["name"] == name)
    spec["params"][param] = 4
    with pytest.raises(ConfigError, match=(
            f"processor '{name}': {param} is not a parameter of "
            f"{spec['kind']}; it takes ")):
        build(raw)


def test_unknown_nan_policy_rejected(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["processors"][4]["params"]["nan_policy"] = "zeros"
    with pytest.raises(ConfigError, match="nan_policy"):
        build(raw)


@pytest.mark.parametrize("transport", [
    "bogus", "udp::0", "tcp", "tcp:", "tcp::", "tcp::port", "tcp::-1",
    "tcp::65536", "tcp:a:1:2", "Local",
])
def test_unusable_transport_rejected(tone_wav, tmp_path, transport):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"][4]["transport"] = transport
    with pytest.raises(ConfigError, match="transport"):
        config_from_dict(raw)


@pytest.mark.parametrize("transport", [
    "local", "tcp::0", "tcp:127.0.0.1:0", "tcp:localhost:65535",
])
def test_usable_transport_accepted(tone_wav, tmp_path, transport):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"][4]["transport"] = transport
    assert config_from_dict(raw).edges[4].transport == transport


@pytest.mark.parametrize("dtype", ["<i4", ">f8", "<f2", "<c16", ""])
def test_unusable_wire_dtype_rejected(tone_wav, tmp_path, dtype):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    raw["edges"][4].update(transport="tcp::0", wire_dtype=dtype)
    with pytest.raises(ConfigError, match="wire_dtype"):
        config_from_dict(raw)


@pytest.mark.parametrize("dtype", ["foo", "int16", "<i2", ">f8", "<f2", ""])
def test_unusable_writer_dtype_rejected(tmp_path, dtype):
    """A chunk file holds little-endian floats, as a wire frame does: any
    other dtype is refused when the writer is built, before a chunk is
    written, not at the first write (or, for integers, with NaN cast to
    arbitrary values)."""
    raw = mic_pipeline_config(tmp_path / "out")
    raw["processors"][5]["params"]["dtype"] = dtype
    with pytest.raises(ConfigError, match="'out': dtype"):
        build(raw)
    assert not (tmp_path / "out").exists()
    raw["processors"][5]["params"]["dtype"] = "<f4"
    build(raw)


def test_threshold_needed_without_calibration(tone_wav, tmp_path):
    raw = file_pipeline_config(tone_wav, tmp_path / "out")
    del raw["processors"][0]["params"]["calibration"]
    with pytest.raises(ConfigError, match="calibration"):
        build(raw)


def test_explicit_threshold_replaces_calibration(tmp_path):
    build(mic_pipeline_config(tmp_path / "out"))


def test_mic_without_thresholds_rejected(tmp_path):
    raw = mic_pipeline_config(tmp_path / "out")
    for spec in raw["processors"]:
        spec["params"].pop("theta", None)
        spec["params"].pop("beta", None)
    with pytest.raises(ConfigError, match="theta"):
        build(raw)


def test_fault_on_unknown_edge_rejected(tmp_path):
    raw = mic_pipeline_config(
        tmp_path / "out",
        faults=[{"kind": "drop_chunk", "edge": "ghost.E->ptn", "number": 1}],
    )
    with pytest.raises(ConfigError):
        build(raw)


def test_overflow_on_non_source_rejected(tmp_path):
    raw = mic_pipeline_config(
        tmp_path / "out",
        faults=[{"kind": "overflow", "input": "cochlea", "number": 1}],
    )
    with pytest.raises(ConfigError):
        build(raw)


def test_overflow_on_source_that_cannot_overflow_rejected(tone_wav, tmp_path):
    raw = file_pipeline_config(
        tone_wav, tmp_path / "out",
        faults=[{"kind": "overflow", "input": "reader", "number": 3}],
    )
    with pytest.raises(ConfigError, match="cannot overflow"):
        build(raw)


def test_valid_fault_schedule_accepted(tmp_path):
    plan = build(mic_pipeline_config(
        tmp_path / "out",
        faults=[
            {"kind": "drop_chunk", "edge": "se.T->ptn", "number": 2},
            {"kind": "overflow", "input": "mic", "number": 5},
        ],
    ))
    assert plan.config.faults.overflow_numbers("mic") == {5}
    assert plan.instances["mic"].overflow_numbers == {5}


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
def test_shipped_file_pipeline_accepts_common_wav_rates(tmp_path, rate):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "file_pipeline.yaml"
    raw = yaml.safe_load(shipped.read_text())
    params = {p["name"]: p["params"] for p in raw["processors"]}
    params["reader"]["path"] = str(
        write_wav(tmp_path / "in.wav", rate, np.zeros(rate // 10)))
    params["out"]["directory"] = str(tmp_path / "out")
    plan = build(raw)
    assert plan.order[0] == "reader"

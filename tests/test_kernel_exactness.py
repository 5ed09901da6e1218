"""Chunk exactness of the hot kernels.

Every kernel must compute each output value by a fixed expression over
that value's own input window, so a value is the same bits whatever the
length of the call it came from or where that call starts.  These tests
compare kernel calls on short, offset pieces with one whole-signal call
using ``array_equal``; a tolerance would hide exactly the reordered sums
they exist to catch.
"""

import numpy as np
import pytest

from conftest import mic_pipeline_config
from test_processors import as_merged
from tfstream.chunkfile import concatenate_payloads, read_chunk_file
from tfstream.chunks import Continuity
from tfstream.errors import ChunkTooShortForDepth
from tfstream.graph import config_from_dict, validate_graph
from tfstream.oracle import compare_streamed, run_unchunked
from tfstream.processors import GammaChirpFilterbank
from tfstream.processors.filterbank import GEMM_ROWS
from tfstream.processors.ptn import block_average, block_averages
from tfstream.processors.structure import _moving_sum
from tfstream.runtime import run_plan

OFFSETS = [0, 1, 3, 97, 1000]


# --- filterbank ----------------------------------------------------------

@pytest.mark.parametrize("channels, impulse_ms", [(64, 50.0), (8, 4.0)])
def test_filterbank_columns_do_not_depend_on_the_call(channels, impulse_ms):
    """L = 400 taps x 2C = 128 and L = 32 x 2C = 16 at 8 kHz."""
    fb = GammaChirpFilterbank("fb", {
        "channels": channels, "f_min": 100, "f_max": 1500,
        "impulse_ms": impulse_ms, "sample_rate": 8000,
    })
    taps = fb.impulse_length
    key = ("src", "snd")
    x = np.random.default_rng(5).standard_normal(taps + 1000 + 3 * GEMM_ROWS)

    def energy(signal):
        merged = as_merged("fb", key, signal, 8000.0, Continuity.DISCONTINUOUS)
        return fb.process(merged)["E"].payload

    whole = energy(x)
    counts = list(range(1, 41)) + [GEMM_ROWS - 1, GEMM_ROWS, GEMM_ROWS + 1]
    for offset in OFFSETS:
        for count in counts:
            piece = energy(x[offset : offset + taps + count])
            assert piece.shape == (channels, count)
            np.testing.assert_array_equal(
                piece, whole[:, offset : offset + count],
                err_msg=f"offset {offset}, {count} columns")


def test_filterbank_matches_direct_convolution():
    fb = GammaChirpFilterbank("fb", {
        "channels": 16, "f_min": 100, "f_max": 1500, "impulse_ms": 20,
        "sample_rate": 8000,
    })
    taps = fb.impulse_length
    x = np.random.default_rng(6).standard_normal(3000)
    got = fb._energy(x, slice(taps, x.size))
    yr = np.stack([np.convolve(x, h)[: x.size] for h in fb._h_real])
    yi = np.stack([np.convolve(x, h)[: x.size] for h in fb._h_imag])
    np.testing.assert_allclose(got, (yr * yr + yi * yi)[:, taps:], rtol=1e-12,
                               atol=1e-15)


# --- moving sum ----------------------------------------------------------

@pytest.mark.parametrize("width", [2, 3, 9, 41, 81])
@pytest.mark.parametrize("axis", [0, 1])
def test_moving_sum_windows_do_not_depend_on_the_call(width, axis):
    rng = np.random.default_rng(width)
    x = rng.exponential(size=(600, 7) if axis == 0 else (7, 600))
    whole = _moving_sum(x, width, axis=axis)
    expected = np.stack(
        [np.take(x, range(i, i + width), axis=axis).sum(axis=axis)
         for i in range(600 - width + 1)], axis=axis)
    np.testing.assert_allclose(whole, expected, rtol=1e-12)
    for offset in [0, 1, 2, 5, 63, 200]:
        for length in [width, width + 1, width + 7, 128, 333]:
            piece = np.take(x, range(offset, offset + length), axis=axis)
            got = _moving_sum(piece, width, axis=axis)
            want = np.take(whole, range(offset, offset + length - width + 1),
                           axis=axis)
            np.testing.assert_array_equal(
                got, want, err_msg=f"offset {offset}, length {length}")


# --- ptn blocks ----------------------------------------------------------

@pytest.mark.parametrize("channels, block_df, block_dt",
                         [(64, 8, 100), (13, 4, 16), (8, 2, 16)])
def test_block_averages_do_not_depend_on_the_carry(channels, block_df, block_dt):
    rng = np.random.default_rng(channels)
    n_blocks = 9
    data = rng.exponential(size=(channels, n_blocks * block_dt + 5))
    data[rng.random(data.shape) < 0.1] = np.nan
    data[0] = np.nan
    many_means, many_counts = block_averages(data, block_dt, block_df)
    assert many_means.shape == (-(-channels // block_df), n_blocks)
    # a carry that is a column slice of a wider array, as after a publish
    carry = np.concatenate([data[:, :3], data], axis=-1)[:, 3:]
    for b in range(n_blocks):
        one = carry[:, b * block_dt : (b + 1) * block_dt]
        means, counts = block_averages(one, block_dt, block_df)
        np.testing.assert_array_equal(means[:, 0], many_means[:, b])
        np.testing.assert_array_equal(counts[:, 0], many_counts[:, b])
        single_means, single_counts = block_average(one, block_df)
        np.testing.assert_array_equal(single_means, many_means[:, b])
        np.testing.assert_array_equal(single_counts, many_counts[:, b])
        expected = [np.nanmean(one[g : g + block_df])
                    if not np.isnan(one[g : g + block_df]).all() else np.nan
                    for g in range(0, channels, block_df)]
        np.testing.assert_allclose(means[:, 0], expected, rtol=1e-12)


# --- streamed == oracle --------------------------------------------------

ALL_KEYS = [("cochlea", "E"), ("se", "T"), ("ptn", "E_T"),
            ("ptn", "E_T_valid"), ("ptn", "E_blocks")]


def _mic_config(out_dir, chunk_size, direction, num_chunks=8):
    raw = mic_pipeline_config(out_dir, num_chunks=num_chunks,
                              chunk_size=chunk_size)
    for spec in raw["processors"]:
        if spec["name"] == "se":
            spec["params"]["direction"] = direction
    raw["edges"] = [e for e in raw["edges"] if e["to"] != "out"] + [
        {"from": f"{producer}.{feature}", "to": "out"}
        for producer, feature in ALL_KEYS
    ]
    return raw


def _minimum_chunk_size(tmp_path, direction):
    """Smallest chunk size the graph accepts: the deepest consumer then
    receives chunks of exactly d + p + 1 columns."""
    lo, hi = 2, 4096  # lo rejected, hi accepted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            validate_graph(config_from_dict(_mic_config(tmp_path, mid, direction)))
            hi = mid
        except ChunkTooShortForDepth:
            lo = mid
    return hi


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_streamed_equals_oracle_at_minimum_chunk_length(tmp_path, direction):
    chunk_size = _minimum_chunk_size(tmp_path / "probe", direction)
    plan = validate_graph(config_from_dict(
        _mic_config(tmp_path / "out", chunk_size, direction, num_chunks=24)))
    depth = plan.merged_at["ptn"]
    assert plan.chunk_lengths["ptn"] == depth.d + depth.p + 1
    run_plan(plan)
    reference = run_unchunked(validate_graph(config_from_dict(
        _mic_config(tmp_path / "unused", chunk_size, direction, num_chunks=24))))
    for producer, feature in ALL_KEYS:
        _, records = read_chunk_file(tmp_path / "out" / f"{producer}.{feature}.tfc")
        streamed = concatenate_payloads(records)
        assert streamed.shape[-1] > 0
        problem = compare_streamed(
            streamed, reference[(producer, feature)].payload)
        assert problem is None, f"{producer}.{feature}: {problem}"

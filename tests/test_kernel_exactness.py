"""Chunk exactness of the hot kernels.

Every kernel must compute each output value by a fixed expression over
that value's own input window, so a value is the same bits whatever the
length of the call it came from or where that call starts.  These tests
compare kernel calls on short, offset pieces with one whole-signal call
using ``array_equal``; a tolerance would hide exactly the reordered sums
they exist to catch.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import (
    file_pipeline_config,
    mic_pipeline_config,
    synth_tone_noise,
    write_wav,
)
from test_processors import as_merged, designed_bank, make_ptn_merged
from tfstream.chunkfile import concatenate_payloads, read_chunk_file
from tfstream.chunks import Continuity
from tfstream.errors import ChunkTooShortForDepth
from tfstream.graph import config_from_dict, validate_graph
from tfstream.oracle import compare_streamed, run_unchunked
from tfstream.processors import PTNProcessor
from tfstream.processors.filterbank import GEMM_ROWS
from tfstream.processors.ptn import block_averages, blocks_per_tile, logistic
from tfstream.processors.structure import (
    _horizontal_valid,
    _moving_sum,
    _vertical_valid,
    tile_columns,
)
from tfstream.runtime import run_plan

OFFSETS = [0, 1, 3, 97, 1000]


# --- filterbank ----------------------------------------------------------

@pytest.mark.parametrize("channels, impulse_ms", [(64, 50.0), (8, 4.0)])
def test_filterbank_columns_do_not_depend_on_the_call(channels, impulse_ms):
    """L = 400 taps x 2C = 128 and L = 32 x 2C = 16 at 8 kHz."""
    fb = designed_bank({
        "channels": channels, "f_min": 100, "f_max": 1500,
        "impulse_ms": impulse_ms,
    }, 8000)
    taps = fb.impulse_length
    key = ("src", "snd")
    x = np.random.default_rng(5).standard_normal(taps + 1000 + 3 * GEMM_ROWS)

    def energy(signal):
        merged = as_merged("fb", key, signal, Continuity.DISCONTINUOUS)
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
    fb = designed_bank({
        "channels": 16, "f_min": 100, "f_max": 1500, "impulse_ms": 20,
    }, 8000)
    taps = fb.impulse_length
    x = np.random.default_rng(6).standard_normal(3000)
    got = fb._energy(x)
    yr = np.stack([np.convolve(x, h)[: x.size] for h in fb._h_real])
    yi = np.stack([np.convolve(x, h)[: x.size] for h in fb._h_imag])
    np.testing.assert_allclose(got, (yr * yr + yi * yi)[:, taps:], rtol=1e-12,
                               atol=1e-15)


# --- moving sum ----------------------------------------------------------

def _moving_sum_of(x, width, axis):
    """``_moving_sum`` of a copy of x into fresh output and scratch."""
    shape = list(x.shape)
    shape[axis] -= width - 1
    return _moving_sum(x.copy(), width, axis, np.empty(shape), np.empty(x.shape))


@pytest.mark.parametrize("width", [2, 3, 9, 41, 81])
@pytest.mark.parametrize("axis", [0, 1])
def test_moving_sum_windows_do_not_depend_on_the_call(width, axis):
    rng = np.random.default_rng(width)
    x = rng.exponential(size=(600, 7) if axis == 0 else (7, 600))
    whole = _moving_sum_of(x, width, axis)
    expected = np.stack(
        [np.take(x, range(i, i + width), axis=axis).sum(axis=axis)
         for i in range(600 - width + 1)], axis=axis)
    np.testing.assert_allclose(whole, expected, rtol=1e-12)
    for offset in [0, 1, 2, 5, 63, 200]:
        for length in [width, width + 1, width + 7, 128, 333]:
            piece = np.take(x, range(offset, offset + length), axis=axis)
            got = _moving_sum_of(piece, width, axis)
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
        expected = [np.nanmean(one[g : g + block_df])
                    if not np.isnan(one[g : g + block_df]).all() else np.nan
                    for g in range(0, channels, block_df)]
        np.testing.assert_allclose(means[:, 0], expected, rtol=1e-12)


# --- tiles against the untiled formulas ----------------------------------
#
# The per-cell kernels run a tile of columns at a time (``tile_columns``
# of the channel count), the structure scores on time-major copies.
# The references below are the untiled, channel-major formulas.
# Results are compared as bit patterns: the NaN-aware equality of
# ``compare_streamed`` cannot see a NaN whose sign flipped, but the
# written files can.

NEG_NAN = np.copysign(np.nan, -1.0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


#: widths at and around the edges of tiles of ``t`` columns
AROUND_TILE = {
    "1": lambda t: 1,
    "tile-1": lambda t: t - 1,
    "tile": lambda t: t,
    "tile+1": lambda t: t + 1,
    "2tile+1": lambda t: 2 * t + 1,
}


def _reference_moving_sum(x, width):
    """Window sums along the last axis, by the doubling tree."""
    count = x.shape[-1] - width + 1
    total, offset, partial, size = None, 0, x, 1
    while True:
        if width & size:
            part = partial[..., offset : offset + count]
            total = part if total is None else total + part
            offset += size
        if 2 * size > width:
            return total
        pairs = partial.shape[-1] - size
        partial = partial[..., :pairs] + partial[..., size : size + pairs]
        size *= 2


def _reference_score(num, s_lo, s_hi):
    denom = np.sqrt(s_lo * s_hi)
    score = np.ones_like(num)
    np.divide(num, denom, out=score, where=denom > 0)
    return score


def _reference_horizontal(energy, w_t):
    lag, width = w_t, w_t + 1
    sq = energy * energy
    prod = energy[:, : energy.shape[-1] - lag] * energy[:, lag:]
    s_ab = _reference_moving_sum(prod, width)
    s_sq = _reference_moving_sum(sq, width)
    n = s_ab.shape[-1]
    return _reference_score(s_ab, s_sq[:, :n], s_sq[:, lag : lag + n])


def _reference_vertical(energy, w_t, w_s):
    lag, width = w_s, 2 * w_t + 1
    sq = energy * energy
    prod = energy[: energy.shape[0] - lag] * energy[lag:]
    s_ab = _reference_moving_sum(_reference_moving_sum(prod.T, w_s + 1).T, width)
    s_sq = _reference_moving_sum(_reference_moving_sum(sq.T, w_s + 1).T, width)
    n_f, n = s_ab.shape
    scores = np.full((energy.shape[0], n), np.nan)
    scores[w_s : w_s + n_f] = _reference_score(
        s_ab, s_sq[:n_f], s_sq[lag : lag + n_f])
    return scores


def _contiguous_and_offset(rng, rows, columns, fill):
    """A C-contiguous array and a column-offset view of the same values."""
    wide = rng.exponential(size=(rows, columns + 3))
    fill(wide)
    return [np.ascontiguousarray(wide[:, 3:]), wide[:, 3:]]


@pytest.mark.parametrize("w_t, w_s, channels", [(5, 2, 11), (40, 3, 64)])
@pytest.mark.parametrize("around", AROUND_TILE)
def test_tiled_scores_match_the_untiled_formulas(w_t, w_s, channels, around):
    """Valid widths around the tile size, NaN rows of both signs, a NaN
    cell and windows that are all zero (score 1)."""
    valid = AROUND_TILE[around](tile_columns(channels))

    def fill(e):
        e[0] = np.nan
        e[-1] = NEG_NAN
        e[2, 10] = NEG_NAN
        e[:, 3 : 3 + 3 * w_t] = 0.0

    rng = np.random.default_rng(valid)
    for energy in _contiguous_and_offset(rng, channels, valid + 2 * w_t, fill):
        _assert_same_bits(_horizontal_valid(energy, w_t),
                          _reference_horizontal(energy, w_t))
        _assert_same_bits(_vertical_valid(energy, w_t, w_s),
                          _reference_vertical(energy, w_t, w_s))


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("around", AROUND_TILE)
def test_tiled_gate_matches_the_whole_array_expression(per_channel, around):
    """ptn's gate against energy * logistic((tract - theta) / beta), with
    NaN of both signs, infinities, signed zeros and z = 0 exactly.

    Where energy and gate are both NaN, the product's NaN is its first
    operand's.  Written as one expression, numpy's temporary elision
    computes the product as `gate *= energy` for operands of 256 KiB or
    more (the whole-signal case) and as written below that, so the
    reference names the gate and puts it first at every width."""
    channels = 9
    width = AROUND_TILE[around](tile_columns(channels))
    rng = np.random.default_rng(width)
    theta = rng.uniform(0.4, 0.6, channels) if per_channel else 0.5
    beta = rng.uniform(0.01, 0.1, channels) if per_channel else 0.05
    special = [np.nan, NEG_NAN, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300]

    def fill_tract(t):
        t[0] = np.resize(special, t.shape[-1])
        t[2] = t[4] = np.resize([np.nan, NEG_NAN, 0.7], t.shape[-1])
        t[3] = np.broadcast_to(theta, channels)[3]  # z = 0

    def fill_energy(e):
        e[1] = np.resize(special, e.shape[-1])
        e[2] = np.nan
        e[4] = NEG_NAN

    ptn = PTNProcessor("ptn", {"theta": theta, "beta": beta})
    th = np.asarray(theta)[:, None] if per_channel else np.asarray(theta)
    be = np.asarray(beta)[:, None] if per_channel else np.asarray(beta)
    pairs = zip(_contiguous_and_offset(rng, channels, width, fill_energy),
                _contiguous_and_offset(rng, channels, width, fill_tract))
    for energy, tract in pairs:
        out = np.empty(energy.shape)
        ptn._gate(energy, tract, out)
        gate = logistic((tract - th) / be)
        _assert_same_bits(out, gate * energy)


def _assert_ptn_matches_the_formulas(segments, theta, beta, block_dt, block_df):
    """Stream each segment's (energy, tract, chunk widths) through one
    PTNProcessor, a discontinuity at each segment's first chunk, and
    compare the bits of every published key with the whole-array
    formulas applied to each segment."""
    ptn = PTNProcessor("ptn", {"theta": theta, "beta": beta,
                               "block_dt": block_dt, "block_df": block_df})
    th, be = (np.asarray(v)[:, None] if np.ndim(v) else v for v in (theta, beta))
    got = {"E_T": [], "E_T_valid": [], "E_blocks": []}
    want = {"E_T": [], "E_T_valid": [], "E_blocks": []}
    number = 0
    for energy, tract, widths in segments:
        assert sum(widths) == energy.shape[-1]
        state, start = None, 0
        for i, width in enumerate(widths):
            continuity = (Continuity.DISCONTINUOUS if i == 0
                          else Continuity.WITHPREVIOUS)
            merged, state = make_ptn_merged(
                energy[:, start : start + width], tract[:, start : start + width],
                continuity, number=number, state=state)
            for key, feature in ptn.process(merged).items():
                got[key].append(feature.payload)
            start += width
            number += 1
        et, counts = block_averages(
            energy * logistic((tract - th) / be), block_dt, block_df)
        eb, _ = block_averages(energy, block_dt, block_df)
        want["E_T"].append(et)
        want["E_T_valid"].append(counts)
        want["E_blocks"].append(eb)
    for key in want:
        _assert_same_bits(np.concatenate(got[key], axis=-1),
                          np.concatenate(want[key], axis=-1))
    return ptn


def _ptn_inputs(rng, channels, columns, block_dt):
    """Energy with NaN cells of both signs and an all-NaN group, tract
    scores around theta with NaN cells of both signs."""
    energy = rng.exponential(size=(channels, columns))
    energy[rng.random(energy.shape) < 0.1] = np.nan
    energy[rng.random(energy.shape) < 0.05] = NEG_NAN
    energy[4:8, : 3 + block_dt] = np.nan
    energy[12] = NEG_NAN
    tract = rng.uniform(0.3, 0.7, size=(channels, columns))
    tract[rng.random(tract.shape) < 0.05] = np.nan
    tract[rng.random(tract.shape) < 0.05] = NEG_NAN
    return energy, tract


@pytest.mark.parametrize("block_dt", [16, 100])
def test_tiled_block_averages_match_the_untiled_formula(block_dt):
    """ptn's block sums, one chunk each, at block counts around a tile's
    whole blocks, with NaN cells of both signs and all-NaN groups, whose
    0/0 mean must keep its bits."""
    channels, block_df = 13, 4
    per_tile = blocks_per_tile(channels, block_dt)
    rng = np.random.default_rng(block_dt)
    segments = []
    for around in AROUND_TILE.values():
        columns = around(per_tile) * block_dt + 5
        energy, tract = _ptn_inputs(rng, channels, columns + 3, block_dt)
        # a C-contiguous chunk and a column-offset view
        for e, t in [(energy[:, :columns].copy(), tract[:, :columns].copy()),
                     (energy[:, 3:], tract[:, 3:])]:
            assert np.isnan(block_averages(e, block_dt, block_df)[0]).any()
            segments.append((e, t, [columns]))
    _assert_ptn_matches_the_formulas(segments, 0.5, 0.05, block_dt, block_df)


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("block_dt", [16, 100])
def test_one_pass_ptn_matches_the_whole_array_formulas(per_channel, block_dt):
    """A sequence of chunks through ``process`` against one whole-array
    call per segment: carries of 0, 1 and block_dt - 1 columns, chunks
    that end at, one before and one after a tile edge, chunks shorter
    than a block, NaN of both signs in E and T, all-NaN groups and a
    discontinuity after a carried tail."""
    channels, block_df = 13, 4
    tile = blocks_per_tile(channels, block_dt) * block_dt
    rng = np.random.default_rng(block_dt + per_channel)
    theta = rng.uniform(0.4, 0.6, channels) if per_channel else 0.5
    beta = rng.uniform(0.01, 0.1, channels) if per_channel else 0.05
    # each chunk: the carry it starts with -> the carry it leaves
    first = [tile + 1,                 # 0 -> 1, one after a tile edge
             tile - 2,                 # 1 -> block_dt - 1, one before
             2 * tile - block_dt + 1,  # block_dt - 1 -> 0, at a tile edge
             3,                        # 0 -> 3, shorter than a block
             block_dt - 4,             # 3 -> block_dt - 1, still no block
             2,                        # block_dt - 1 -> 1, one block
             block_dt + 5]             # 1 -> 6, the tail that is dropped
    second = [block_dt - 1, tile + 1, 1, tile - block_dt - 1]
    segments = [(*_ptn_inputs(rng, channels, sum(widths), block_dt), widths)
                for widths in (first, second)]
    ptn = _assert_ptn_matches_the_formulas(
        segments, theta, beta, block_dt, block_df)
    assert ptn._carry_et.shape == ptn._carry_e.shape == (channels, 0)


def test_ptn_gates_each_tile_once_its_tail_included():
    """The tail is gated in the last tile, not in a pass of its own: one
    ``_fill`` for blocks and a tail that fit one tile, one for a carry
    that stays shorter than a block, and two for a tile of blocks, one
    more block and a tail."""
    channels, block_dt = 13, 16
    tile = blocks_per_tile(channels, block_dt) * block_dt
    ptn = PTNProcessor("ptn", {"theta": 0.5, "beta": 0.05,
                               "block_dt": block_dt, "block_df": 4})
    fill, calls = ptn._fill, []

    def counted_fill(*args):
        calls.append(args)
        return fill(*args)

    ptn._fill = counted_fill
    rng = np.random.default_rng(5)
    # each chunk: the carry it starts with -> the carry it leaves
    widths = [3 * block_dt + 5,            # 0 -> 5
              4,                           # 5 -> 9, no block
              tile + block_dt + 3 - 9]     # 9 -> 3
    state = None
    for number, (width, fills) in enumerate(zip(widths, [1, 1, 2])):
        energy, tract = _ptn_inputs(rng, channels, width, block_dt)
        merged, state = make_ptn_merged(
            energy, tract,
            Continuity.DISCONTINUOUS if number == 0 else Continuity.WITHPREVIOUS,
            number=number, state=state)
        calls.clear()
        ptn.process(merged)
        assert len(calls) == fills, f"chunk {number}"
    assert ptn._carry_et.shape == (channels, 3)


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


def _assert_streamed_equals_oracle(tmp_path, make_config):
    """Stream one plan, compute another's whole-signal reference, and
    compare every key; returns the streamed plan."""
    plan = validate_graph(config_from_dict(make_config(tmp_path / "out")))
    run_plan(plan)
    reference = run_unchunked(
        validate_graph(config_from_dict(make_config(tmp_path / "unused"))))
    for producer, feature in ALL_KEYS:
        _, records = read_chunk_file(tmp_path / "out" / f"{producer}.{feature}.tfc")
        streamed = concatenate_payloads(records)
        assert streamed.shape[-1] > 0
        problem = compare_streamed(
            streamed, reference[(producer, feature)].payload)
        assert problem is None, f"{producer}.{feature}: {problem}"
    return plan


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_streamed_equals_oracle_at_minimum_chunk_length(tmp_path, direction):
    chunk_size = _minimum_chunk_size(tmp_path / "probe", direction)
    plan = _assert_streamed_equals_oracle(
        tmp_path,
        lambda out: _mic_config(out, chunk_size, direction, num_chunks=24))
    depth = plan.merged_at["ptn"]
    assert plan.chunk_lengths["ptn"] == depth.d + depth.p + 1


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
@pytest.mark.parametrize("around", ["tile-1", "tile", "tile+1"])
def test_streamed_equals_oracle_across_tile_boundaries(tmp_path, direction,
                                                       around):
    """After the resampler (/2), chunks of 2 * columns samples reach the
    64-channel structure extractor and ptn as `columns`-column inputs.
    Shorter filters (20 ms) let the graph accept chunks that short."""
    columns = AROUND_TILE[around](tile_columns(64))

    def make_config(out_dir):
        raw = _mic_config(out_dir, 2 * columns, direction, num_chunks=6)
        for spec in raw["processors"]:
            if spec["name"] == "cochlea":
                spec["params"]["impulse_ms"] = 20
        return raw

    plan = _assert_streamed_equals_oracle(tmp_path, make_config)
    assert plan.chunk_lengths["se"] == plan.chunk_lengths["ptn"] == columns


@pytest.mark.parametrize("extra", [1, 60, 79])
def test_streamed_equals_oracle_after_a_short_final_chunk(tmp_path, extra):
    """The file pipeline on four 1024-sample chunks and ``extra`` more
    samples, which reach ptn as a final chunk of ceil(extra / 2)
    columns: fewer than E's held-back d_H = 40 for extra = 1 and 60, so
    that merge takes carried columns, and exactly 40 for extra = 79."""
    signal = synth_tone_noise(8000, 1.0)[: 4 * 1024 + extra]
    wav = write_wav(tmp_path / "in.wav", 8000, signal)
    plan = _assert_streamed_equals_oracle(
        tmp_path, lambda out: file_pipeline_config(wav, out, chunk_size=1024))
    d_H = plan.merged_at["ptn"].p - plan.cumulative[("cochlea", "E")].p
    assert d_H == 40


def test_oracle_memory_stays_below_two_and_a_half_full_width_arrays(tmp_path):
    """run_unchunked on the shipped file pipeline: the traced peak above
    the starting point, in float64 arrays of channels x columns.  It
    measured 2.25 with ptn in one tile pass, 3.2 with a full-width gated
    array and 6.1 with full-width temporaries (4 s of 16 kHz input)."""
    shipped = Path(__file__).resolve().parent.parent / "configs" / "file_pipeline.yaml"
    raw = yaml.safe_load(shipped.read_text())
    params = {p["name"]: p["params"] for p in raw["processors"]}
    params["reader"]["path"] = str(write_wav(
        tmp_path / "in.wav", 16000, synth_tone_noise(16000, 4.0)))
    params["out"]["directory"] = str(tmp_path / "out")
    plan = validate_graph(config_from_dict(raw))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = run_unchunked(plan)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    full_width = results[("cochlea", "E")].payload.nbytes
    assert peak < 2.5 * full_width, f"peak {peak / full_width:.2f} arrays"


def test_ptn_chunk_memory_stays_below_half_an_input():
    """One process call on a long chunk, its scratch included, allocates
    less than half of one input array: no chunk-wide gated array and no
    copy of the energy with its carry."""
    rng = np.random.default_rng(17)
    energy = rng.exponential(size=(64, 16000))
    tract = rng.uniform(0.9, 1.0, size=(64, 16000))
    merged, _ = make_ptn_merged(energy, tract, Continuity.DISCONTINUOUS)
    ptn = PTNProcessor("ptn", {"theta": 0.96, "beta": 0.02})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ptn.process(merged)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * energy.nbytes, f"peak {peak / energy.nbytes:.2f} inputs"

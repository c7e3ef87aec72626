"""Experiment config, Monte-Carlo engine, sweeps, and calibration."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from burst_oracle import add_w_bursts
from rfsn import channel, chirp, cli, harness, powersim, rxdsp
from rfsn.errors import CalibrationError, ConfigurationError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# -------------------------------------------------------------------- config

def test_parse_config_comments_and_types():
    cfg = harness.parse_config(
        """
        # a comment
        sf = 9
        bursts_enabled = true
        sweep_axis = pr_dbm
        sweep_values = 1, 2.5, 3
        """
    )
    assert cfg.sf == 9
    assert cfg.bursts_enabled is True
    assert cfg.sweep_values == (1.0, 2.5, 3.0)


def test_parse_config_unknown_key_rejected():
    with pytest.raises(ConfigurationError):
        harness.parse_config("not_a_key=1\n")
    # nothing reads a scenario name, so a config may not give one
    with pytest.raises(ConfigurationError, match="unknown key 'scenario'"):
        harness.parse_config("scenario = ber-sweep\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("sf = 7\nn0_w_per_hz = nan\n", 2),
        pytest.param(
            "template = complex\nsf = 7\nsweep_values = nan, 1\n", 3, id="sweep_values-line-3"
        ),
        ("eirp_dbm = inf\n", 1),
        ("sweep_values = 1, -inf\n", 1),
        # built in code: construction checks these values, as parsing does
        pytest.param(
            dict(n0_w_per_hz=math.nan, sweep_values=[math.nan]), None, id="built-nan"
        ),
        pytest.param(
            dict(eirp_dbm=math.inf, sweep_values=[1.0, -math.inf]), None, id="built-inf"
        ),
    ],
)
def test_parse_config_rejects_non_finite(text, lineno):
    if lineno is None:
        with pytest.raises(
            ConfigurationError, match=r"=(nan|inf) is not finite; sweep_values=.* non-finite"
        ):
            harness.ExperimentConfig(**text)
        return
    with pytest.raises(ConfigurationError, match=f"line {lineno}: .*non-finite"):
        harness.parse_config(text)


def test_validate_collects_all_problems():
    with pytest.raises(ConfigurationError) as err:
        harness.ExperimentConfig(sf=99, template="nope", sweep_axis="sideways")
    msg = str(err.value)
    assert "sf" in msg and "template" in msg and "sweep" in msg


def test_validate_rejects_points_off_the_measured_grid():
    with pytest.raises(ConfigurationError, match=r"\(22.1 dBm, 0.0 cm\) outside the measured grid"):
        harness.parse_config("depth_cm = 0\n")
    # every sweep point along an EIRP or depth axis, in the one message
    with pytest.raises(ConfigurationError) as err:
        harness.ExperimentConfig(sf=99, sweep_values=[22.1, 40.0, 9.0])
    msg = str(err.value)
    assert "sf" in msg and "(40.0 dBm, 13.5 cm) outside" in msg and "(9.0 dBm, 13.5 cm)" in msg
    with pytest.raises(ConfigurationError, match=r"\(22.1 dBm, 20.0 cm\) outside"):
        harness.ExperimentConfig(sweep_axis="depth_cm", sweep_values=[3.5, 20.0])
    # a pr_dbm sweep still needs its base point on the grid
    with pytest.raises(ConfigurationError, match=r"\(5.0 dBm, 13.5 cm\) outside"):
        harness.ExperimentConfig(eirp_dbm=5.0, sweep_axis="pr_dbm", sweep_values=[-95.0])
    # other axes' values are not EIRPs or depths
    harness.ExperimentConfig(sweep_axis="bandwidth_hz", sweep_values=[4096.0])
    # the calibration anchor, named once where it equals the base point
    with pytest.raises(ConfigurationError, match=r"\(5.0 dBm, 13.5 cm\) outside"):
        harness.parse_config("anchor_eirp_dbm = 5\n")
    with pytest.raises(ConfigurationError) as err:
        harness.parse_config("depth_cm = 0\n")
    assert str(err.value).count("(22.1 dBm, 0.0 cm)") == 1


@pytest.mark.parametrize("variant, scale", [("passive", 5.0), ("active", 1.7), ("passive", 0.0)])
def test_validate_rejects_an_efficiency_scale_the_charge_sweep_refuses(variant, scale):
    text = f"charge_variant = {variant}\nefficiency_scale = {scale}\n"
    want = re.escape(f"efficiency_scale={scale}: scaled efficiency must stay within")
    with pytest.raises(ConfigurationError, match=want):
        harness.parse_config(text)
    # the largest scale each variant's efficiency curve allows is valid
    top = 1.0 / 0.62 if variant == "active" else 1.0 / 0.50
    harness.ExperimentConfig(charge_variant=variant, efficiency_scale=top)


def test_validate_builds_the_clock_of_every_bandwidth_point():
    # a bandwidth point sets the chirp clock (8 * bw), so a bad one fails at parse time
    want = re.escape("bandwidth_hz=-4096.0: fosc_hz must be positive, got -32768.0")
    with pytest.raises(ConfigurationError, match=want):
        harness.parse_config("sweep_axis = bandwidth_hz\nsweep_values = 4096, -4096\n")
    # a bad sf is named once, not again for each bandwidth point
    with pytest.raises(ConfigurationError) as err:
        harness.ExperimentConfig(sf=99, sweep_axis="bandwidth_hz", sweep_values=[4096.0, 1e6])
    assert str(err.value) == "invalid config: sf must lie in [5, 12], got 99"


def test_validate_converts_every_pr_point_to_watts():
    # as the sweeps do, so a point whose power overflows fails at parse time
    want = re.escape("pr_dbm=1e+300: 1e+300 dBm is too large to express in watts")
    with pytest.raises(ConfigurationError, match=want):
        harness.parse_config("sweep_axis = pr_dbm\nsweep_values = -95, 1e300\n")
    with pytest.raises(ConfigurationError, match=re.escape("pr_dbm=-95.0: 1e+300 dBm")) as exc:
        harness.ExperimentConfig(sweep_axis="pr_dbm", sweep_values=[-95.0], composite_gain_db=1e300)
    assert "with composite_gain_db=1e+300" in str(exc.value)  # the key that is wrong


def test_sweep_values_is_a_tuple():
    # a list given to the config is stored as a tuple, so it cannot be changed in place
    cfg = harness.ExperimentConfig(sweep_values=[22.1, 23.0])
    assert cfg.sweep_values == (22.1, 23.0)
    with pytest.raises(TypeError):
        cfg.sweep_values[0] = -1e9


def test_validate_names_the_capacitance_key():
    want = re.escape("capacitance_f=0.0: capacitance must be positive, got 0.0")
    with pytest.raises(ConfigurationError, match=want):
        harness.parse_config("capacitance_f = 0\n")


def test_config_is_frozen_and_validated_on_replace():
    cfg = harness.ExperimentConfig()
    with pytest.raises(ConfigurationError, match=r"base_seed=-1 must be >= 0"):
        dataclasses.replace(cfg, base_seed=-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.base_seed = -1
    assert cfg.base_seed == 1234


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ConfigurationError, match="line 3: key 'sf' already set on line 1"):
        harness.parse_config("sf = 7\nfosc_hz = 1e6\nsf = 9\n")


def test_load_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("sf = 6\n")
    assert harness.load_config(path).sf == 6


# -------------------------------------------------------------------- engine

def _params():
    return chirp.derive_params(7, 32768, fs_hz=32768)


@pytest.mark.parametrize(
    "kind,lo,hi",
    [
        ("complex", 0.97, 1.001),
        ("cosine", 0.47, 0.53),
        ("square-ideal", 0.37, 0.44),
        ("square-quantized", 0.23, 0.31),
    ],
)
def test_engine_detection_fraction_by_template(kind, lo, hi):
    eng = harness.BerEngine(_params(), kind)
    assert lo < eng.detection_fraction() < hi


# SHA-256 of BerEngine(p, kind).templates.tobytes() at sf 5/7/9, fs = fosc =
# 32768 Hz, as built by the out-of-place mean removal and scaling
# (tpl - mean, abs(tpl) ** 2, tpl / rms) before they moved in place; taken
# with numpy 2.4 on x86-64, whose cos and exp the cosine and complex rows use.
_TEMPLATE_DIGESTS = {
    (5, "square-quantized"): "51937d2d840d38c1fc48c3ed35298a55f6698911a41b61d478d9ad08fa0d1782",
    (5, "square-ideal"): "048c0ae6b6c75fa1ac824abc3e5a7dd61ae3b6508aedcd57884f4cda627f29b8",
    (5, "cosine"): "04dfc69b70fee2cbbe794ddf52eab78c5a4af333f25950760536af8ae07e37f8",
    (5, "complex"): "969cb7ef7ba1d641135a3b1220458a5e5f321c72eb5a27e86da3c92c5e0109e1",
    (7, "square-quantized"): "cd6e22a09964ff62a92e0b5c1c7f4c45855af3f9dab9606800a43cc53c00bc28",
    (7, "square-ideal"): "8fdf35ed6afb580ed11a5421fe1d5a5f842e77780fcfd5e5be4976f0b7771724",
    (7, "cosine"): "d69137b618c38205174214e216b3381864de19c0517ed13e01b0991bb3dd73d5",
    (7, "complex"): "bdaca5f7d8b099669888efc0f89fae0bd7eeacb0d824ad7e0d9c25841422a4ac",
    (9, "square-quantized"): "8f2a97b14757a6c9385e4987d50b21e0264c8d5115d28a6e9ba59378ee0159da",
    (9, "square-ideal"): "069e59648da248fe8d4896ed0bc65afba9be95ac19971aef79b766db44e11837",
    (9, "cosine"): "483223cfcfbd26fef08a51118c1c62efc1ce302e89d1c70c6959fcec115b7c0c",
    (9, "complex"): "86b0510668a53d65a7633ce006f8e4ebfcd51570d749a9e0b0f9a12929190548",
}


@pytest.mark.parametrize("sf,kind", list(_TEMPLATE_DIGESTS))
def test_engine_templates_are_pinned(sf, kind):
    p = chirp.derive_params(sf, 32768.0, fs_hz=32768.0)
    templates = harness.BerEngine(p, kind).templates
    assert hashlib.sha256(templates.tobytes()).hexdigest() == _TEMPLATE_DIGESTS[(sf, kind)]


def test_engine_noiseless_is_error_free():
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(_params(), kind)
        res = eng.run(1.0, 1e-15, 512, seed=9)
        assert res.n_symbol_errors == 0, kind


def test_engine_seed_reproducibility():
    eng = harness.BerEngine(_params(), "complex")
    a = eng.run(1e-2, 1e-4, 2000, seed=1)
    b = eng.run(1e-2, 1e-4, 2000, seed=1)
    c = eng.run(1e-2, 1e-4, 2000, seed=2)
    assert a == b
    assert a != c


def test_engine_bursts_raise_errors_at_high_snr():
    eng = harness.BerEngine(_params(), "complex")
    clean = eng.run(1.0, 1e-12, 4096, seed=3)
    hit = eng.run(1.0, 1e-12, 4096, seed=3, bursts=True)
    assert clean.n_symbol_errors == 0
    assert hit.n_symbol_errors > 0


@pytest.mark.parametrize("sf", [5, 7])
def test_engine_noise_factor_reproduces_dechirp_covariance(sf):
    # the bin noise of every template must have the stacked (Re, Im)
    # covariance of mean-removed white noise after dechirp_bins, D P, with D
    # built column by column from eye(M): complex noise of unit total power
    # per sample for the complex template, real unit-variance noise otherwise
    p = chirp.derive_params(sf, 32768.0, fs_hz=32768.0)
    m, n = p.samples_per_symbol, p.n_bins
    dp = rxdsp.dechirp_bins(np.eye(m), p).T @ (np.eye(m) - 1.0 / m)
    real_map = np.empty((2 * n, m))  # (Re, Im) of the bins, interleaved
    real_map[0::2], real_map[1::2] = dp.real, dp.imag
    imag_map = np.empty((2 * n, m))  # the same for an imaginary input
    imag_map[0::2], imag_map[1::2] = -dp.imag, dp.real
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(p, kind)
        if kind == "complex":
            want = 0.5 * (real_map @ real_map.T + imag_map @ imag_map.T)
        else:
            want = real_map @ real_map.T
        # row j of the bin noise is the factor applied to the unit vector e_j
        factor = eng._bin_noise(np.eye(2 * n), 1.0).view(np.float64)
        got = factor.T @ factor
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), kind


def test_engine_real_noise_factor_is_built_only_by_a_run():
    # an engine built for its templates or capture alone (perfbench's
    # synth_demod builds four at sf 9) never pays for the real factor
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(_params(), kind)
        eng.detection_fraction()
        assert "_real_noise_factor" not in vars(eng), kind
    eng = harness.BerEngine(_params(), "cosine")
    eng.run(1e-2, 1e-4, 10, seed=1)  # a run of a real template builds it
    assert vars(eng)["_real_noise_factor"].shape == (2 * eng.p.n_bins,) * 2


def test_engine_run_draws_no_time_domain_noise(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("BerEngine.run drew time-domain noise")

    monkeypatch.setattr(channel.NoiseModel, "add", refuse)
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(_params(), kind)
        res = eng.run(1e-2, 1e-4, 300, seed=4, bursts=True)
        assert res.n_symbols == 300, kind


def _burst_stream_bins(eng, arrivals, amp, n_symbols):
    """dechirp_bins of the mean-removed burst stream of n_symbols symbols."""
    p = eng.p
    m = p.samples_per_symbol
    x = np.zeros(n_symbols * m)
    add_w_bursts(x, arrivals, 0.0, p.fs_hz, amp)
    rows = x.reshape(n_symbols, m)
    return rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)


def _engine_burst_bins(eng, arrivals, amp, k0, k1):
    """The touched symbols of [k0, k1) and their burst bins, as BerEngine.run adds them."""
    p = eng.p
    ks, rows = channel._burst_rows(arrivals, p.samples_per_symbol, p.fs_hz, amp, k0, k1)
    return ks, rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)


def test_engine_burst_bins_match_the_time_domain_stream():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, "complex")
    n_symbols = 400
    # ~8 bursts a second, denser than the model's 2, so runs of hit symbols
    # and overlapping bursts occur
    arrivals = np.sort(np.random.default_rng(5).uniform(0.0, n_symbols * p.ds_s, 25))
    want = _burst_stream_bins(eng, arrivals, 0.3, n_symbols)
    ks, bins = _engine_burst_bins(eng, arrivals, 0.3, 0, n_symbols)
    got = np.zeros_like(want)
    got[ks] = bins
    assert 0 < len(ks) < n_symbols
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_engine_burst_crossing_a_chunk_edge_reaches_the_next_chunk():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    m = p.samples_per_symbol
    eng = harness.BerEngine(p, "complex")
    edge = harness.ENGINE_BATCH  # first symbol of chunk 1
    arrivals = np.array([(edge * m - 10) / p.fs_hz])  # 10 samples before the edge
    head_ks, head = _engine_burst_bins(eng, arrivals, 1.0, 0, edge)
    tail_ks, tail = _engine_burst_bins(eng, arrivals, 1.0, edge, edge + 1)
    assert (list(head_ks), list(tail_ks)) == ([edge - 1], [edge])
    want = _burst_stream_bins(eng, arrivals, 1.0, edge + 1)[edge - 1 :]
    bins = np.concatenate([head, tail])
    assert np.max(np.abs(tail)) > 1.0  # the tail changes chunk 1's first symbol
    assert np.max(np.abs(bins - want)) <= 1e-9 * np.max(np.abs(want))


def test_engine_burst_past_the_last_symbol_is_cut_off():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    m = p.samples_per_symbol
    bursts = channel.WBurstModel
    n_symbols = 3
    arrivals = np.array([(n_symbols * m - 4) / p.fs_hz])  # 4 samples before the end
    ks, rows = channel._burst_rows(arrivals, m, p.fs_hz, 1.0, 0, n_symbols)
    assert list(ks) == [n_symbols - 1]
    last = np.zeros(m)
    n_burst = int(round(bursts.DURATION_S * p.fs_hz))
    last[-4:] = bursts.AMPLITUDE_SCALE * channel.burst_template(n_burst)[:4]
    assert np.array_equal(rows, last[None, :])


def test_split_normal_draws_equal_one_draw():
    # BerEngine.run draws a chunk's symbols, then its normals in row blocks
    child = np.random.SeedSequence(21).spawn(3)[1]
    rng = np.random.default_rng(child)
    rng.integers(0, 128, size=4097)
    whole = rng.standard_normal((4097, 256))
    rng = np.random.default_rng(child)
    rng.integers(0, 128, size=4097)
    sizes = [1, 3, 512, 1, 3576, 4]
    parts = [rng.standard_normal((k, 256)) for k in sizes]
    assert sum(sizes) == 4097
    assert np.array_equal(np.concatenate(parts), whole)
    # and the same again drawn into the leading rows of two reused buffers
    rng = np.random.default_rng(child)
    rng.integers(0, 128, size=4097)
    buffers = [np.full((3576, 256), np.nan) for _ in range(2)]
    parts = []
    for i, k in enumerate(sizes):
        rng.standard_normal(out=buffers[i % 2][:k])
        parts.append(buffers[i % 2][:k].copy())
    assert np.array_equal(np.concatenate(parts), whole)


def _serial_decisions(eng, ps_w, n0, n_symbols, seed, bursts):
    """(sent, detected) of BerEngine.run as one plain loop: the same chunks,
    row blocks and draws, each drawn fresh and decided inline."""
    p = eng.p
    m, n = p.samples_per_symbol, p.n_bins
    amp = math.sqrt(ps_w)
    n_chunks = -(-n_symbols // harness.ENGINE_BATCH)
    streams = np.random.SeedSequence(seed).spawn(n_chunks + 1)
    arrivals = np.empty(0)
    if bursts:
        rng = np.random.default_rng(streams[-1])
        arrivals = channel.WBurstModel.arrival_times(n_symbols * m / p.fs_hz, rng)
    var = channel.NoiseModel(n0).variance(p.fs_hz)
    block = max(1, harness.ENGINE_BLOCK_BYTES // (16 * n))
    sent, detected = [], []
    for c in range(n_chunks):
        start = c * harness.ENGINE_BATCH
        stop = min(start + harness.ENGINE_BATCH, n_symbols)
        rng = np.random.default_rng(streams[c])
        sent.append(rng.integers(0, n, size=stop - start))
        for b0 in range(start, stop, block):
            b1 = min(b0 + block, stop)
            stats = eng._bin_noise(rng.standard_normal((b1 - b0, 2 * n)), var)
            stats += amp * eng.template_bins[sent[-1][b0 - start : b1 - start]]
            ks, rows = channel._burst_rows(arrivals, m, p.fs_hz, amp, b0, b1)
            if len(ks):
                stats[ks - b0] += rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)
            detected.append(np.argmax(np.abs(stats), axis=1))
    return np.concatenate(sent), np.concatenate(detected)


@pytest.fixture
def scored(monkeypatch):
    """The (sent, detected) arrays of every BerEngine.run since, in order."""
    runs = []

    def score(sent, detected, sf):
        runs.append((sent.copy(), detected.copy()))
        return real(sent, detected, sf)

    real = rxdsp.score
    monkeypatch.setattr(rxdsp, "score", score)
    return runs


@pytest.mark.parametrize("with_bursts", [False, True], ids=["awgn", "bursts"])
@pytest.mark.parametrize("kind", harness.TEMPLATE_KINDS)
def test_engine_run_is_independent_of_the_row_block(kind, with_bursts, scored, monkeypatch):
    # every run decides as the plain loop over the same row blocks does, and
    # the result does not depend on the block size.  The complex template
    # draws each block on a worker thread into one of two reused buffers, so
    # its runs are repeated: a buffer refilled too early would show.
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, kind)
    frac = 1.0 if kind == "complex" else eng.detection_fraction()
    n0 = 1e-3
    ps = rxdsp.snr_for_ber(0.05, p.sf) * p.bw_hz * n0 / frac
    results = {}
    for rows in (1, 3, 512, 4096):
        monkeypatch.setattr(harness, "ENGINE_BLOCK_BYTES", rows * 16 * p.n_bins)
        for n in sorted({1, rows - 1, rows, rows + 1, 4095, 4096, 4097, 9000} - {0}):
            sent, detected = _serial_decisions(eng, ps, n0, n, 17, with_bursts)
            for _ in range(2 if kind == "complex" else 1):
                res = eng.run(ps, n0, n, seed=17, bursts=with_bursts)
                assert np.array_equal(scored[-1][0], sent), (rows, n)
                assert np.array_equal(scored[-1][1], detected), (rows, n)
            results.setdefault(n, []).append(res)
    for n in (1, 4095, 4096, 4097, 9000):
        assert all(r == results[n][-1] for r in results[n]), (n, results[n])
        assert n == 1 or 0 < results[n][-1].n_symbol_errors < n  # the draw decides


def test_engine_runs_on_more_threads_than_cores_equal_the_serial_oracle(scored):
    # three callers, each with its own draw-ahead worker, switching threads
    # every 10 us: a buffer handed over too early changes a decision
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, "complex")
    n0 = 1e-3
    ps = rxdsp.snr_for_ber(0.05, p.sf) * p.bw_hz * n0
    want = {seed: _serial_decisions(eng, ps, n0, 9000, seed, True) for seed in (1, 2, 3)}

    def caller(seed):
        for _ in range(3):
            eng.run(ps, n0, 9000, seed=seed, bursts=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(seed,)) for seed in want]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(scored) == 9  # every run ended, none raised

    def digest(sent, detected):
        return hashlib.sha256(sent.tobytes() + detected.tobytes()).hexdigest()

    assert Counter(digest(*r) for r in scored) == {digest(*r): 3 for r in want.values()}


@pytest.mark.parametrize("kind", harness.TEMPLATE_KINDS)
def test_engine_run_leaves_no_thread(kind):
    eng = harness.BerEngine(_params(), kind)
    before = threading.active_count()
    eng.run(1e-2, 1e-4, 5000, seed=2, bursts=True)
    assert threading.active_count() == before


def test_engine_run_error_in_a_block_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    def fail(self, z, var):
        raise FloatingPointError("block failed")

    monkeypatch.setattr(harness.BerEngine, "_bin_noise", fail)
    before = threading.active_count()
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(_params(), kind)
        with pytest.raises(FloatingPointError, match="block failed") as failed:
            eng.run(1e-2, 1e-4, 5000, seed=2)
        # checked while the traceback, which holds run's frame, is alive
        assert failed.tb is not None and threading.active_count() == before, kind


def test_engine_run_error_in_the_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    blocks = harness.BerEngine._noise_blocks

    def fail_after_one(self, *args):
        gen = blocks(self, *args)
        yield next(gen)
        raise FloatingPointError("draw failed")

    monkeypatch.setattr(harness.BerEngine, "_noise_blocks", fail_after_one)
    eng = harness.BerEngine(_params(), "complex")
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed") as failed:
        eng.run(1e-2, 1e-4, 5000, seed=2)
    assert failed.tb is not None and threading.active_count() == before


def test_engine_run_draws_the_complex_blocks_on_a_worker_alone(monkeypatch):
    # the worker draws and nothing else: the dechirp, the burst rows and the
    # colouring (the calls a tracer may wrap) stay on the calling thread
    threads = {}

    def record(owner, attr):
        raw = getattr(owner, attr)

        def call(*args, **kwargs):
            threads.setdefault(attr, set()).add(threading.get_ident())
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, attr, call)

    for owner, attr in [(rxdsp, "dechirp_bins"), (channel, "_burst_rows"), (harness.BerEngine, "_bin_noise")]:
        record(owner, attr)
    blocks = harness.BerEngine._noise_blocks

    def drawn(self, *args):
        for item in blocks(self, *args):
            threads.setdefault("draw", set()).add(threading.get_ident())
            yield item

    monkeypatch.setattr(harness.BerEngine, "_noise_blocks", drawn)
    for kind in ("complex", "square-quantized"):
        threads.clear()
        harness.BerEngine(_params(), kind).run(1e-2, 1e-4, 5000, seed=2, bursts=True)
        here = {threading.get_ident()}
        assert all(threads[k] == here for k in ("dechirp_bins", "_burst_rows", "_bin_noise")), kind
        assert (threads["draw"] == here) == (kind != "complex"), kind


_ONE_THREAD_RUN = """
import dataclasses, json, sys
from rfsn import chirp, harness, rxdsp
p = chirp.derive_params(7, 32768.0, fs_hz=32768.0)
out = {}
for kind in harness.TEMPLATE_KINDS:
    eng = harness.BerEngine(p, kind)
    ps = rxdsp.snr_for_ber(1.5e-3, 7) * p.bw_hz * 1e-3 / eng.detection_fraction()
    out[kind] = dataclasses.asdict(eng.run(ps, 1e-3, 20000, seed=42))
print(json.dumps(out))
"""


def test_engine_run_does_not_depend_on_the_blas_thread_count():
    # seeded real-template runs once differed with the LAPACK threading,
    # which picks the basis of a repeated eigenvalue's eigenspace (sf 7:
    # 271 against 289 symbol errors on this run)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_RUN], env=env, capture_output=True,
                          text=True, check=True)
    one_thread = json.loads(proc.stdout)
    p = _params()
    for kind in harness.TEMPLATE_KINDS:
        eng = harness.BerEngine(p, kind)
        ps = rxdsp.snr_for_ber(1.5e-3, 7) * p.bw_hz * 1e-3 / eng.detection_fraction()
        assert dataclasses.asdict(eng.run(ps, 1e-3, 20000, seed=42)) == one_thread[kind], kind


def _time_domain_ser(eng, ps_w, n0, n_symbols, seed, bursts):
    """Reference chain in the time domain: NoiseModel.add, mean removal,
    dechirp_bins and argmax, block by block over one burst-arrival draw."""
    p = eng.p
    m = p.samples_per_symbol
    rng = np.random.default_rng(seed)
    amp = math.sqrt(ps_w)
    noise = channel.NoiseModel(n0)
    if bursts:
        arrivals = channel.WBurstModel.arrival_times(n_symbols * m / p.fs_hz, rng)
    errors = 0
    for start in range(0, n_symbols, 1000):
        nb = min(1000, n_symbols - start)
        tx = rng.integers(0, p.n_bins, size=nb)
        x = amp * eng.templates[tx]
        if bursts:
            b = np.zeros(nb * m)
            add_w_bursts(b, arrivals, start * m / p.fs_hz, p.fs_hz, amp)
            x = x + b.reshape(nb, m)
        y = noise.add(x, p.fs_hz, rng)
        y = y - y.mean(axis=1, keepdims=True)
        errors += np.count_nonzero(np.argmax(np.abs(rxdsp.dechirp_bins(y, p)), axis=1) != tx)
    return errors / n_symbols


@pytest.mark.parametrize(
    "kind,with_bursts",
    [(kind, False) for kind in harness.TEMPLATE_KINDS]
    + [("complex", True), ("square-quantized", True)],
    ids=lambda v: v if isinstance(v, str) else ("bursts" if v else "awgn"),
)
def test_engine_ser_matches_time_domain_oracle(kind, with_bursts):
    # criterion 5's Pb grid, power scaling and chain; matched n, independent
    # seeds, one seed block for the complex and one for the real templates
    p = chirp.derive_params(7, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, kind)
    frac = 1.0 if kind == "complex" else eng.detection_fraction()
    seed = 300 if kind == "complex" else 1300
    n0, n = 1e-3, 6000
    for i, pb in enumerate([0.15, 0.07, 0.02, 6e-3, 1.5e-3]):
        ps = rxdsp.snr_for_ber(pb, p.sf) * p.bw_hz * n0 / frac
        ser = eng.run(ps, n0, n, seed=seed + i, bursts=with_bursts).ser
        ref = _time_domain_ser(eng, ps, n0, n, seed + 100 + i, with_bursts)
        pooled = 0.5 * (ser + ref)
        sigma = math.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
        assert abs(ser - ref) <= 4.0 * sigma, (pb, ser, ref)


# -------------------------------------------------------------------- sweeps

def test_ber_sweep_rows_and_determinism():
    cfg = harness.ExperimentConfig(
        sweep_axis="pr_dbm",
        sweep_values=[54.0, 56.0],
        n_symbols=1500,
        composite_gain_db=0.0,
        template="complex",
    )
    rows = harness.run_ber_sweep(cfg)
    rows2 = harness.run_ber_sweep(cfg)
    assert [r.ber for r in rows] == [r.ber for r in rows2]
    assert [r.axis_value for r in rows] == [54.0, 56.0]
    assert rows[0].ber > rows[1].ber  # more power, fewer errors
    for r in rows:
        assert r.n_symbols == 1500
        assert 0 <= r.ser <= 1 and 0 <= r.ber <= 1
        assert r.wilson95 > 0
    text = cli.rows_text(rows, "csv")
    assert text.splitlines()[0].startswith("axis,axis_value,pr_dbm,ps_w,snr_db")
    assert cli.rows_text(rows, "json").startswith("[")


def test_ber_sweep_snr_uses_the_engine_capture():
    cfg = harness.ExperimentConfig(
        sweep_axis="pr_dbm", sweep_values=[54.0], n_symbols=50, template="complex"
    )
    (row,) = harness.run_ber_sweep(cfg)
    p = harness._engine_params(cfg)
    capture = harness.BerEngine(p, "complex").detection_fraction()
    assert capture > 0.97  # not the square-chirp 0.712
    snr = capture * row.ps_w / (p.bw_hz * cfg.n0_w_per_hz)
    assert row.snr_db == pytest.approx(10.0 * math.log10(snr), rel=1e-12)
    assert row.theory_pb == pytest.approx(rxdsp.ber_theory(snr, cfg.sf), rel=1e-12)


def test_ber_sweep_eirp_axis_uses_power_table():
    cfg = harness.ExperimentConfig(
        sweep_axis="eirp_dbm",
        sweep_values=[23.6],
        depth_cm=13.5,
        n_symbols=100,
        composite_gain_db=0.0,
    )
    (row,) = harness.run_ber_sweep(cfg)
    assert row.pr_dbm == pytest.approx(-7.3)


def test_ber_sweep_with_bursts_is_pinned():
    # bandwidth_bursts.cfg at 7000 symbols, seed 1: every field but runtime_s
    cfg = harness.load_config(CONFIGS / "bandwidth_bursts.cfg")
    rows = harness.run_ber_sweep(dataclasses.replace(cfg, n_symbols=7000, base_seed=1))
    got = [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "runtime_s"} for r in rows
    ]
    common = dict(axis="bandwidth_hz", pr_dbm=-7.3, ps_w=0.00018620871366628695,
                  n_symbols=7000, theory_pb=0.0)
    assert got == [
        dict(common, axis_value=4096.0, snr_db=46.5514873786544, ser=0.05928571428571429,
             ber=0.03046938775510204, wilson95=0.001522203277204556, interference_es=0.0625),
        dict(common, axis_value=125000.0, snr_db=31.70598672825158, ser=0.006142857142857143,
             ber=0.003551020408163265, wilson95=0.0005281041539183999,
             interference_es=0.006144),
        dict(common, axis_value=250000.0, snr_db=28.69568677161177, ser=0.012285714285714285,
             ber=0.005979591836734694, wilson95=0.0006836979404247542,
             interference_es=0.006144),
    ]


def test_charge_sweep_passive_and_never():
    cfg = harness.ExperimentConfig(
        sweep_axis="pr_dbm",
        charge_variant="passive",
        sweep_values=[-2.3, -20.0],
        capacitance_f=22e-6,
    )
    rows = harness.run_charge_sweep(cfg)
    assert rows[0].time_s < math.inf
    assert rows[1].time_s == math.inf


def test_charge_sweep_reads_values_along_the_sweep_axis():
    table = channel.IncidentPowerTable.default()
    cfg = harness.load_config(CONFIGS / "eirp_ber_sweep.cfg")
    rows = harness.run_charge_sweep(cfg)
    assert [r.pr_dbm for r in rows] == [
        table.incident_power_dbm(v, 13.5) for v in cfg.sweep_values
    ]
    cfg = dataclasses.replace(cfg, sweep_axis="depth_cm", sweep_values=[3.5, 13.5])
    assert [r.pr_dbm for r in harness.run_charge_sweep(cfg)] == [
        table.incident_power_dbm(cfg.eirp_dbm, d) for d in (3.5, 13.5)
    ]
    cfg = harness.load_config(CONFIGS / "bandwidth_bursts.cfg")
    with pytest.raises(ConfigurationError, match="bandwidth_hz"):
        harness.run_charge_sweep(cfg)


def test_fit_passive_efficiency_scale_hits_anchor():
    scale = harness.fit_passive_efficiency_scale()
    # the value perfbench/reference.json pins: every bisection step's charge time is exact
    assert scale == 0.2828217874326667
    h = powersim.HarvesterModel.default_passive().with_scale(scale)
    leak = powersim.LeakageCurve.constant(powersim.P_SLEEP_W)
    c = powersim.Capacitor(22e-6)
    t = powersim.time_to_voltage(c, -2.3, h, leak, dt_s=5e-4)
    assert t == pytest.approx(0.9, abs=0.02)


def test_theory_report_shape():
    cfg = harness.ExperimentConfig(composite_gain_db=0.0)
    rows = harness.run_theory_report(cfg)
    assert [r.fosc_hz for r in rows] == [32768.0, 1e6, 2e6, 4e6]
    for r in rows:
        assert r.bw_hz == pytest.approx(r.fosc_hz / 8)
        assert r.ds_s == pytest.approx(2**7 / r.bw_hz)
        assert r.rd_bps == pytest.approx(7 * r.bw_hz / 2**7)
        assert 0 <= r.pb <= 0.5
        assert 0 <= r.interference_es <= 1


# ---------------------------------------------------------------- calibration

def test_calibrate_matches_anchor_ber():
    cfg = harness.ExperimentConfig(
        anchor_eirp_dbm=22.1,
        anchor_ber=0.162,
        n_symbols_calibration=4000,
    )
    res = harness.calibrate_composite_gain(cfg)
    lo, hi = rxdsp.wilson_interval(
        round(res.achieved_ber * res.n_symbols * cfg.sf), res.n_symbols * cfg.sf
    )
    half = 0.5 * (hi - lo)
    assert abs(res.achieved_ber - 0.162) <= 3 * half + 0.01


@pytest.fixture
def engine_powers(monkeypatch):
    """The ps_w of every BerEngine.run call, in call order."""
    powers = []
    run = harness.BerEngine.run

    def counted(self, ps_w, *args, **kwargs):
        powers.append(ps_w)
        return run(self, ps_w, *args, **kwargs)

    monkeypatch.setattr(harness.BerEngine, "run", counted)
    return powers


def test_calibrate_falls_back_to_the_wide_bracket(monkeypatch, engine_powers):
    # a closed-form start 20 dB too high: its bracket's low end already
    # errs too little, so the search checks and bisects CALIBRATION_BRACKET_DB
    snr_for_ber = rxdsp.snr_for_ber
    monkeypatch.setattr(rxdsp, "snr_for_ber", lambda pb, sf: 100.0 * snr_for_ber(pb, sf))
    cfg = harness.ExperimentConfig(
        anchor_eirp_dbm=22.1,
        anchor_ber=0.162,
        n_symbols_calibration=4000,
    )
    res = harness.calibrate_composite_gain(cfg)
    lo_db, hi_db = harness.CALIBRATION_BRACKET_DB
    assert [channel.dbm_to_w(res.anchor_pr_dbm + g) for g in (lo_db, hi_db)] == engine_powers[1:3]
    lo, hi = rxdsp.wilson_interval(
        round(res.achieved_ber * res.n_symbols * cfg.sf), res.n_symbols * cfg.sf
    )
    half = 0.5 * (hi - lo)
    assert abs(res.achieved_ber - 0.162) <= 3 * half + 0.01


@pytest.mark.parametrize(
    "n0, runs",
    [
        # the closed form puts the anchor at ~377 dB: the start clamps to 120 dB,
        # and both brackets' high ends err too much
        (1e30, 4),
        # ~-2923 dB: the start clamps to -40 dB, and both low ends err too little
        (1e-300, 2),
    ],
)
def test_calibrate_raises_when_no_gain_reaches_the_anchor(engine_powers, n0, runs):
    cfg = harness.ExperimentConfig(n0_w_per_hz=n0, n_symbols_calibration=500)
    with pytest.raises(CalibrationError, match=r"not bracketed by gains \[-40\.0, 120\.0\] dB"):
        harness.calibrate_composite_gain(cfg)
    assert len(engine_powers) == runs


def test_calibrate_shipped_config_starts_near_the_anchor(engine_powers):
    cfg = dataclasses.replace(
        harness.load_config(CONFIGS / "eirp_ber_sweep.cfg"), n_symbols_calibration=2000
    )
    res = harness.calibrate_composite_gain(cfg)
    assert len(engine_powers) <= 7
    assert abs(res.composite_gain_db - cfg.composite_gain_db) < 0.5


def test_calibrate_rejects_absurd_anchor():
    with pytest.raises(ConfigurationError, match=r"anchor_ber=0.49 outside .*\(1e-4, 0.4\)"):
        harness.ExperimentConfig(anchor_ber=0.49)

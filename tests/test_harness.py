"""Experiment config, Monte-Carlo engine, sweeps, and calibration."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

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
        sweep_values = 1, 2.5, 3
        """
    )
    assert cfg.sf == 9
    assert cfg.bursts_enabled is True
    assert cfg.sweep_values == [1.0, 2.5, 3.0]


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
        # built in code: only validate() sees these values
        pytest.param(
            harness.ExperimentConfig(n0_w_per_hz=math.nan, sweep_values=[math.nan]),
            None,
            id="built-nan",
        ),
        pytest.param(
            harness.ExperimentConfig(eirp_dbm=math.inf, sweep_values=[1.0, -math.inf]),
            None,
            id="built-inf",
        ),
    ],
)
def test_parse_config_rejects_non_finite(text, lineno):
    if lineno is None:
        with pytest.raises(
            ConfigurationError, match=r"=(nan|inf) is not finite; sweep_values=.* non-finite"
        ):
            text.validate()
        return
    with pytest.raises(ConfigurationError, match=f"line {lineno}: .*non-finite"):
        harness.parse_config(text)


def test_validate_collects_all_problems():
    cfg = harness.ExperimentConfig(sf=99, template="nope", sweep_axis="sideways")
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    msg = str(err.value)
    assert "sf" in msg and "template" in msg and "sweep" in msg


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
    m = channel.WBurstModel(amplitude_scale=150.0)
    hit = eng.run(1.0, 1e-12, 4096, seed=3, bursts=m)
    # the burst envelope reaches the engine: an all-zero one adds nothing
    silent = channel.WBurstModel(amplitude_scale=150.0, envelope=(0.0, 0.0))
    quiet = eng.run(1.0, 1e-12, 4096, seed=3, bursts=silent)
    assert clean.n_symbol_errors == 0
    assert hit.n_symbol_errors > 0
    assert quiet.ber == 0.0


@pytest.mark.parametrize("sf", [5, 7])
def test_engine_noise_factor_reproduces_dechirp_covariance(sf):
    # the bin noise L z must have the covariance of mean-removed white noise
    # after dechirp_bins: D P D^H, with D built column by column from eye(M)
    p = chirp.derive_params(sf, 32768.0, fs_hz=32768.0)
    m, n = p.samples_per_symbol, p.n_bins
    eng = harness.BerEngine(p, "complex")
    d = rxdsp.dechirp_bins(np.eye(m), p).T
    want = d @ (np.eye(m) - 1.0 / m) @ d.conj().T
    factor = eng._color(np.eye(n, dtype=np.complex128), 1.0).T
    got = factor @ factor.conj().T
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _burst_stream_bins(eng, bursts, arrivals, amp, n_symbols):
    """dechirp_bins of the mean-removed burst stream of n_symbols symbols."""
    p = eng.p
    m = p.samples_per_symbol
    x = np.zeros(n_symbols * m)
    channel.add_w_bursts(x, bursts, arrivals, 0.0, p.fs_hz, amp)
    rows = x.reshape(n_symbols, m)
    return rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)


def test_engine_burst_bins_match_the_time_domain_stream():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, "complex")
    bursts = channel.WBurstModel(mean_interval_s=0.05)
    n_symbols = 400
    arrivals = bursts.arrival_times(0.0, n_symbols * p.ds_s, np.random.default_rng(5))
    want = _burst_stream_bins(eng, bursts, arrivals, 0.3, n_symbols)
    ks = eng._burst_symbols(bursts, arrivals, n_symbols)
    got = np.zeros_like(want)
    got[ks] = eng._burst_bins(bursts, arrivals, 0.3, ks)
    assert 0 < len(ks) < n_symbols
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_engine_burst_crossing_a_chunk_edge_reaches_the_next_chunk():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    m = p.samples_per_symbol
    eng = harness.BerEngine(p, "complex")
    bursts = channel.WBurstModel()
    edge = harness.ENGINE_BATCH  # first symbol of chunk 1
    arrivals = np.array([(edge * m - 10) / p.fs_hz])  # 10 samples before the edge
    ks = eng._burst_symbols(bursts, arrivals, edge + 1)
    assert list(ks) == [edge - 1, edge]
    bins = eng._burst_bins(bursts, arrivals, 1.0, ks)
    want = _burst_stream_bins(eng, bursts, arrivals, 1.0, edge + 1)[edge - 1 :]
    assert np.max(np.abs(bins[1])) > 1.0  # the tail changes chunk 1's first symbol
    assert np.max(np.abs(bins - want)) <= 1e-9 * np.max(np.abs(want))


def test_engine_burst_past_the_last_symbol_is_cut_off():
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    m = p.samples_per_symbol
    eng = harness.BerEngine(p, "complex")
    bursts = channel.WBurstModel()
    n_symbols = 3
    arrivals = np.array([(n_symbols * m - 4) / p.fs_hz])  # 4 samples before the end
    ks = eng._burst_symbols(bursts, arrivals, n_symbols)
    assert list(ks) == [n_symbols - 1]
    last = np.zeros(m)
    last[-4:] = bursts.amplitude_scale * channel.burst_template(
        int(round(bursts.duration_s * p.fs_hz)), bursts.envelope
    )[:4]
    want = rxdsp.dechirp_bins(last - last.mean(), p)
    got = eng._burst_bins(bursts, arrivals, 1.0, ks)[0]
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _time_domain_ser(eng, ps_w, n0, n_symbols, seed, bursts=None):
    """Reference chain in the time domain: NoiseModel.add, mean removal,
    dechirp_bins and argmax, block by block over one burst-arrival draw."""
    p = eng.p
    m = p.samples_per_symbol
    rng = np.random.default_rng(seed)
    amp = math.sqrt(ps_w)
    noise = channel.NoiseModel(n0)
    if bursts is not None:
        arrivals = bursts.arrival_times(0.0, n_symbols * m / p.fs_hz, rng)
    errors = 0
    for start in range(0, n_symbols, 1000):
        nb = min(1000, n_symbols - start)
        tx = rng.integers(0, p.n_bins, size=nb)
        x = amp * eng.templates[tx]
        if bursts is not None:
            b = np.zeros(nb * m)
            channel.add_w_bursts(b, bursts, arrivals, start * m / p.fs_hz, p.fs_hz, amp)
            x = x + b.reshape(nb, m)
        y = noise.add(x, p.fs_hz, rng)
        y = y - y.mean(axis=1, keepdims=True)
        errors += np.count_nonzero(np.argmax(np.abs(rxdsp.dechirp_bins(y, p)), axis=1) != tx)
    return errors / n_symbols


@pytest.mark.parametrize("with_bursts", [False, True], ids=["awgn", "bursts"])
def test_engine_complex_ser_matches_time_domain_oracle(with_bursts):
    # criterion 5's Pb grid and chain; matched n, independent seeds
    p = chirp.derive_params(7, 32768.0, fs_hz=32768.0)
    eng = harness.BerEngine(p, "complex")
    bursts = channel.WBurstModel() if with_bursts else None
    n0, n = 1e-3, 6000
    for i, pb in enumerate([0.15, 0.07, 0.02, 6e-3, 1.5e-3]):
        ps = rxdsp.snr_for_ber(pb, p.sf) * p.bw_hz * n0
        ser = eng.run(ps, n0, n, seed=300 + i, bursts=bursts).ser
        ref = _time_domain_ser(eng, ps, n0, n, 400 + i, bursts)
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


def test_charge_sweep_passive_and_never():
    cfg = harness.ExperimentConfig(
        sweep_axis="pr_dbm",
        charge_variant="passive",
        sweep_values=[-2.3, -20.0],
        capacitance_f=22e-6,
        target_v=1.8,
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
    assert 0.1 < scale < 1.0
    h = powersim.HarvesterModel.default_passive().with_scale(scale)
    leak = powersim.LeakageCurve.constant(powersim.P_SLEEP_W, "passive_sleep")
    c = powersim.Capacitor(22e-6)
    t = powersim.time_to_voltage(c, 1.8, -2.3, h, leak, dt_s=5e-4)
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
    half = rxdsp.wilson_halfwidth(
        round(res.achieved_ber * res.n_symbols * cfg.sf), res.n_symbols * cfg.sf
    )
    assert abs(res.achieved_ber - 0.162) <= 3 * half + 0.01


def test_calibrate_rejects_absurd_anchor():
    cfg = harness.ExperimentConfig(anchor_ber=0.49)
    with pytest.raises(CalibrationError):
        harness.calibrate_composite_gain(cfg)

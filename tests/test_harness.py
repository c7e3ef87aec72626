"""Experiment config, Monte-Carlo engine, sweeps, and calibration."""

import math

import numpy as np
import pytest

from rfsn import channel, chirp, cli, harness, powersim, rxdsp
from rfsn.errors import CalibrationError, ConfigurationError


# -------------------------------------------------------------------- config

def test_parse_serialize_roundtrip():
    cfg = harness.ExperimentConfig(scenario="demo", sf=8, sweep_values=[1.0, 2.0])
    back = harness.parse_config(harness.serialize_config(cfg))
    assert back == cfg


def test_parse_config_comments_and_types():
    cfg = harness.parse_config(
        """
        # a comment
        scenario = test
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
        harness.parse_config("scenario=x\nnot_a_key=1\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("scenario = x\nn0_w_per_hz = nan\n", 2),
        ("scenario = x\nsf = 7\nsweep_values = nan, 1\n", 3),
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
    cfg = harness.ExperimentConfig(
        scenario="bad", sf=99, template="nope", sweep_axis="sideways"
    )
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    msg = str(err.value)
    assert "sf" in msg and "template" in msg and "sweep" in msg


def test_load_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("scenario = fromfile\nsf = 6\n")
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


# -------------------------------------------------------------------- sweeps

def test_ber_sweep_rows_and_determinism():
    cfg = harness.ExperimentConfig(
        scenario="sweep",
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
        scenario="sweep",
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
        scenario="charge",
        charge_variant="passive",
        sweep_values=[-2.3, -20.0],
        capacitance_f=22e-6,
        target_v=1.8,
    )
    rows = harness.run_charge_sweep(cfg)
    assert rows[0].time_s < math.inf
    assert rows[1].time_s == math.inf


def test_fit_passive_efficiency_scale_hits_anchor():
    scale = harness.fit_passive_efficiency_scale()
    assert 0.1 < scale < 1.0
    h = powersim.HarvesterModel.default_passive().with_scale(scale)
    leak = powersim.LeakageCurve.constant(powersim.P_SLEEP_W, "passive_sleep")
    c = powersim.Capacitor(22e-6)
    t = powersim.time_to_voltage(c, 1.8, -2.3, h, leak, dt_s=5e-4)
    assert t == pytest.approx(0.9, abs=0.02)


def test_theory_report_shape():
    cfg = harness.ExperimentConfig(scenario="theory", composite_gain_db=0.0)
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
        scenario="cal",
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
    cfg = harness.ExperimentConfig(scenario="cal", anchor_ber=0.49)
    with pytest.raises(CalibrationError):
        harness.calibrate_composite_gain(cfg)

"""Concrete channel: incident-power table, permittivity, noise, W bursts."""

import math

import numpy as np
import pytest

from rfsn import channel
from rfsn.errors import ConfigurationError


# ---------------------------------------------------------------- power table

def test_table_measured_corners():
    t = channel.IncidentPowerTable.default()
    assert t.incident_power_dbm(23.6, 13.5) == pytest.approx(-7.3)
    assert t.incident_power_dbm(36.0, 3.5) == pytest.approx(11.4)


def test_table_bilinear_interior_oracle():
    t = channel.IncidentPowerTable.default()
    e0, e1 = 23.6, 30.7
    d0, d1 = 6.0, 10.0
    q = {
        (e, d): t.incident_power_dbm(e, d)
        for e in (e0, e1)
        for d in (d0, d1)
    }
    e, d = 26.0, 7.5
    fe = (e - e0) / (e1 - e0)
    fd = (d - d0) / (d1 - d0)
    want = (
        q[(e0, d0)] * (1 - fe) * (1 - fd)
        + q[(e1, d0)] * fe * (1 - fd)
        + q[(e0, d1)] * (1 - fe) * fd
        + q[(e1, d1)] * fe * fd
    )
    assert t.incident_power_dbm(e, d) == pytest.approx(want)


def test_table_refuses_extrapolation():
    t = channel.IncidentPowerTable.default()
    with pytest.raises(ConfigurationError):
        t.incident_power_dbm(40.0, 10.0)
    with pytest.raises(ConfigurationError):
        t.incident_power_dbm(23.6, 1.0)


def test_table_monotone_in_eirp():
    t = channel.IncidentPowerTable.default()
    for d in (3.5, 6.0, 10.0, 13.5):
        col = [t.incident_power_dbm(e, d) for e in (9.7, 13.9, 17.8, 23.6, 30.7, 36.0)]
        assert all(b > a for a, b in zip(col, col[1:]))


# --------------------------------------------------------------- permittivity

def test_resonant_shift_and_inverse():
    f_emb = 2.45e9 / math.sqrt(3.2)  # an air-tuned resonance embedded at eps_r = 3.2
    assert channel.permittivity_from_shift(2.45e9, f_emb) == pytest.approx(3.2)


# --------------------------------------------------------------------- noise

def test_real_noise_variance_convention():
    # real samples carry the full n0*fs/2 in one rail
    n0, fs = 2.0, 1000.0
    rng = np.random.default_rng(7)
    y = channel.NoiseModel(n0).add(np.zeros(200_000), fs, rng)
    assert np.var(y) == pytest.approx(n0 * fs / 2, rel=0.02)


def test_complex_noise_variance_convention():
    # complex samples carry n0*fs/2 total, split across quadratures
    n0, fs = 2.0, 1000.0
    rng = np.random.default_rng(7)
    y = channel.NoiseModel(n0).add(np.zeros(200_000, dtype=complex), fs, rng)
    assert np.var(y.real) + np.var(y.imag) == pytest.approx(n0 * fs / 2, rel=0.02)


# ------------------------------------------------------------------- bursts

def test_burst_template_w_shape():
    n = 401
    tpl = channel.burst_template(n)
    for frac, val in [(0, 1), (0.25, -1), (0.5, 1), (0.75, -1), (1, 1)]:
        assert tpl[round(frac * (n - 1))] == pytest.approx(val)
    assert np.abs(tpl).max() <= 1.0


def test_wburst_model_validation():
    with pytest.raises(ConfigurationError):
        channel.WBurstModel(mean_interval_s=0.002, duration_s=0.003)


def test_arrival_times_poisson_rate():
    m = channel.WBurstModel()
    rng = np.random.default_rng(11)
    arrivals = m.arrival_times(0.0, 5000.0, rng)
    rate = len(arrivals) / 5000.0
    assert rate == pytest.approx(1 / m.mean_interval_s, rel=0.05)
    assert np.all(np.diff(arrivals) > 0)


def test_inject_w_bursts_touches_only_logged_windows():
    fs = 32768.0
    x = np.zeros(32768 * 4)
    m = channel.WBurstModel()
    arrivals = m.arrival_times(0.0, len(x) / fs, np.random.default_rng(3))
    channel.add_w_bursts(x, m, arrivals, 0.0, fs, 1.0)
    assert len(arrivals) > 0
    mask = np.zeros(len(x), dtype=bool)
    for t0 in arrivals:
        i = int(round(t0 * fs))
        j = min(len(x), i + int(round(m.duration_s * fs)) + 1)
        mask[i:j] = True
    changed = x != 0.0
    assert np.all(~changed | mask)
    assert changed.any()


def test_inject_w_bursts_zero_scale_keeps_log():
    x = np.zeros(32768)
    m = channel.WBurstModel(amplitude_scale=0.0)
    arrivals = m.arrival_times(0.0, 1.0, np.random.default_rng(3))
    channel.add_w_bursts(x, m, arrivals, 0.0, 32768.0, 1.0)
    assert not x.any()
    assert len(arrivals) > 0  # the arrivals stay for bookkeeping


def test_add_w_bursts_blocks_end_to_end_equal_one_stream():
    # a burst spilling over a block edge lands in both blocks, and one
    # running past the last block is cut off there
    fs = 32768.0
    m = channel.WBurstModel()
    n_burst = int(round(m.duration_s * fs))
    arrivals = np.array([(1000 - 10) / fs, (3000 - 7) / fs])
    whole = np.zeros(3000)
    channel.add_w_bursts(whole, m, arrivals, 0.0, fs, 2.0)
    parts = np.zeros(3000)
    for b0 in range(0, 3000, 1000):
        channel.add_w_bursts(parts[b0 : b0 + 1000], m, arrivals, b0 / fs, fs, 2.0)
    tpl = 2.0 * m.amplitude_scale * channel.burst_template(n_burst)
    assert np.array_equal(parts, whole)
    assert np.array_equal(whole[990 : 990 + n_burst], tpl)
    assert np.array_equal(whole[-7:], tpl[:7])


def test_interference_rate_closed_form():
    assert channel.interference_symbol_error_rate(31e-3) == pytest.approx(6.2e-2)
    assert channel.interference_symbol_error_rate(1.03e-3) == pytest.approx(6.18e-3)
    # a symbol far longer than the burst interval is always hit
    assert channel.interference_symbol_error_rate(10.0) == 1.0


def test_interference_rate_custom_model():
    m = channel.WBurstModel(mean_interval_s=1.0, duration_s=0.01)
    assert channel.interference_symbol_error_rate(0.005, m) == pytest.approx(0.01)

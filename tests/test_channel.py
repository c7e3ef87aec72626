"""Concrete channel: incident-power table, permittivity, noise, W bursts."""

import math

import numpy as np
import pytest

from rfsn import channel
from rfsn.errors import ConfigurationError


# ---------------------------------------------------------------- power table

def test_table_measured_corners():
    assert channel.incident_power_dbm(23.6, 13.5) == pytest.approx(-7.3)
    assert channel.incident_power_dbm(36.0, 3.5) == pytest.approx(11.4)


def test_table_bilinear_interior_oracle():
    e0, e1 = 23.6, 30.7
    d0, d1 = 6.0, 10.0
    q = {
        (e, d): channel.incident_power_dbm(e, d)
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
    assert channel.incident_power_dbm(e, d) == pytest.approx(want)


def test_table_refuses_extrapolation():
    with pytest.raises(ConfigurationError):
        channel.incident_power_dbm(40.0, 10.0)
    with pytest.raises(ConfigurationError):
        channel.incident_power_dbm(23.6, 1.0)


def test_table_is_read_once_and_shared_read_only():
    channel._power_grid.cache_clear()
    assert channel.incident_power_dbm(23.6, 13.5) == pytest.approx(-7.3)
    assert channel.incident_power_dbm(36.0, 3.5) == pytest.approx(11.4)
    assert channel._power_grid.cache_info().misses == 1  # the file was read once
    for a in channel._power_grid():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert channel.incident_power_dbm(23.6, 13.5) == pytest.approx(-7.3)


def test_table_monotone_in_eirp():
    for d in (3.5, 6.0, 10.0, 13.5):
        col = [channel.incident_power_dbm(e, d) for e in (9.7, 13.9, 17.8, 23.6, 30.7, 36.0)]
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


def test_arrival_times_poisson_rate():
    rng = np.random.default_rng(11)
    arrivals = channel.WBurstModel.arrival_times(5000.0, rng)
    rate = len(arrivals) / 5000.0
    assert rate == pytest.approx(1 / channel.WBurstModel.MEAN_INTERVAL_S, rel=0.05)
    assert np.all(np.diff(arrivals) > 0)


def test_inject_w_bursts_touches_only_logged_windows():
    fs, m, n = 32768.0, 1024, 128
    arrivals = channel.WBurstModel.arrival_times(n * m / fs, np.random.default_rng(3))
    ks, rows = channel._burst_rows(arrivals, m, fs, 1.0, 0, n)
    assert len(arrivals) > 0
    x = np.zeros((n, m))
    x[ks] = rows
    mask = np.zeros(n * m, dtype=bool)
    for t0 in arrivals:
        i = int(round(t0 * fs))
        mask[i : i + int(round(channel.WBurstModel.DURATION_S * fs))] = True
    changed = x.reshape(-1) != 0.0
    assert np.all(~changed | mask)
    assert changed.any()
    assert np.array_equal(ks, np.flatnonzero(mask.reshape(n, m).any(axis=1)))


def test_burst_rows_ranges_end_to_end_equal_one_call():
    # a burst spilling over a symbol edge lands in both ranges, and one
    # running past the last symbol is cut off there
    fs, m = 32768.0, 1000
    n_burst = int(round(channel.WBurstModel.DURATION_S * fs))
    arrivals = np.array([(1000 - 10) / fs, (3000 - 7) / fs])
    ks, whole = channel._burst_rows(arrivals, m, fs, 2.0, 0, 3)
    parts = [channel._burst_rows(arrivals, m, fs, 2.0, k, k + 1) for k in range(3)]
    tpl = 2.0 * channel.WBurstModel.AMPLITUDE_SCALE * channel.burst_template(n_burst)
    assert list(ks) == [0, 1, 2]
    assert [list(k) for k, _ in parts] == [[0], [1], [2]]
    assert np.array_equal(np.concatenate([rows for _, rows in parts]), whole)
    assert np.array_equal(whole.reshape(-1)[990 : 990 + n_burst], tpl)
    assert np.array_equal(whole.reshape(-1)[-7:], tpl[:7])


def test_burst_rows_of_a_range_come_from_the_bursts_that_touch_it():
    # the arrivals a range picks are those a mask over every arrival picks,
    # and a range no burst touches gets no rows.  Some bursts end on the
    # first sample of symbol 100 or just before it, or start on the last
    # sample of symbol 199 or just after it.
    fs, m, n = 32768.0, 64, 400
    n_burst = int(round(channel.WBurstModel.DURATION_S * fs))
    rng = np.random.default_rng(8)
    edges = [100 * m - n_burst, 100 * m - n_burst + 1, 200 * m - 1, 200 * m]
    arrivals = np.sort(np.concatenate([rng.uniform(0.0, n * m / fs, 12), np.array(edges) / fs]))
    first = np.round(arrivals * fs)
    assert set(edges) <= set(first)
    untouched = 0
    for k0 in range(n):
        for k1 in (k0 + 1, k0 + 5, n):
            touch = (first + n_burst > k0 * m) & (first < k1 * m)
            hit = {k for f in first[touch].astype(int) for k in range(f // m, (f + n_burst - 1) // m + 1)}
            ks, rows = channel._burst_rows(arrivals, m, fs, 0.5, k0, k1)
            assert list(ks) == sorted(hit & set(range(k0, k1))), (k0, k1)
            _, want = channel._burst_rows(arrivals[touch], m, fs, 0.5, k0, k1)
            assert np.array_equal(rows, want), (k0, k1)
            if not touch.any():
                untouched += 1
                assert ks.dtype == np.int64 and ks.shape == (0,) and rows.shape == (0, m)
    assert untouched > 0


def test_interference_rate_closed_form():
    assert channel.interference_symbol_error_rate(31e-3) == pytest.approx(6.2e-2)
    assert channel.interference_symbol_error_rate(1.03e-3) == pytest.approx(6.18e-3)
    # a symbol far longer than the burst interval is always hit
    assert channel.interference_symbol_error_rate(10.0) == 1.0

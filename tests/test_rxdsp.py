"""Dechirp demodulation, closed-form BER, and scoring."""

import math

import numpy as np
import pytest

from rfsn import chirp, rxdsp
from rfsn.errors import ConfigurationError
from rfsn.waveform import KIND_ANALOG, Waveform


def test_qfunc_known_values():
    assert rxdsp.qfunc(0.0) == pytest.approx(0.5)
    assert rxdsp.qfunc(1.959963984540054) == pytest.approx(0.025, rel=1e-6)
    assert rxdsp.qfunc(-math.inf) == pytest.approx(1.0)


def test_ber_theory_limits_and_monotonicity():
    # at snr -> 0 the Q argument is -sqrt(1.386*sf + 1.154): near-chance BER
    lo = rxdsp.ber_theory(1e-12, 7)
    assert 0.49 < lo <= 0.5
    vals = [rxdsp.ber_theory(s, 7) for s in np.logspace(-3, 0, 20)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_ber_theory_oracle_point():
    # direct evaluation of Q(sqrt(snr*2^(sf+1)) - sqrt(1.386 sf + 1.154))/2
    sf, snr = 7, 0.05
    arg = math.sqrt(snr * 2 ** (sf + 1)) - math.sqrt(1.386 * sf + 1.154)
    want = 0.5 * 0.5 * math.erfc(arg / math.sqrt(2))
    assert rxdsp.ber_theory(snr, sf) == pytest.approx(want, rel=1e-12)


def test_snr_for_ber_inverts_theory():
    for pb in (0.15, 0.03, 1e-3):
        snr = rxdsp.snr_for_ber(pb, 7)
        assert rxdsp.ber_theory(snr, 7) == pytest.approx(pb, rel=1e-6)


def test_effective_snr_arithmetic():
    assert rxdsp.effective_snr(1.0, 4096.0, 1e-4) == pytest.approx(
        0.712 * 1.0 / (4096.0 * 1e-4)
    )
    assert rxdsp.effective_snr(2.0, 100.0, 0.01, fraction=1.0) == pytest.approx(2.0)


def _params():
    return chirp.derive_params(7, 32768, fs_hz=32768)


def test_dechirp_detects_each_symbol_index():
    p = _params()
    syms = [3, 77, 127]
    w = chirp.modulate_ideal(syms, p)
    for i, s in enumerate(syms):
        out = rxdsp.dechirp(w, p, symbol_index=i)
        assert out.detected == s
        assert out.no_signal is False
        assert out.peak_to_mean > rxdsp.NO_SIGNAL_PEAK_TO_MEAN
        assert len(out.bin_magnitudes) == p.n_bins


def test_dechirp_flags_all_zero_input():
    p = _params()
    w = Waveform(np.zeros(p.samples_per_symbol), p.fs_hz, KIND_ANALOG)
    out = rxdsp.dechirp(w, p)
    assert out.no_signal is True
    assert out.peak_to_mean <= rxdsp.NO_SIGNAL_PEAK_TO_MEAN


def test_dechirp_checks_rate_and_length():
    p = _params()
    w = chirp.modulate_ideal([1], p)
    with pytest.raises(ConfigurationError):
        rxdsp.dechirp(w, p, symbol_index=1)
    bad = Waveform(w.samples, 2 * p.fs_hz, w.kind)
    with pytest.raises(ConfigurationError):
        rxdsp.dechirp(bad, p)


def test_demodulate_stream_counts_and_truncation():
    p = _params()
    syms = np.array([0, 5, 9])
    w = chirp.modulate_ideal(syms, p)
    assert np.array_equal(rxdsp.demodulate_stream(w, p), syms)
    assert np.array_equal(rxdsp.demodulate_stream(w, p, n_symbols=2), syms[:2])
    with pytest.raises(ConfigurationError):
        rxdsp.demodulate_stream(w, p, n_symbols=4)


def test_bit_errors_matches_popcount_loop():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 128, 500)
    b = rng.integers(0, 128, 500)
    want = sum(int(x ^ y).bit_count() for x, y in zip(a, b))
    assert rxdsp.bit_errors(a, b, 7) == want


def test_wilson_interval_invariants():
    lo, hi = rxdsp.wilson_interval(3, 100)
    assert 0.0 <= lo < 3 / 100 < hi <= 1.0
    lo2, hi2 = rxdsp.wilson_interval(300, 10000)
    assert hi2 - lo2 < hi - lo  # same rate, more trials -> tighter
    assert rxdsp.wilson_interval(0, 0) == (0.0, 1.0)
    assert rxdsp.wilson_halfwidth(3, 100) == pytest.approx((hi - lo) / 2)


def test_score_fields():
    sent = np.array([0, 1, 2, 3])
    det = np.array([0, 1, 3, 3])  # one symbol error, one bit flipped
    r = rxdsp.score(sent, det, 7)
    assert r.n_symbols == 4 and r.n_bits == 28
    assert r.n_symbol_errors == 1 and r.n_bit_errors == 1
    assert r.ser == pytest.approx(0.25)
    assert r.ber == pytest.approx(1 / 28)
    assert 0 < r.wilson_95_halfwidth < 0.2


def test_dechirp_resolves_off_grid_energy_with_oversampling():
    # fs = 2*fosc still detects correctly (alias fold of the longer FFT)
    p = chirp.derive_params(7, 32768, fs_hz=65536)
    syms = np.array([10, 100])
    w = chirp.modulate_ideal(syms, p)
    assert np.array_equal(rxdsp.demodulate_stream(w, p), syms)

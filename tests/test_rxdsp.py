"""Dechirp demodulation, closed-form BER, and scoring."""

import math

import numpy as np
import pytest

from rfsn import chirp, rxdsp
from rfsn.errors import ConfigurationError
from rfsn.waveform import Waveform


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
    # criterion 5's targets, bit for bit as the vectorized Q(x) gave them
    pinned = {
        0.15: "0x1.d2c5b0c5e1198p-5",
        0.07: "0x1.3245dee2acffdp-4",
        0.02: "0x1.97516bed55dc0p-4",
        6e-3: "0x1.ed30caa0352afp-4",
        1.5e-3: "0x1.241b4b3a52e25p-3",
    }
    for pb, want in pinned.items():
        assert rxdsp.snr_for_ber(pb, 7).hex() == want


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
    detected = rxdsp.demodulate_stream(chirp.modulate_ideal(syms, p), p)
    assert len(detected) == len(syms)
    for i, s in enumerate(syms):
        assert detected[i] == s


def test_dechirp_checks_rate_and_length():
    p = _params()
    w = chirp.modulate_ideal([1], p)
    # shorter than one symbol
    short = Waveform(w.samples[:-1], w.fs_hz, w.kind)
    with pytest.raises(ConfigurationError, match="need at least"):
        rxdsp.demodulate_stream(short, p)
    # samples taken at another rate than p.fs_hz
    bad = Waveform(w.samples, 2 * p.fs_hz, w.kind)
    with pytest.raises(ConfigurationError, match="does not match params fs"):
        rxdsp.demodulate_stream(bad, p)


def test_demodulate_stream_counts_and_truncation():
    p = _params()
    syms = np.array([0, 5, 9])
    w = chirp.modulate_ideal(syms, p)
    assert np.array_equal(rxdsp.demodulate_stream(w, p), syms)
    # a trailing partial symbol is dropped
    m = p.samples_per_symbol
    cut = Waveform(w.samples[: 2 * m + m // 2], w.fs_hz, w.kind)
    assert np.array_equal(rxdsp.demodulate_stream(cut, p), syms[:2])


def test_bit_errors_matches_popcount_loop():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 128, 500)
    b = rng.integers(0, 128, 500)
    want = sum(int(x ^ y).bit_count() for x, y in zip(a, b))
    assert rxdsp.bit_errors(a, b) == want


def test_wilson_interval_invariants():
    lo, hi = rxdsp.wilson_interval(3, 100)
    assert 0.0 <= lo < 3 / 100 < hi <= 1.0
    lo2, hi2 = rxdsp.wilson_interval(300, 10000)
    assert hi2 - lo2 < hi - lo  # same rate, more trials -> tighter
    assert rxdsp.wilson_interval(0, 0) == (0.0, 1.0)


def test_score_fields():
    sent = np.array([0, 1, 2, 3])
    det = np.array([0, 1, 3, 3])  # one symbol error, one bit flipped
    r = rxdsp.score(sent, det, 7)
    assert r.n_symbols == 4 and r.n_bits == 28
    assert r.n_symbol_errors == 1 and r.n_bit_errors == 1
    assert r.ser == pytest.approx(0.25)
    assert r.ber == pytest.approx(1 / 28)
    lo, hi = rxdsp.wilson_interval(1, 28)
    assert r.wilson_95_halfwidth == 0.5 * (hi - lo)
    assert 0 < r.wilson_95_halfwidth < 0.2


def test_dechirp_resolves_off_grid_energy_with_oversampling():
    # fs = 2*fosc still detects correctly (alias fold of the longer FFT)
    p = chirp.derive_params(7, 32768, fs_hz=65536)
    syms = np.array([10, 100])
    w = chirp.modulate_ideal(syms, p)
    assert np.array_equal(rxdsp.demodulate_stream(w, p), syms)

"""Square-chirp synthesis: parameter derivation, phase math, quantization."""

import math

import numpy as np
import pytest

from rfsn import chirp, harness
from rfsn.errors import ConfigurationError
from rfsn.waveform import Waveform


def test_derive_params_timing_closed_form():
    # independent arithmetic: bw = fosc/8, ds = 2^sf/bw, rd = sf*bw/2^sf
    p = chirp.derive_params(7, 32768)
    assert p.bw_hz == 32768 / 8 == 4096
    assert p.ds_s == pytest.approx(128 / 4096, rel=0, abs=0)
    assert p.rd_bps == pytest.approx(7 * 4096 / 128)
    assert p.n_bins == 128


@pytest.mark.parametrize(
    "fosc,bw,ds_ms,rd_bps",
    [
        (32768, 4096.0, 31.25, 224.0),
        (1e6, 125e3, 1.024, 6835.9375),
        (2e6, 250e3, 0.512, 13671.875),
        (4e6, 500e3, 0.256, 27343.75),
    ],
)
def test_derive_params_clock_family(fosc, bw, ds_ms, rd_bps):
    p = chirp.derive_params(7, fosc)
    assert p.bw_hz == bw
    assert p.ds_s * 1e3 == pytest.approx(ds_ms)
    assert p.rd_bps == pytest.approx(rd_bps)


def test_exact_fractions_agree_with_floats():
    p = chirp.derive_params(9, 32768)
    assert float(p.ds_exact) == pytest.approx(p.ds_s)
    assert float(p.rd_exact) == pytest.approx(p.rd_bps)


def test_sf_bounds_rejected():
    with pytest.raises(ConfigurationError):
        chirp.derive_params(4, 32768)
    with pytest.raises(ConfigurationError):
        chirp.derive_params(13, 32768)


def test_bandwidth_above_clock_eighth_is_infeasible():
    with pytest.raises(ConfigurationError, match="bandwidth infeasible"):
        chirp.ChirpParams(7, 5000.0, 32768.0, 80000.0)


def test_sample_rate_below_minimum_rejected():
    with pytest.raises(ConfigurationError):
        chirp.ChirpParams(7, 4096.0, 32768.0, 8192.0)


def test_instantaneous_frequency_start_and_wrap():
    p = chirp.derive_params(7, 32768)
    s = 32
    f0 = s * p.bw_hz / p.n_bins
    assert chirp.instantaneous_frequency(s, 0.0, p) == pytest.approx(f0)
    # just before the wrap the frequency approaches bw; just after, near zero
    t_wrap = (p.bw_hz - f0) * p.ds_s / p.bw_hz
    assert chirp.instantaneous_frequency(s, t_wrap - 1e-9, p) == pytest.approx(
        p.bw_hz, rel=1e-3
    )
    assert chirp.instantaneous_frequency(s, t_wrap + 1e-9, p) < 1.0


def test_symbol_phase_is_nondecreasing_and_matches_frequency():
    p = chirp.derive_params(7, 32768)
    t = np.linspace(0, p.ds_s, 4097)[:-1]
    phi = chirp.symbol_phase(40, p, t)
    assert np.all(np.diff(phi) >= 0)
    # numerical derivative matches 2*pi*f away from the wrap
    f = np.diff(phi) / np.diff(t) / (2 * np.pi)
    f_true = np.array([chirp.instantaneous_frequency(40, tk, p) for tk in t[:-1]])
    ok = np.abs(f - f_true) < 0.02 * p.bw_hz
    assert np.mean(ok) > 0.99  # only samples straddling the wrap may differ


def test_modulate_ideal_is_binary_and_matches_phase_threshold():
    # sf 6, 50 -> 0 puts a phase crossing on the symbol boundary, solved once
    # on each side of it
    for sf, syms in [(7, [0, 1, 63, 127]), (6, [50, 0])]:
        p = chirp.derive_params(sf, 32768, fs_hz=32768)
        w = chirp.modulate_ideal(syms, p)
        assert set(np.unique(w.samples)) <= {0.0, 1.0}
        assert len(w) == len(syms) * p.samples_per_symbol
        # oracle: envelope is 1 while frac(phi/2pi) < 1/2, phase accumulated
        m = p.samples_per_symbol
        phi0 = 0.0
        ref = []
        for s in syms:
            t = np.arange(m) / p.fs_hz
            phi = chirp.symbol_phase(s, p, t, phi0)
            ref.append((np.mod(phi / (2 * np.pi), 1.0) < 0.5).astype(float))
            phi0 = float(chirp.symbol_phase(s, p, np.array([p.ds_s]), phi0)[0]) % (
                2 * np.pi
            )
        ref = np.concatenate(ref)
        # only samples landing exactly on a toggle may flip either way
        t_bad = np.flatnonzero(w.samples != ref) / p.fs_hz
        gap = np.abs(t_bad[:, None] - w.toggle_instants[None, :]).min(axis=1)
        assert np.all(gap * p.fs_hz < 1e-6), (sf, syms)


def test_toggle_instants_sorted_with_physical_separation():
    p = chirp.derive_params(7, 32768)
    w = chirp.modulate_ideal(np.arange(128), p)
    t = w.toggle_instants
    d = np.diff(t)
    assert np.all(d > 0)
    # fastest toggling is at f = bw: half period 1/(2*bw)
    assert d.min() >= 0.5 / p.bw_hz * (1 - 1e-6)


def test_quantize_snaps_to_clock_grid():
    p = chirp.derive_params(7, 32768, fs_hz=32768)
    w = chirp.modulate_quantized([5, 70, 127], p)
    g = chirp.CYCLES_PER_TOGGLE / p.fosc_hz
    k = w.toggle_instants / g
    assert np.allclose(k, np.round(k), atol=1e-6)
    d = np.diff(w.toggle_instants)
    assert d.min() >= g * (1 - 1e-9)


def test_quantize_jitter_is_seeded():
    p = chirp.derive_params(7, 32768, fs_hz=32768)
    w = chirp.modulate_ideal([9, 80], p)
    a = chirp.quantize_toggles(w, p.fosc_hz, jitter_cycles=1, seed=3)
    b = chirp.quantize_toggles(w, p.fosc_hz, jitter_cycles=1, seed=3)
    c = chirp.quantize_toggles(w, p.fosc_hz, jitter_cycles=1, seed=4)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("sf", [6, 7])
def test_modulate_quantized_accepts_every_transition_into_zero(sf):
    p = chirp.derive_params(sf, 32768, fs_hz=32768)
    for a in range(p.n_bins):
        chirp.modulate_quantized([a, 0], p)


def test_quantize_with_too_slow_clock_is_infeasible():
    p = chirp.derive_params(7, 32768, fs_hz=32768)
    w = chirp.modulate_ideal([64], p)
    with pytest.raises(ConfigurationError, match="bandwidth infeasible"):
        chirp.quantize_toggles(w, p.fosc_hz / 4)


def test_quantize_needs_the_toggle_instants_of_modulate_ideal():
    # a decoded waveform keeps its samples but not the exact toggle instants
    p = chirp.derive_params(7, 32768, fs_hz=32768)
    w = chirp.modulate_ideal([9, 80], p)
    with pytest.raises(ConfigurationError, match="toggle instants"):
        chirp.quantize_toggles(Waveform.from_bytes(w.to_bytes()), p.fosc_hz)


def test_spectrum_satisfies_parseval():
    p = chirp.derive_params(7, 32768, fs_hz=65536)
    w = chirp.modulate_ideal([30], p)
    ps = chirp.spectrum(w)
    assert np.sum(ps.psd) == pytest.approx(np.mean(w.samples**2), rel=1e-9)
    assert len(ps.freqs_hz) == len(ps.psd) == len(w)


def test_detection_power_fraction_of_square_envelope():
    """The binary envelope concentrates under half its AC power in the peak bin."""
    p = chirp.derive_params(7, 32768, fs_hz=32768)
    assert 0.3 < harness.BerEngine(p, "square-ideal").detection_fraction() < 0.5

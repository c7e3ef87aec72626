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


def test_sf_bounds_rejected():
    with pytest.raises(ConfigurationError):
        chirp.derive_params(4, 32768)
    with pytest.raises(ConfigurationError):
        chirp.derive_params(13, 32768)


def test_bandwidth_is_derived_from_the_clock():
    p = chirp.ChirpParams(7, 1e6, 2e6)
    assert p.bw_hz == 1e6 / 8 == 125e3
    assert p == chirp.derive_params(7, 1e6)


def test_sample_rate_below_minimum_rejected():
    # fs must reach the clock; fosc itself is the floor
    with pytest.raises(ConfigurationError, match="cannot represent the toggle grid"):
        chirp.ChirpParams(7, 32768.0, 8192.0)
    with pytest.raises(ConfigurationError, match="cannot represent the toggle grid"):
        chirp.ChirpParams(7, 32768.0, np.nextafter(32768.0, 0.0))
    assert chirp.ChirpParams(7, 32768.0, 32768.0).samples_per_symbol == 8 * 128


def test_fs_floor_message_is_the_same_from_params_and_derive_params():
    with pytest.raises(ConfigurationError) as direct:
        chirp.ChirpParams(7, 32768.0, 16384.0)
    with pytest.raises(ConfigurationError) as derived:
        chirp.derive_params(7, 32768, fs_hz=16384)
    assert str(direct.value) == str(derived.value)
    assert str(direct.value) == (
        "fs=16384.0 Hz cannot represent the toggle grid; need fs >= fosc = 32768.0 Hz"
    )


def _instantaneous_frequency(symbol, t, p):
    """Oracle of the phase's slope: the chirp's frequency at time t in a symbol, modulo bw."""
    chirp._check_symbol(symbol, p)
    if not 0 <= t < p.ds_s:
        raise ConfigurationError(f"t={t} outside symbol window [0, {p.ds_s})")
    f_start = symbol * p.bw_hz / p.n_bins
    return (f_start + p.bw_hz * t / p.ds_s) % p.bw_hz


def test_instantaneous_frequency_start_and_wrap():
    p = chirp.derive_params(7, 32768)
    s = 32
    f0 = s * p.bw_hz / p.n_bins
    assert _instantaneous_frequency(s, 0.0, p) == pytest.approx(f0)
    # just before the wrap the frequency approaches bw; just after, near zero
    t_wrap = (p.bw_hz - f0) * p.ds_s / p.bw_hz
    assert _instantaneous_frequency(s, t_wrap - 1e-9, p) == pytest.approx(p.bw_hz, rel=1e-3)
    assert _instantaneous_frequency(s, t_wrap + 1e-9, p) < 1.0


def _phase_from(symbol, p, t, phi0):
    """One symbol's phase from start phase phi0, summed as modulate_ideal chains it."""
    ramp, wrap = chirp._phase_terms(symbol, p, np.asarray(t, dtype=np.float64))
    return phi0 + ramp - wrap


def test_symbol_phase_is_nondecreasing_and_matches_frequency():
    p = chirp.derive_params(7, 32768)
    t = np.linspace(0, p.ds_s, 4097)[:-1]
    phi = _phase_from(40, p, t, 0.0)
    assert np.all(np.diff(phi) >= 0)
    # numerical derivative matches 2*pi*f away from the wrap
    f = np.diff(phi) / np.diff(t) / (2 * np.pi)
    f_true = np.array([_instantaneous_frequency(40, tk, p) for tk in t[:-1]])
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
            phi = _phase_from(s, p, t, phi0)
            ref.append((np.mod(phi / (2 * np.pi), 1.0) < 0.5).astype(float))
            phi0 = float(_phase_from(s, p, np.array([p.ds_s]), phi0)[0]) % (
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


@pytest.mark.parametrize("sf", [6, 7])
def test_modulate_quantized_accepts_every_transition_into_zero(sf):
    p = chirp.derive_params(sf, 32768, fs_hz=32768)
    for a in range(p.n_bins):
        chirp.modulate_quantized([a, 0], p)


def _two_step_quantized(symbols, p):
    return chirp.quantize_toggles(chirp.modulate_ideal(symbols, p), p.fosc_hz)


def _assert_same_waveform(got, want):
    assert got.kind == want.kind and got.fs_hz == want.fs_hz
    assert got.samples.tobytes() == want.samples.tobytes()
    assert got.toggle_instants.tobytes() == want.toggle_instants.tobytes()


@pytest.mark.parametrize("sf", range(5, 11))
def test_modulate_quantized_equals_quantize_toggles_of_modulate_ideal(sf):
    # the ascending 32-symbol waveforms of the synthesis benchmark, then random symbols
    p = chirp.derive_params(sf, 32768.0, fs_hz=32768.0)
    cases = [np.arange(i, min(i + 32, p.n_bins)) for i in range(0, p.n_bins, 32)]
    cases += list(np.random.default_rng(sf).integers(0, p.n_bins, (4, 16)))
    if sf == 6:
        cases += [[a, 0] for a in range(p.n_bins)]
    for symbols in cases:
        _assert_same_waveform(chirp.modulate_quantized(symbols, p), _two_step_quantized(symbols, p))


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


# -- reference synthesis: one symbol at a time, rendered sample by sample --------


def _ref_symbol_toggle_instants(symbol, p, phi0):
    """Per-symbol closed-form phase crossings, the scalar form of the modulator's solver."""
    f0 = symbol * p.bw_hz / p.n_bins
    rate = p.bw_hz / p.ds_s
    t_wrap = min((p.bw_hz - f0) / rate, p.ds_s)
    out = []
    phi_a1 = phi0 + 2 * np.pi * (f0 * t_wrap + 0.5 * rate * t_wrap**2)
    m_lo = math.floor(phi0 / np.pi) + 1
    m_hi = math.floor(phi_a1 / np.pi)
    if m_hi >= m_lo:
        m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
        c = (m * np.pi - phi0) / (2 * np.pi)
        t = (np.sqrt(f0 * f0 + 2 * rate * c) - f0) / rate
        out.append(np.minimum(t, t_wrap))
    if t_wrap < p.ds_s:
        tau_max = p.ds_s - t_wrap
        phi_b1 = phi_a1 + 2 * np.pi * 0.5 * rate * tau_max**2
        m_lo = math.floor(phi_a1 / np.pi) + 1
        m_hi = math.floor(phi_b1 / np.pi)
        if m_hi >= m_lo:
            m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
            c = (m * np.pi - phi_a1) / (2 * np.pi)
            tau = np.sqrt(2 * c / rate)
            out.append(t_wrap + np.minimum(tau, tau_max))
    return np.concatenate(out) if out else np.empty(0)


def _ref_render(toggles_s, initial_value, n_samples, fs_hz):
    """Each sample counts the toggles at or before its own instant k/fs."""
    t = np.arange(n_samples) / fs_hz
    flips = np.searchsorted(toggles_s, t, side="right")
    return ((initial_value + flips) % 2).astype(np.float64)


def _ref_snap(instants, grid):
    snapped = np.ceil(instants / grid - 1e-9) * grid
    if len(snapped) > 1:
        shifted = snapped - np.arange(len(snapped)) * grid
        snapped = np.maximum.accumulate(shifted) + np.arange(len(snapped)) * grid
    return snapped


def _ref_modulate(symbols, p):
    """(ideal instants, ideal samples, quantized instants, quantized samples)."""
    phi0 = 0.0
    toggles = []
    for i, s in enumerate(symbols):
        toggles.append(i * p.ds_s + _ref_symbol_toggle_instants(int(s), p, phi0))
        phi0 = float(_phase_from(int(s), p, np.array([p.ds_s]), phi0)[0]) % (2 * np.pi)
    ideal = chirp._drop_coincident_pairs(np.concatenate(toggles), p.bw_hz)
    n = p.samples_per_symbol * len(symbols)
    snapped = _ref_snap(ideal, chirp.CYCLES_PER_TOGGLE / p.fosc_hz)
    return ideal, _ref_render(ideal, 1, n, p.fs_hz), snapped, _ref_render(snapped, 1, n, p.fs_hz)


def _assert_matches_reference(symbols, p):
    ideal, ideal_samples, snapped, snapped_samples = _ref_modulate(symbols, p)
    w = chirp.modulate_ideal(symbols, p)
    assert np.array_equal(w.toggle_instants, ideal), (p, list(symbols))
    assert np.array_equal(w.samples, ideal_samples), (p, list(symbols))
    q = chirp.modulate_quantized(symbols, p)
    assert np.array_equal(q.toggle_instants, snapped), (p, list(symbols))
    assert np.array_equal(q.samples, snapped_samples), (p, list(symbols))


# At 1 and 4 MHz some symbols' t_wrap**2 (C pow) differs from t_wrap * t_wrap
# in the last bit, which moves their toggle instants.
@pytest.mark.parametrize("sf,fosc", [(sf, 32768) for sf in range(5, 11)] + [(5, 1e6), (7, 4e6)])
def test_synthesis_matches_reference_on_every_symbol(sf, fosc):
    # ascending chunks of 32 symbols, as criterion 4 sends them
    p = chirp.derive_params(sf, fosc, fs_hz=fosc)
    for start in range(0, p.n_bins, 32):
        _assert_matches_reference(np.arange(start, min(start + 32, p.n_bins)), p)


@pytest.mark.parametrize("fs", ["fosc", "16bw"])
@pytest.mark.parametrize("sf", [5, 7, 9])
def test_synthesis_matches_reference_on_random_sequences(sf, fs):
    p = chirp.derive_params(sf, 32768, fs_hz=32768 if fs == "fosc" else None)
    rng = np.random.default_rng(100 + sf)
    for _ in range(4):
        s = rng.integers(0, p.n_bins, 48)
        s[4:9] = s[4]  # repeats continue the phase of the one before
        s[12:24] = np.sort(s[12:24])[::-1]  # a descending run
        _assert_matches_reference(s, p)


def test_synthesis_matches_reference_on_every_transition_into_zero():
    # the coincident-pair seam: sf 6, 50 -> 0 solves one crossing on each side
    p = chirp.derive_params(6, 32768, fs_hz=32768)
    for a in range(p.n_bins):
        _assert_matches_reference([a, 0], p)


@pytest.mark.parametrize("fs", [3.0, 32768.0, 44100.7, 48000.0])
def test_render_matches_reference_on_and_beside_sample_instants(fs):
    n = 200
    on = np.arange(1, n) / fs  # a toggle exactly on k/fs flips sample k
    for toggles in (on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf), on[::7]):
        for initial in (0, 1):
            got = chirp._render_from_toggles(toggles, initial, n, fs)
            assert np.array_equal(got, _ref_render(toggles, initial, n, fs))
    assert list(chirp._render_from_toggles(on[[4]], 1, n, fs)[4:7]) == [1.0, 0.0, 0.0]


def test_render_ignores_toggles_past_the_last_sample():
    toggles = np.array([2.5, 9.0, 10.0, 12.0, 15.0])
    got = chirp._render_from_toggles(toggles, 1, 10, 1.0)
    assert np.array_equal(got, _ref_render(toggles, 1, 10, 1.0))
    assert np.array_equal(got, [1, 1, 1, 0, 0, 0, 0, 0, 0, 1])
    # snapped toggles can land past n/fs: the quantizer renders them the same way
    p = chirp.derive_params(5, 32768, fs_hz=32768)
    w = chirp.modulate_ideal([31], p)
    late = len(w) / p.fs_hz + 1.5 * p.toggle_grid_s
    w.toggle_instants = np.append(w.toggle_instants, [late, late + 2 * p.toggle_grid_s])
    q = chirp.quantize_toggles(w, p.fosc_hz)
    assert q.toggle_instants[-1] > len(w) / p.fs_hz
    assert np.array_equal(q.samples, _ref_render(q.toggle_instants, 1, len(w), p.fs_hz))


def test_render_without_toggles_holds_the_initial_level():
    for initial in (0, 1):
        got = chirp._render_from_toggles(np.empty(0), initial, 7, 4.0)
        assert np.array_equal(got, np.full(7, float(initial)))


@pytest.mark.parametrize("kind", ["square-ideal", "square-quantized"])
@pytest.mark.parametrize("sf", [5, 7, 9])
def test_square_templates_equal_the_per_symbol_public_path(sf, kind):
    p = chirp.derive_params(sf, 32768, fs_hz=32768)
    ref = np.empty((p.n_bins, p.samples_per_symbol))
    for s in range(p.n_bins):
        w = chirp.modulate_ideal([s], p)
        if kind == "square-quantized":
            w = chirp.quantize_toggles(w, p.fosc_hz)
        ref[s] = w.samples
    ref = ref - ref.mean(axis=1, keepdims=True)
    ref = ref / np.sqrt(np.mean(np.abs(ref) ** 2, axis=1, keepdims=True))
    assert np.array_equal(harness.BerEngine(p, kind).templates, ref)

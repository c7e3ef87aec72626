"""Square-chirp synthesis: parameter derivation, phase math, quantization."""

import math
from fractions import Fraction

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


def test_samples_per_symbol_is_checked_when_the_params_are_built():
    # a non-integer count, a count beyond int64, and the int64 phase limit
    # 2 * 2^sf * M^2 < 2^63: at sf 12, M = 2^15 * fs/fosc must stay below 2^25
    for sf, fs in ((7, 40000.3), (7, 1e300), (12, 1024 * 32768.0)):
        with pytest.raises(ConfigurationError, match="samples per symbol; need an integer M"):
            chirp.derive_params(sf, 32768, fs_hz=fs)
    assert chirp.ChirpParams(12, 32768.0, 1023 * 32768.0).samples_per_symbol == 1023 * 2**15


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
    # sf 6, 50 -> 0 puts a phase crossing exactly on the symbol boundary
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


def test_quantize_ignores_toggles_past_the_last_sample():
    # a toggle can snap past the last sample's instant: it shows in no sample
    p = chirp.derive_params(5, 32768, fs_hz=32768)
    w = chirp.modulate_ideal([31], p)
    w.toggle_instants = np.append(w.toggle_instants, len(w) / p.fs_hz + 1.5 * p.toggle_grid_s)
    q = chirp.quantize_toggles(w, p.fosc_hz)
    assert q.toggle_instants[-1] > len(w) / p.fs_hz
    assert np.array_equal(q.samples, chirp.modulate_quantized([31], p).samples)


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


# -- exact synthesis: the phase in fractions.Fraction ------------------------------


def _exact_levels(symbols, p, index, step):
    """Oracle: the envelope of a symbol sequence at times index*step within each symbol.

    bw, f0, rate and t_wrap are Fractions of fosc, and the phase accumulates
    across symbols from 0: within a symbol phi/pi = phi0/pi + 2 f0 t + rate t^2
    - [t >= t_wrap] 2 bw (t - t_wrap).  At t = i*step that is a polynomial in
    the integer i with Fraction coefficients, evaluated exactly over their
    common denominator.  The level is high while floor(phi/pi) is even.
    """
    bw = Fraction(p.fosc_hz) / 8
    ds = p.n_bins / bw
    rate = bw / ds
    i = np.asarray(index, dtype=np.int64)
    start, rows = Fraction(0), []
    for s in symbols:
        f0 = int(s) * bw / p.n_bins
        t_wrap = (bw - f0) / rate
        coefs = (start, 2 * f0 * step, rate * step * step, 2 * bw * step, 2 * bw * t_wrap)
        den = math.lcm(*(c.denominator for c in coefs))
        c0, c1, c2, w1, w0 = (int(c * den) for c in coefs)
        assert den * (start + 3 * p.n_bins) < 2**63  # every term fits int64
        after = i >= math.ceil(t_wrap / step)
        num = c0 + c1 * i + c2 * i * i - after * (w1 * i - w0)
        rows.append(num // den % 2 == 0)
        start += 2 * f0 * ds + rate * ds * ds - 2 * bw * (ds - t_wrap)
    return np.concatenate(rows).astype(np.float64)


def _changes(levels):
    return np.flatnonzero(levels[1:] != levels[:-1]) + 1


def _assert_matches_exact(symbols, p):
    """Every sample and toggle instant of both envelopes against the Fraction phase.

    Ideal: the level at each sample's instant k/fs.  Quantized: the level at
    the last 4/fosc grid point at or before it.
    """
    fs, grid = Fraction(p.fs_hz), chirp.CYCLES_PER_TOGGLE / Fraction(p.fosc_hz)
    k = np.arange(p.samples_per_symbol)
    ideal = _exact_levels(symbols, p, k, 1 / fs)
    w = chirp.modulate_ideal(symbols, p)
    assert np.array_equal(w.samples, ideal), (p, list(symbols))
    assert np.array_equal(w.toggle_instants, _changes(ideal) / p.fs_hz), (p, list(symbols))
    per_grid = 1 / fs / grid  # grid points per sample
    quantized = _exact_levels(symbols, p, k * per_grid.numerator // per_grid.denominator, grid)
    on_grid = _exact_levels(symbols, p, np.arange(2 * p.n_bins), grid)
    q = chirp.modulate_quantized(symbols, p)
    assert np.array_equal(q.samples, quantized), (p, list(symbols))
    instants = _changes(on_grid) * chirp.CYCLES_PER_TOGGLE / p.fosc_hz
    assert np.array_equal(q.toggle_instants, instants), (p, list(symbols))


@pytest.mark.parametrize("fosc", [32768.0, 40000.0, 1e6, 4e6])
@pytest.mark.parametrize("fs", ["fosc", "16bw"])
@pytest.mark.parametrize("sf", [5, 6, 7])
def test_every_symbol_matches_the_exact_phase(sf, fs, fosc):
    p = chirp.derive_params(sf, fosc, fs_hz=fosc if fs == "fosc" else None)
    _assert_matches_exact(np.arange(p.n_bins), p)


@pytest.mark.parametrize("sf,fosc", [(sf, 32768) for sf in range(5, 11)] + [(5, 1e6), (7, 4e6)])
def test_synthesis_matches_reference_on_every_symbol(sf, fosc):
    # ascending chunks of 32 symbols, as criterion 4 sends them
    p = chirp.derive_params(sf, fosc, fs_hz=fosc)
    for start in range(0, p.n_bins, 32):
        _assert_matches_exact(np.arange(start, min(start + 32, p.n_bins)), p)


@pytest.mark.parametrize("fs", ["fosc", "16bw"])
@pytest.mark.parametrize("sf", [5, 7, 9])
def test_synthesis_matches_reference_on_random_sequences(sf, fs):
    p = chirp.derive_params(sf, 32768, fs_hz=32768 if fs == "fosc" else None)
    rng = np.random.default_rng(100 + sf)
    for _ in range(4):
        s = rng.integers(0, p.n_bins, 48)
        s[4:9] = s[4]  # repeats continue the phase of the one before
        s[12:24] = np.sort(s[12:24])[::-1]  # a descending run
        _assert_matches_exact(s, p)


def test_synthesis_matches_reference_on_every_transition_into_zero():
    # sf 6, 50 -> 0 puts a phase crossing exactly on the symbol boundary
    p = chirp.derive_params(6, 32768, fs_hz=32768)
    for a in range(p.n_bins):
        _assert_matches_exact([a, 0], p)


@pytest.mark.parametrize("fs_over_bw", [8, 16])
def test_equal_sf_and_fs_over_bw_give_the_same_samples_at_every_clock(fs_over_bw):
    # the model has no absolute time scale: the clock sets bw, ds and fs together
    rng = np.random.default_rng(fs_over_bw)
    for sf in (5, 7, 9):
        symbols = rng.integers(0, 1 << sf, 64)
        for modulate in (chirp.modulate_ideal, chirp.modulate_quantized):
            got = [
                modulate(symbols, chirp.derive_params(sf, fosc, fs_hz=fs_over_bw * fosc / 8)).samples
                for fosc in (32768.0, 40000.0, 1e6, 3e6, 4e6)
            ]
            assert all(np.array_equal(g, got[0]) for g in got[1:]), (sf, modulate)


def test_a_waveform_is_its_symbols_rows_laid_end_to_end():
    for sf, fosc in ((6, 32768.0), (7, 1e6)):
        p = chirp.derive_params(sf, fosc)
        symbols = np.random.default_rng(sf).integers(0, p.n_bins, 200)
        symbols[10:20] = symbols[10]
        for modulate in (chirp.modulate_ideal, chirp.modulate_quantized):
            rows = [modulate([s], p).samples for s in symbols]
            assert np.array_equal(modulate(symbols, p).samples, np.concatenate(rows)), (sf, modulate)


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

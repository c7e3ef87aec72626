"""Square-chirp synthesis: ideal and clock-quantized binary-envelope symbols.

A symbol's instantaneous frequency ramps linearly from its start frequency and
wraps modulo the bandwidth, giving the familiar piecewise-linear
time-frequency ridge.  The transmitted waveform is the binary envelope of that
chirp (antenna shorted/open), optionally with every toggle instant snapped to
the MCU instruction-cycle grid of 4/Fosc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .waveform import KIND_BINARY, Waveform

SF_MIN = 5
SF_MAX = 12

# An instruction cycle is 4 clock cycles; one GPIO toggle needs one cycle, so
# the shortest square-wave period is 8 clocks and the max bandwidth Fosc/8.
CYCLES_PER_TOGGLE = 4
MIN_CLOCKS_PER_PERIOD = 8

DEFAULT_OVERSAMPLING = 16  # fs = 16*bw unless told otherwise


@dataclass(frozen=True)
class ChirpParams:
    """Square-chirp symbol parameters with derived duration and data rate."""

    sf: int
    bw_hz: float
    fosc_hz: float
    fs_hz: float

    def __post_init__(self) -> None:
        if not SF_MIN <= self.sf <= SF_MAX:
            raise ConfigurationError(f"sf must lie in [{SF_MIN}, {SF_MAX}], got {self.sf}")
        if self.bw_hz <= 0 or self.fosc_hz <= 0 or self.fs_hz <= 0:
            raise ConfigurationError("bw_hz, fosc_hz and fs_hz must all be positive")
        if self.bw_hz > self.fosc_hz / MIN_CLOCKS_PER_PERIOD * (1 + 1e-12):
            raise ConfigurationError(
                f"bandwidth infeasible: bw={self.bw_hz} Hz exceeds fosc/8="
                f"{self.fosc_hz / MIN_CLOCKS_PER_PERIOD} Hz"
            )
        if self.fs_hz < 8 * self.bw_hz * (1 - 1e-12):
            raise ConfigurationError(
                f"fs={self.fs_hz} Hz too low; need at least 8*bw = {8 * self.bw_hz} Hz"
            )

    @property
    def n_bins(self) -> int:
        return 1 << self.sf

    @property
    def ds_s(self) -> float:
        """Symbol duration 2^sf / bw."""
        return self.n_bins / self.bw_hz

    @property
    def rd_bps(self) -> float:
        """Data rate bw * sf / 2^sf."""
        return self.bw_hz * self.sf / self.n_bins

    @property
    def ds_exact(self) -> Fraction:
        return Fraction(self.n_bins) / Fraction(self.bw_hz)

    @property
    def rd_exact(self) -> Fraction:
        return Fraction(self.bw_hz) * self.sf / self.n_bins

    @property
    def samples_per_symbol(self) -> int:
        n = self.ds_s * self.fs_hz
        m = round(n)
        if abs(n - m) > 1e-6:
            raise ConfigurationError(
                f"fs={self.fs_hz} does not give an integer number of samples per symbol"
            )
        return m

    @property
    def toggle_grid_s(self) -> float:
        """Smallest realizable toggle spacing, one instruction cycle."""
        return CYCLES_PER_TOGGLE / self.fosc_hz


def derive_params(sf: int, fosc_hz: float, fs_hz: float | None = None) -> ChirpParams:
    """Derive bandwidth, symbol duration and data rate from sf and the MCU clock.

    bw = fosc/8 (the 8-clock minimum square-wave period); fs defaults to 16*bw.
    """
    if not SF_MIN <= sf <= SF_MAX:
        raise ConfigurationError(f"sf must lie in [{SF_MIN}, {SF_MAX}], got {sf}")
    if fosc_hz <= 0:
        raise ConfigurationError(f"fosc_hz must be positive, got {fosc_hz}")
    bw = fosc_hz / MIN_CLOCKS_PER_PERIOD
    if fs_hz is None:
        fs_hz = DEFAULT_OVERSAMPLING * bw
    if fs_hz < fosc_hz:
        raise ConfigurationError(
            f"fs={fs_hz} Hz cannot represent the toggle grid; need fs >= fosc = {fosc_hz} Hz"
        )
    return ChirpParams(sf=sf, bw_hz=bw, fosc_hz=fosc_hz, fs_hz=fs_hz)


def _check_symbol(symbol: int, p: ChirpParams) -> None:
    if not 0 <= symbol < p.n_bins:
        raise ConfigurationError(f"symbol {symbol} out of range [0, {p.n_bins})")


def instantaneous_frequency(symbol: int, t: float, p: ChirpParams) -> float:
    """Frequency of the chirp at time t within the symbol, with modulo-bw wrap."""
    _check_symbol(symbol, p)
    if not 0 <= t < p.ds_s:
        raise ConfigurationError(f"t={t} outside symbol window [0, {p.ds_s})")
    f_start = symbol * p.bw_hz / p.n_bins
    return (f_start + p.bw_hz * t / p.ds_s) % p.bw_hz


def symbol_phase(symbol: int, p: ChirpParams, t: np.ndarray, phi0: float = 0.0) -> np.ndarray:
    """Accumulated phase 2*pi*integral(f) of one symbol at times t (seconds)."""
    _check_symbol(symbol, p)
    f0 = symbol * p.bw_hz / p.n_bins
    rate = p.bw_hz / p.ds_s
    t = np.asarray(t, dtype=np.float64)
    t_wrap = (p.bw_hz - f0) / rate
    return phi0 + 2 * np.pi * (f0 * t + 0.5 * rate * t * t) - 2 * np.pi * p.bw_hz * np.clip(
        t - t_wrap, 0.0, None
    )


def _symbol_end_phase(symbol: int, p: ChirpParams, phi0: float) -> float:
    return float(symbol_phase(symbol, p, np.array([p.ds_s]), phi0)[0])


def _symbol_toggle_instants(symbol: int, p: ChirpParams, phi0: float) -> np.ndarray:
    """Continuous-time instants in [0, ds) where the envelope flips.

    The envelope is 1 while frac(phi/2pi) < 1/2, so flips happen exactly where
    the phase crosses a multiple of pi.  The phase is piecewise quadratic and
    non-decreasing, so each crossing is solved in closed form per segment.
    """
    f0 = symbol * p.bw_hz / p.n_bins
    rate = p.bw_hz / p.ds_s
    t_wrap = min((p.bw_hz - f0) / rate, p.ds_s)
    out = []

    # segment A: f = f0 + rate*t on [0, t_wrap)
    phi_a0 = phi0
    phi_a1 = phi0 + 2 * np.pi * (f0 * t_wrap + 0.5 * rate * t_wrap**2)
    m_lo = math.floor(phi_a0 / np.pi) + 1
    m_hi = math.floor(phi_a1 / np.pi)
    if m_hi >= m_lo:
        m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
        c = (m * np.pi - phi_a0) / (2 * np.pi)
        t = (np.sqrt(f0 * f0 + 2 * rate * c) - f0) / rate
        # a crossing exactly at the wrap belongs to this segment; clip the
        # float overshoot instead of filtering it out
        out.append(np.minimum(t, t_wrap))

    # segment B: f = rate*(t - t_wrap) on [t_wrap, ds)
    if t_wrap < p.ds_s:
        tau_max = p.ds_s - t_wrap
        phi_b0 = phi_a1
        phi_b1 = phi_b0 + 2 * np.pi * 0.5 * rate * tau_max**2
        m_lo = math.floor(phi_b0 / np.pi) + 1
        m_hi = math.floor(phi_b1 / np.pi)
        if m_hi >= m_lo:
            m = np.arange(m_lo, m_hi + 1, dtype=np.float64)
            c = (m * np.pi - phi_b0) / (2 * np.pi)
            tau = np.sqrt(2 * c / rate)
            # a crossing exactly at the symbol boundary belongs to this
            # symbol; clip the float overshoot instead of filtering it out
            out.append(t_wrap + np.minimum(tau, tau_max))

    if not out:
        return np.empty(0)
    return np.concatenate(out)


def _drop_coincident_pairs(t: np.ndarray, bw_hz: float) -> np.ndarray:
    """Collapse toggles closer than any physical half-period into one.

    A phase crossing that lands exactly on a frequency wrap or a symbol
    boundary can be solved once on each side of the seam; genuine adjacent
    crossings are at least half a carrier period 1/(2*bw) apart, so anything
    closer is the same crossing counted twice and only one copy is kept.  The
    two copies can differ by more than 1e-6/bw of float error (2.6e-10 s at
    sf 6, bw 4096 Hz, symbols 50 -> 0), so the tolerance is 1e-3/bw, still
    500 times below the shortest half-period.
    """
    eps = 1e-3 / bw_hz
    dup = np.nonzero(np.diff(t) < eps)[0]
    if dup.size == 0:
        return t
    keep = np.ones(len(t), dtype=bool)
    keep[dup + 1] = False
    return t[keep]


def _render_from_toggles(
    toggles_s: np.ndarray, initial_value: int, n_samples: int, fs_hz: float
) -> np.ndarray:
    """Binary samples at t_k = k/fs from continuous toggle instants."""
    t = np.arange(n_samples) / fs_hz
    flips = np.searchsorted(toggles_s, t, side="right")
    return ((initial_value + flips) % 2).astype(np.float64)


def modulate_ideal(symbols, p: ChirpParams) -> Waveform:
    """Binary-envelope square chirps with exact (unquantized) toggle instants.

    Phase accumulates across symbols (a GPIO loop cannot reset phase), so a
    repeated symbol continues where the previous one left off.
    """
    symbols = list(symbols)
    if not symbols:
        raise ConfigurationError("symbol sequence must be non-empty")
    m = p.samples_per_symbol
    phi0 = 0.0
    toggles = []
    for i, s in enumerate(symbols):
        _check_symbol(int(s), p)
        toggles.append(i * p.ds_s + _symbol_toggle_instants(int(s), p, phi0))
        phi0 = _symbol_end_phase(int(s), p, phi0) % (2 * np.pi)
    instants = _drop_coincident_pairs(np.concatenate(toggles), p.bw_hz)
    initial = 1  # phi(0) = 0 -> frac 0 < 1/2
    samples = _render_from_toggles(instants, initial, m * len(symbols), p.fs_hz)
    return Waveform(samples, p.fs_hz, KIND_BINARY, toggle_instants=instants)


def quantize_toggles(
    w: Waveform,
    fosc_hz: float,
    jitter_cycles: int = 0,
    seed: int | None = None,
) -> Waveform:
    """Snap every envelope transition to the next instruction-cycle grid point.

    The MCU can only act on or after the scheduled cycle, so instants round
    upward to multiples of 4/fosc and keep at least one grid step between
    consecutive transitions.  ``jitter_cycles`` optionally adds uniform integer
    instruction-cycle jitter (off by default).  ``w`` must come from
    modulate_ideal, which records the exact toggle instants the quantizer snaps.
    """
    if w.kind != KIND_BINARY:
        raise ConfigurationError("quantize_toggles needs a binary-envelope waveform")
    if w.toggle_instants is None:
        raise ConfigurationError("quantize_toggles needs the toggle instants of modulate_ideal")
    grid = CYCLES_PER_TOGGLE / fosc_hz
    instants = np.asarray(w.toggle_instants, dtype=np.float64)
    initial = int(w.samples[0]) if len(w.samples) else 1

    if len(instants) > 1:
        min_sep = float(np.min(np.diff(instants)))
        if min_sep < grid - 1e-15:
            raise ConfigurationError(
                f"bandwidth infeasible: shortest half-period {min_sep:.3e} s is below "
                f"the 8-clock-cycle minimum (toggle grid {grid:.3e} s)"
            )

    snapped = np.ceil(instants / grid - 1e-9) * grid
    if jitter_cycles:
        rng = np.random.default_rng(seed)
        snapped = snapped + grid * rng.integers(
            -jitter_cycles, jitter_cycles + 1, size=len(snapped)
        )
        snapped = np.maximum(snapped, 0.0)
        snapped.sort()
    # enforce >= one grid step between consecutive toggles, preserving order
    if len(snapped) > 1:
        shifted = snapped - np.arange(len(snapped)) * grid
        snapped = np.maximum.accumulate(shifted) + np.arange(len(snapped)) * grid
    samples = _render_from_toggles(snapped, initial, len(w.samples), w.fs_hz)
    return Waveform(samples, w.fs_hz, KIND_BINARY, toggle_instants=snapped)


def modulate_quantized(symbols, p: ChirpParams, jitter_cycles: int = 0, seed: int | None = None) -> Waveform:
    """Convenience: modulate_ideal followed by quantize_toggles at p.fosc_hz."""
    if p.fs_hz < p.fosc_hz * (1 - 1e-12):
        raise ConfigurationError(
            f"quantized synthesis needs fs >= fosc ({p.fs_hz} < {p.fosc_hz})"
        )
    return quantize_toggles(modulate_ideal(symbols, p), p.fosc_hz, jitter_cycles, seed)


@dataclass
class PowerSpectrum:
    """Discrete power spectrum; psd sums to the time-domain mean-square power."""

    freqs_hz: np.ndarray
    psd: np.ndarray
    total_power: float

    def peak_frequency(self) -> float:
        return float(self.freqs_hz[int(np.argmax(self.psd))])


def spectrum(w: Waveform) -> PowerSpectrum:
    """Periodogram normalized so sum(psd) equals the mean-square power."""
    x = np.asarray(w.samples)
    if len(x) == 0:
        raise ConfigurationError("cannot take the spectrum of an empty waveform")
    n = len(x)
    spec = np.fft.fft(x)
    psd = np.abs(spec) ** 2 / n**2
    freqs = np.fft.fftfreq(n, d=1.0 / w.fs_hz)
    return PowerSpectrum(freqs_hz=freqs, psd=psd, total_power=float(psd.sum()))

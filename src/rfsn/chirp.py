"""Square-chirp synthesis: ideal and clock-quantized binary-envelope symbols.

A symbol's instantaneous frequency ramps linearly from its start frequency and
wraps modulo the bandwidth, giving the familiar piecewise-linear
time-frequency ridge.  The transmitted waveform is the binary envelope of that
chirp (antenna shorted/open), high while floor(phase/pi) is even, optionally
with every toggle moved up to the MCU instruction-cycle grid of 4/Fosc.  Each
symbol advances the phase by exactly 2^sf * pi, so every symbol starts at phase
0 mod 2*pi and a sequence is its symbols' envelopes laid end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# int64 phase numerators computed at once by _envelopes
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ChirpParams:
    """Square-chirp symbol parameters with derived bandwidth, duration and data rate.

    samples_per_symbol, M = fs * 2^sf / bw, is computed when they are built and
    must be an integer with 2 * 2^sf * M^2 < 2^63, for _envelopes' int64 phase.
    """

    sf: int
    fosc_hz: float
    fs_hz: float
    samples_per_symbol: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fosc_hz <= 0:
            raise ConfigurationError(f"fosc_hz must be positive, got {self.fosc_hz}")
        if self.fs_hz < self.fosc_hz:
            raise ConfigurationError(
                f"fs={float(self.fs_hz)} Hz cannot represent the toggle grid; "
                f"need fs >= fosc = {float(self.fosc_hz)} Hz"
            )
        if not SF_MIN <= self.sf <= SF_MAX:
            raise ConfigurationError(f"sf must lie in [{SF_MIN}, {SF_MAX}], got {self.sf}")
        if not np.isfinite([self.fosc_hz, self.fs_hz]).all():
            raise ConfigurationError(
                f"fosc_hz and fs_hz must be finite, got {self.fosc_hz} and {self.fs_hz}"
            )
        m = self.ds_s * self.fs_hz
        # m < 2**63 first: round() cannot take inf
        if not (m < 2**63 and abs(m - round(m)) <= 1e-6 and 2 * self.n_bins * round(m) ** 2 < 2**63):
            raise ConfigurationError(
                f"fs={self.fs_hz} gives {m:.6g} samples per symbol; need an integer M "
                f"with 2 * 2^sf * M^2 < 2^63"
            )
        object.__setattr__(self, "samples_per_symbol", round(m))

    @property
    def bw_hz(self) -> float:
        """Bandwidth fosc/8, set by the 8-clock minimum square-wave period."""
        return self.fosc_hz / MIN_CLOCKS_PER_PERIOD

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
    def toggle_grid_s(self) -> float:
        """Smallest realizable toggle spacing, one instruction cycle."""
        return CYCLES_PER_TOGGLE / self.fosc_hz


def derive_params(sf: int, fosc_hz: float, fs_hz: float | None = None) -> ChirpParams:
    """Chirp params of sf and the MCU clock; fs defaults to 16*bw."""
    if fs_hz is None:
        fs_hz = DEFAULT_OVERSAMPLING * (fosc_hz / MIN_CLOCKS_PER_PERIOD)
    return ChirpParams(sf=sf, fosc_hz=fosc_hz, fs_hz=fs_hz)


def _check_symbol(symbol: int, p: ChirpParams) -> None:
    if not 0 <= symbol < p.n_bins:
        raise ConfigurationError(f"symbol {symbol} out of range [0, {p.n_bins})")


def _phase_terms(symbol, p: ChirpParams, t):
    """(ramp, wrap) with phase = phi0 + ramp - wrap; broadcasts over symbol and t.

    ramp is 2*pi times the integral of the unwrapped frequency f0 + rate*t, and
    wrap the 2*pi*bw*(t - t_wrap) the modulo-bw wrap takes off after t_wrap.
    """
    f0 = symbol * p.bw_hz / p.n_bins
    rate = p.bw_hz / p.ds_s
    t_wrap = (p.bw_hz - f0) / rate
    ramp = 2 * np.pi * (f0 * t + 0.5 * rate * t * t)
    return ramp, 2 * np.pi * p.bw_hz * np.clip(t - t_wrap, 0.0, None)


def _envelopes(symbols, p: ChirpParams, quantized: bool) -> tuple[np.ndarray, np.ndarray]:
    """(samples, levels): rows of each symbol's envelope from phase 0.

    levels (True = high) are taken at d points x, t = x*ds/d, where with
    n = 2^sf the phase is exact in integers, each term below 2nd^2 < 2^63:
    phi/pi = (2sxd + nx^2 - [nx >= (n-s)d] (2nxd - 2(n-s)d^2)) / d^2.  Ideal:
    the M samples.  Quantized: the 2n grid points, 4/fosc apart, sample k
    holding the last one at or before it, floor(2nk/M).  The numerators are
    computed a block of at most _BLOCK_BYTES at a time.
    """
    n, m = p.n_bins, p.samples_per_symbol
    d = 2 * n if quantized else m
    x = np.arange(d, dtype=np.int64)
    levels = np.empty((len(symbols), d), dtype=bool)
    rows = max(1, _BLOCK_BYTES // (8 * d))
    for b0 in range(0, len(symbols), rows):
        s = np.asarray(symbols[b0 : b0 + rows], dtype=np.int64)[:, None]
        wrapped = n * x >= (n - s) * d
        # in place, so a block holds few temporaries of its size
        num = 2 * d * s + n * x
        num -= 2 * n * d * wrapped
        num *= x
        num += 2 * d * d * (n - s) * wrapped
        levels[b0 : b0 + rows] = num // (d * d) % 2 == 0
    return levels[:, np.arange(m) * d // m].astype(np.float64), levels


def _modulate(symbols, p: ChirpParams, quantized: bool) -> Waveform:
    """The envelope of a symbol sequence: its distinct symbols' rows laid end to end.

    Toggle instants are where the levels change, at k/fs (ideal) or 4j/fosc
    (quantized); one falls on every symbol boundary, as each ends low.
    """
    symbols = [int(s) for s in symbols]
    if not symbols:
        raise ConfigurationError("symbol sequence must be non-empty")
    for s in symbols:
        _check_symbol(s, p)
    distinct, rows = np.unique(symbols, return_inverse=True)
    samples, levels = _envelopes(distinct, p, quantized)
    changes = np.flatnonzero(np.diff(levels[rows].ravel())) + 1
    instants = changes * CYCLES_PER_TOGGLE / p.fosc_hz if quantized else changes / p.fs_hz
    return Waveform(samples[rows].ravel(), p.fs_hz, KIND_BINARY, toggle_instants=instants)


def modulate_ideal(symbols, p: ChirpParams) -> Waveform:
    """Binary-envelope square chirps: each sample holds the level of the exact phase at its instant."""
    return _modulate(symbols, p, quantized=False)


def quantize_toggles(w: Waveform, fosc_hz: float) -> Waveform:
    """Snap every envelope transition to the next instruction-cycle grid point.

    The MCU acts on or after the scheduled cycle, so each toggle moves up to
    the next multiple of 4/fosc.  ``w`` must come from modulate_ideal, which
    records the sample instant each level change first shows at.  Where the
    grid falls on samples (4*fs/fosc an integer, as at fs = fosc or 16*bw) that
    snaps as the exact instant does, giving modulate_quantized's samples.
    """
    if w.kind != KIND_BINARY:
        raise ConfigurationError("quantize_toggles needs a binary-envelope waveform")
    if w.toggle_instants is None:
        raise ConfigurationError("quantize_toggles needs the toggle instants of modulate_ideal")
    k = np.round(np.asarray(w.toggle_instants) * w.fs_hz)
    step = CYCLES_PER_TOGGLE * w.fs_hz / fosc_hz  # grid spacing in samples
    shortest = np.diff(k).min(initial=np.inf)
    if shortest < step:
        raise ConfigurationError(
            f"bandwidth infeasible: shortest half-period {shortest / w.fs_hz:.3e} s is below "
            f"the 8-clock-cycle minimum (toggle grid {CYCLES_PER_TOGGLE / fosc_hz:.3e} s)"
        )
    j = np.ceil(k / step)
    # a toggle at grid point j shows from the first sample at or after it
    flips = np.searchsorted(np.ceil(j * step), np.arange(len(w.samples)), side="right")
    initial = int(w.samples[0]) if len(w.samples) else 1
    samples = ((initial + flips) % 2).astype(np.float64)
    return Waveform(samples, w.fs_hz, KIND_BINARY, toggle_instants=CYCLES_PER_TOGGLE * j / fosc_hz)


def modulate_quantized(symbols, p: ChirpParams) -> Waveform:
    """Binary-envelope square chirps with every toggle moved up to the 4/fosc instruction-cycle grid."""
    return _modulate(symbols, p, quantized=True)


@dataclass
class PowerSpectrum:
    """Discrete power spectrum; psd sums to the time-domain mean-square power."""

    freqs_hz: np.ndarray
    psd: np.ndarray
    total_power: float


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

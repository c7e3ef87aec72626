"""Square-chirp synthesis: ideal and clock-quantized binary-envelope symbols.

A symbol's instantaneous frequency ramps linearly from its start frequency and
wraps modulo the bandwidth, giving the familiar piecewise-linear
time-frequency ridge.  The transmitted waveform is the binary envelope of that
chirp (antenna shorted/open), optionally with every toggle instant snapped to
the MCU instruction-cycle grid of 4/Fosc.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Square-chirp symbol parameters with derived bandwidth, duration and data rate."""

    sf: int
    fosc_hz: float
    fs_hz: float

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
    def samples_per_symbol(self) -> int:
        n = self.ds_s * self.fs_hz
        if not n <= np.iinfo(np.int64).max:  # exact int/float comparison; inf fails it
            raise ConfigurationError(f"fs={self.fs_hz}: {n:.3g} samples per symbol overflow int64")
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


def _py_squares(x: np.ndarray) -> np.ndarray:
    """x**2 in Python float arithmetic, element by element.

    Python's ``**`` calls the C library's pow, which can differ from numpy's
    ``x * x`` in the last bit (0.00024**2 does), and the toggle instants are
    defined by the former.
    """
    return np.array([v**2 for v in x.tolist()])


def _pi_crossings(phi_start: np.ndarray, phi_end: np.ndarray):
    """Multiples m of pi in (phi_start[j], phi_end[j]] for every segment j.

    Returns (seg, m, counts): the segment of each crossing in ascending order,
    m as float64, and the number of crossings per segment.
    """
    m_lo = np.floor(phi_start / np.pi) + 1
    counts = np.maximum(np.floor(phi_end / np.pi) - m_lo + 1, 0).astype(np.int64)
    seg = np.repeat(np.arange(len(counts)), counts)
    m = m_lo[seg] + (np.arange(len(seg)) - (np.cumsum(counts) - counts)[seg])
    return seg, m, counts


def _toggle_instants(symbols: np.ndarray, phi0: np.ndarray, p: ChirpParams):
    """Continuous-time instants in [0, ds) where each symbol's envelope flips.

    The envelope is 1 while frac(phi/2pi) < 1/2, so flips happen exactly where
    the phase crosses a multiple of pi.  The phase is piecewise quadratic and
    non-decreasing, so each crossing is solved in closed form on segment A,
    f = f0 + rate*t on [0, t_wrap), and segment B, f = rate*(t - t_wrap) on
    [t_wrap, ds).  All symbols are solved at once, symbol i from phase phi0[i].

    Returns (instants, counts): symbol i's instants, relative to its own
    start, are the counts[i] entries after those of symbols 0..i-1.
    """
    f0 = symbols * p.bw_hz / p.n_bins
    rate = p.bw_hz / p.ds_s
    t_wrap = np.minimum((p.bw_hz - f0) / rate, p.ds_s)
    tau_max = p.ds_s - t_wrap  # 0 where the symbol never wraps: no B crossings

    phi_a1 = phi0 + 2 * np.pi * (f0 * t_wrap + 0.5 * rate * _py_squares(t_wrap))
    seg_a, m, count_a = _pi_crossings(phi0, phi_a1)
    c = (m * np.pi - phi0[seg_a]) / (2 * np.pi)
    fa = f0[seg_a]
    # a crossing exactly at the wrap belongs to segment A; clip the float
    # overshoot instead of filtering it out
    t_a = np.minimum((np.sqrt(fa * fa + 2 * rate * c) - fa) / rate, t_wrap[seg_a])

    phi_b1 = phi_a1 + 2 * np.pi * 0.5 * rate * _py_squares(tau_max)
    seg_b, m, count_b = _pi_crossings(phi_a1, phi_b1)
    c = (m * np.pi - phi_a1[seg_b]) / (2 * np.pi)
    # a crossing exactly at the symbol boundary belongs to this symbol; clip
    # the float overshoot instead of filtering it out
    t_b = t_wrap[seg_b] + np.minimum(np.sqrt(2 * c / rate), tau_max[seg_b])

    # each symbol's A crossings, then its B crossings
    out = np.empty(len(t_a) + len(t_b))
    out[np.arange(len(t_a)) + (np.cumsum(count_b) - count_b)[seg_a]] = t_a
    out[np.arange(len(t_b)) + np.cumsum(count_a)[seg_b]] = t_b
    return out, count_a + count_b


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


def _snap_to_grid(instants: np.ndarray, grid_s: float) -> np.ndarray:
    """Round sorted toggle instants up to the grid, at least one step apart."""
    if len(instants) > 1:
        min_sep = float(np.min(np.diff(instants)))
        if min_sep < grid_s - 1e-15:
            raise ConfigurationError(
                f"bandwidth infeasible: shortest half-period {min_sep:.3e} s is below "
                f"the 8-clock-cycle minimum (toggle grid {grid_s:.3e} s)"
            )
    snapped = np.ceil(instants / grid_s - 1e-9) * grid_s
    if len(snapped) > 1:
        # a toggle may not land on or before its predecessor's grid point
        steps = np.arange(len(snapped)) * grid_s
        snapped = np.maximum.accumulate(snapped - steps) + steps
    return snapped


def _render_from_toggles(
    toggles_s: np.ndarray, initial_value: int, n_samples: int, fs_hz: float
) -> np.ndarray:
    """Binary samples at t_k = k/fs from sorted continuous toggle instants.

    Sample k has flipped once for every toggle t <= k/fs, so a toggle takes
    effect from the first k with k/fs >= t.  That k is ceil(t*fs), moved by
    one step either way where rounding put it off the first such k.  The
    samples are then alternating levels repeated over the run lengths between
    those first samples: the cost grows with the toggles, not the samples.
    """
    k = np.ceil(toggles_s * fs_hz)
    k -= (k - 1) / fs_hz >= toggles_s
    k += k / fs_hz < toggles_s
    runs = np.diff(np.clip(k, 0, n_samples).astype(np.int64), prepend=0, append=n_samples)
    levels = (initial_value + np.arange(len(runs))) % 2
    return np.repeat(levels.astype(np.float64), runs)


def _ideal_toggles(symbols, p: ChirpParams) -> tuple[np.ndarray, int]:
    """(exact toggle instants, sample count) of the envelope of a symbol sequence.

    Phase accumulates across symbols (a GPIO loop cannot reset phase), so a
    repeated symbol continues where the previous one left off.  Each symbol's
    start phase is the previous one's end phase mod 2*pi, chained in a scalar
    loop; the toggle instants of every symbol are then solved in one batch.
    """
    symbols = [int(s) for s in symbols]
    if not symbols:
        raise ConfigurationError("symbol sequence must be non-empty")
    for s in symbols:
        _check_symbol(s, p)
    n_samples = p.samples_per_symbol * len(symbols)
    symbols = np.array(symbols)
    ramp, wrap = _phase_terms(symbols, p, p.ds_s)
    phi0 = [0.0]
    for r, w in zip(ramp[:-1].tolist(), wrap[:-1].tolist()):
        phi0.append((phi0[-1] + r - w) % (2 * np.pi))
    rel, counts = _toggle_instants(symbols, np.array(phi0), p)
    starts = np.repeat(np.arange(len(symbols)) * p.ds_s, counts)
    return _drop_coincident_pairs(starts + rel, p.bw_hz), n_samples


def modulate_ideal(symbols, p: ChirpParams) -> Waveform:
    """Binary-envelope square chirps with exact (unquantized) toggle instants.

    The envelope starts high (phi(0) = 0 -> frac 0 < 1/2) and is rendered run
    by run from its toggles, so the cost grows with the toggles, not the samples.
    """
    instants, n_samples = _ideal_toggles(symbols, p)
    samples = _render_from_toggles(instants, 1, n_samples, p.fs_hz)
    return Waveform(samples, p.fs_hz, KIND_BINARY, toggle_instants=instants)


def _symbol_envelopes(p: ChirpParams, quantized: bool) -> np.ndarray:
    """Row s: the samples of modulate_ideal([s], p), quantized as quantize_toggles does.

    One batch solve for all 2^sf symbols from phase 0, then per row only the
    coincident-pair drop, the optional snap and the render.
    """
    n, m = p.n_bins, p.samples_per_symbol
    rel, counts = _toggle_instants(np.arange(n), np.zeros(n), p)
    rows = np.empty((n, m))
    for s, t in enumerate(np.split(rel, np.cumsum(counts)[:-1])):
        t = _drop_coincident_pairs(t, p.bw_hz)
        if quantized:
            t = _snap_to_grid(t, p.toggle_grid_s)
        # every toggle of a symbol from phase 0 lies after t = 0
        rows[s] = _render_from_toggles(t, 1, m, p.fs_hz)
    return rows


def quantize_toggles(w: Waveform, fosc_hz: float) -> Waveform:
    """Snap every envelope transition to the next instruction-cycle grid point.

    The MCU can only act on or after the scheduled cycle, so instants round
    upward to multiples of 4/fosc and keep at least one grid step between
    consecutive transitions.  ``w`` must come from modulate_ideal, which
    records the exact toggle instants the quantizer snaps.
    """
    if w.kind != KIND_BINARY:
        raise ConfigurationError("quantize_toggles needs a binary-envelope waveform")
    if w.toggle_instants is None:
        raise ConfigurationError("quantize_toggles needs the toggle instants of modulate_ideal")
    instants = np.asarray(w.toggle_instants, dtype=np.float64)
    initial = int(w.samples[0]) if len(w.samples) else 1
    return _snapped_envelope(instants, initial, len(w.samples), w.fs_hz, fosc_hz)


def _snapped_envelope(instants, initial: int, n_samples: int, fs_hz: float, fosc_hz: float) -> Waveform:
    """The binary envelope of sorted ideal toggle instants snapped to the 4/fosc grid."""
    snapped = _snap_to_grid(instants, CYCLES_PER_TOGGLE / fosc_hz)
    samples = _render_from_toggles(snapped, initial, n_samples, fs_hz)
    return Waveform(samples, fs_hz, KIND_BINARY, toggle_instants=snapped)


def modulate_quantized(symbols, p: ChirpParams) -> Waveform:
    """quantize_toggles(modulate_ideal(symbols, p), p.fosc_hz), rendered once.

    The ideal envelope starts high (its first toggle lies after t = 0), so only
    its toggle instants are solved, then snapped and rendered.
    """
    instants, n_samples = _ideal_toggles(symbols, p)
    return _snapped_envelope(instants, 1, n_samples, p.fs_hz, p.fosc_hz)


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

"""Receiver-side DSP: dechirp demodulation and closed-form error-rate theory."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chirp import ChirpParams
from .errors import ConfigurationError
from .waveform import Waveform

# Fraction of backscattered square-chirp power that the dechirp bin captures,
# as used by the closed-form SNR.  4/pi^2 is the analytic first-harmonic
# share of an ideal square wave discounted by the folded-image split.
PAPER_DETECTION_FRACTION = 0.712

# Two-sided 95% standard-normal quantile of the Wilson interval.
WILSON_Z95 = 1.959963984540054


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_theory(snr: float, sf: int) -> float:
    """Closed-form bit error probability of noncoherent chirp detection.

    Pb = Q( sqrt(snr * 2^(sf+1)) - sqrt(1.386*sf + 1.154) ) / 2.
    """
    if sf < 1:
        raise ConfigurationError(f"sf must be >= 1, got {sf}")
    arg = math.sqrt(max(snr, 0.0) * 2.0 ** (sf + 1)) - math.sqrt(1.386 * sf + 1.154)
    return 0.5 * qfunc(arg)


def effective_snr(
    ps_w: float, bw_hz: float, n0_w_per_hz: float, fraction: float = PAPER_DETECTION_FRACTION
) -> float:
    """Detection SNR = fraction * Ps / (Bw * N0)."""
    if bw_hz <= 0 or n0_w_per_hz <= 0:
        raise ConfigurationError("bw_hz and n0_w_per_hz must be positive")
    return fraction * ps_w / (bw_hz * n0_w_per_hz)


def snr_for_ber(pb: float, sf: int) -> float:
    """Invert ber_theory for the SNR giving bit error probability pb."""
    if not 0.0 < pb < 0.5:
        raise ConfigurationError(f"pb must lie in (0, 0.5), got {pb}")
    lo, hi = 0.0, 50.0  # Q(x) = 2*pb, bisect on the monotone tail
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if qfunc(mid) > 2.0 * pb:
            lo = mid
        else:
            hi = mid
    arg = 0.5 * (lo + hi)
    root = arg + math.sqrt(1.386 * sf + 1.154)
    return root * root / 2.0 ** (sf + 1)


@lru_cache(maxsize=None)
def _downchirp_conj(sf: int, samples_per_symbol: int) -> np.ndarray:
    """conj of the ideal complex base up-chirp at the waveform sample rate."""
    n_bins = 1 << sf
    m = samples_per_symbol
    t = np.arange(m) / m  # in units of ds
    phase = 2 * np.pi * n_bins * (0.5 * t * t)
    return np.exp(-1j * phase)


def dechirp_bins(x: np.ndarray, p: ChirpParams) -> np.ndarray:
    """Fold one symbol's dechirped spectrum into the 2^sf decision bins.

    The signal is multiplied by the conjugate base up-chirp at the full sample
    rate and FFT'd over all M = 2^sf * (fs/bw) samples.  A symbol s puts
    energy at bin s and, after the frequency wrap, at bin s - 2^sf + M; phase
    continuity makes the two add coherently, so F[k] = X[k] + X[M - 2^sf + k].
    ChirpParams holds fs >= 8 bw, so M >= 8 * 2^sf.
    """
    m = p.samples_per_symbol
    if x.shape[-1] != m:
        raise ConfigurationError(f"expected {m} samples per symbol, got {x.shape[-1]}")
    n = p.n_bins
    spec = np.fft.fft(np.asarray(x) * _downchirp_conj(p.sf, m), axis=-1)
    return spec[..., :n] + spec[..., m - n : m]


def demodulate_stream(w: Waveform, p: ChirpParams) -> np.ndarray:
    """Demodulate every whole back-to-back symbol of w (batched FFT; exact timing assumed)."""
    if abs(w.fs_hz - p.fs_hz) > 1e-6 * p.fs_hz:
        raise ConfigurationError(
            f"waveform rate {w.fs_hz} Hz does not match params fs {p.fs_hz} Hz"
        )
    m = p.samples_per_symbol
    n_symbols = len(w.samples) // m
    if n_symbols < 1:
        raise ConfigurationError(f"waveform has {len(w.samples)} samples, need at least {m}")
    x = w.mean_removed()[: n_symbols * m].reshape(n_symbols, m)
    mags = np.abs(dechirp_bins(x, p))
    return np.argmax(mags, axis=1)


_POPCOUNT = np.unpackbits(np.arange(65536, dtype=np.uint16).view(np.uint8)).reshape(-1, 16).sum(
    axis=1
)


def bit_errors(sent: np.ndarray, detected: np.ndarray) -> int:
    """Total differing bits between sent and detected symbol arrays."""
    x = (np.asarray(sent, dtype=np.int64) ^ np.asarray(detected, dtype=np.int64)) & 0xFFFF
    return int(_POPCOUNT[x].sum())


@dataclass
class BerResult:
    """Monte-Carlo error-rate estimate with a Wilson 95% half-width on the BER."""

    n_symbols: int
    n_bits: int
    n_symbol_errors: int
    n_bit_errors: int
    ser: float
    ber: float
    wilson_95_halfwidth: float


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion.

    The bounds are exactly 0 at k = 0 and exactly 1 at k = n, where
    center -/+ half cancels only to within rounding.
    """
    if n <= 0:
        return 0.0, 1.0
    phat = k / n
    z2 = WILSON_Z95 * WILSON_Z95
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = WILSON_Z95 * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def score(sent: np.ndarray, detected: np.ndarray, sf: int) -> BerResult:
    sent = np.asarray(sent)
    detected = np.asarray(detected)
    if sent.shape != detected.shape:
        raise ConfigurationError("sent and detected symbol arrays differ in length")
    n = len(sent)
    serr = int(np.count_nonzero(sent != detected))
    berr = bit_errors(sent, detected)
    nbits = n * sf
    lo, hi = wilson_interval(berr, nbits)
    return BerResult(
        n_symbols=n,
        n_bits=nbits,
        n_symbol_errors=serr,
        n_bit_errors=berr,
        ser=serr / n if n else 0.0,
        ber=berr / nbits if nbits else 0.0,
        wilson_95_halfwidth=0.5 * (hi - lo),
    )

"""Through-concrete channel: measured power table, noise, bursts."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigurationError


@cache
def _power_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eirp_dbm, depth_cm, pr_dbm) of the measured incident-power table,
    pr_dbm of shape (len(eirp), len(depth)); read on first use, read-only.

    The grid is the 6x4 measurement campaign: EIRP levels from 9.7 to 36 dBm,
    depths 3.5 to 13.5 cm.  Power grows with EIRP at every depth; it is *not*
    monotone in depth (the deepest sensor sits near a reflective boundary), so
    only the EIRP direction is validated.
    """
    path = resources.files("rfsn.data").joinpath("incident_power.csv")
    with path.open("r", encoding="utf-8") as fh:
        rows = [
            (float(r["eirp_dbm"]), float(r["depth_cm"]), float(r["pr_dbm"]))
            for r in csv.DictReader(fh)
        ]
    eirps = sorted({r[0] for r in rows})
    depths = sorted({r[1] for r in rows})
    grid = np.full((len(eirps), len(depths)), np.nan)
    for e, d, p in rows:
        grid[eirps.index(e), depths.index(d)] = p
    if np.isnan(grid).any():
        raise ConfigurationError("incident power grid has missing cells")
    if np.any(np.diff(grid, axis=0) <= 0):
        raise ConfigurationError("incident power must increase with EIRP at every depth")
    arrays = (np.array(eirps), np.array(depths), grid)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def incident_power_dbm(eirp_dbm: float, depth_cm: float) -> float:
    """Measured incident power (dBm) at the embedded node, bilinear on the
    measurement grid in EIRP and burial depth; no extrapolation."""
    e, d, z = _power_grid()
    if not (e[0] <= eirp_dbm <= e[-1]) or not (d[0] <= depth_cm <= d[-1]):
        raise ConfigurationError(
            f"({eirp_dbm} dBm, {depth_cm} cm) outside the measured grid "
            f"[{e[0]}, {e[-1]}] dBm x [{d[0]}, {d[-1]}] cm"
        )
    i = min(int(np.searchsorted(e, eirp_dbm, side="right")) - 1, len(e) - 2)
    j = min(int(np.searchsorted(d, depth_cm, side="right")) - 1, len(d) - 2)
    u = (eirp_dbm - e[i]) / (e[i + 1] - e[i])
    v = (depth_cm - d[j]) / (d[j + 1] - d[j])
    return float(
        (1 - u) * (1 - v) * z[i, j]
        + u * (1 - v) * z[i + 1, j]
        + (1 - u) * v * z[i, j + 1]
        + u * v * z[i + 1, j + 1]
    )


def permittivity_from_shift(f_air_hz: float, f_embedded_hz: float) -> float:
    """Relative permittivity of the medium that shifts an air-tuned antenna's
    resonance from f_air to f_embedded = f_air / sqrt(eps_r)."""
    if not 0 < f_embedded_hz <= f_air_hz:
        raise ConfigurationError("embedded resonance must lie in (0, f_air]")
    return (f_air_hz / f_embedded_hz) ** 2


def dbm_to_w(power_dbm: float) -> float:
    """Power in watts of a level given in dBm."""
    try:
        return 10.0 ** ((power_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ConfigurationError(f"{power_dbm} dBm is too large to express in watts") from None


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise with one-sided density n0 (W/Hz).

    Real samples get variance n0*fs/2.  Complex (analytic) samples get the
    same *total* variance, split across the quadratures, so a complex chirp
    sees exactly the noise density a real implementation would after its
    image is discarded.
    """

    n0_w_per_hz: float

    def variance(self, fs_hz: float) -> float:
        """Per-sample noise power n0*fs/2 at sample rate fs_hz."""
        if self.n0_w_per_hz < 0:
            raise ConfigurationError("noise density must be non-negative")
        return self.n0_w_per_hz * fs_hz / 2.0

    def add(self, samples: np.ndarray, fs_hz: float, rng: np.random.Generator) -> np.ndarray:
        var = self.variance(fs_hz)
        if np.iscomplexobj(samples):
            sigma = math.sqrt(var / 2.0)
            return samples + sigma * (
                rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
            )
        return samples + math.sqrt(var) * rng.standard_normal(samples.shape)


class WBurstModel:
    """Strong periodic-on-average wideband interference.

    Bursts arrive as a Poisson process with mean interval MEAN_INTERVAL_S and
    last DURATION_S each.  Amplitude is AMPLITUDE_SCALE times the RMS of the
    disturbed signal — the interferer is co-located machinery, orders of
    magnitude above the backscatter level.  ENVELOPE gives the burst shape as
    knot values evenly spaced over one burst duration: a full-swing zigzag.
    """

    MEAN_INTERVAL_S = 0.5
    DURATION_S = 3e-3
    AMPLITUDE_SCALE = 150.0
    ENVELOPE = (1.0, -1.0, 1.0, -1.0, 1.0)

    @staticmethod
    def arrival_times(t_end_s: float, rng: np.random.Generator) -> np.ndarray:
        """Poisson arrivals with rate 1/MEAN_INTERVAL_S over [0, t_end)."""
        times = []
        t = 0.0
        while True:
            t += rng.exponential(WBurstModel.MEAN_INTERVAL_S)
            if t >= t_end_s:
                break
            times.append(t)
        return np.asarray(times)


@lru_cache(maxsize=16)
def burst_template(n_samples: int) -> np.ndarray:
    """One burst's envelope, linear between WBurstModel.ENVELOPE's evenly spaced
    knots, at n_samples points spanning the burst with both ends included
    (cached, read-only)."""
    knots = np.asarray(WBurstModel.ENVELOPE, dtype=np.float64)
    t = np.linspace(0.0, 1.0, n_samples)
    out = np.interp(t, np.linspace(0.0, 1.0, len(knots)), knots)
    out.flags.writeable = False
    return out


def _burst_rows(arrivals_s: np.ndarray, m: int, fs_hz: float, rms: float, k0: int, k1: int):
    """The bursts on the symbols k0 <= k < k1 of a stream of m-sample symbols.

    arrivals_s are sorted arrival times drawn by WBurstModel.arrival_times over
    the whole stream.  A burst arriving at t adds AMPLITUDE_SCALE * rms times
    burst_template to the round(DURATION_S*fs) samples from sample round(t*fs).
    Returns the sorted symbols ks in [k0, k1) a burst touches and their
    (len(ks), m) samples, bursts added in arrival order, so ranges laid end to
    end receive every burst exactly once.
    """
    n_burst = max(1, int(round(WBurstModel.DURATION_S * fs_hz)))
    first = np.round(np.asarray(arrivals_s, dtype=np.float64) * fs_hz).astype(np.int64)
    # the bursts that end after sample k0*m and start before sample k1*m
    lo, hi = np.searchsorted(first, (k0 * m - n_burst + 1, k1 * m))
    first = first[lo:hi]
    if not len(first):
        return np.empty(0, dtype=np.int64), np.zeros((0, m))
    a = np.maximum(first, k0 * m)  # each burst's first and one-past-last sample in range
    b = np.minimum(first + n_burst, k1 * m)
    ka, kb = a // m, (b - 1) // m
    ks = ka[:, None] + np.arange(int(np.max(kb - ka, initial=0)) + 1)
    ks = k0 + np.flatnonzero(np.bincount(ks[ks <= kb[:, None]] - k0))
    # a burst's symbols are consecutive in ks, so its samples are one flat slice
    rows = np.zeros((len(ks), m))
    starts = np.searchsorted(ks, ka) * m + a % m
    template = WBurstModel.AMPLITUDE_SCALE * rms * burst_template(n_burst)
    for s, u, v in zip(starts.tolist(), (a - first).tolist(), (b - first).tolist()):
        rows.reshape(-1)[s : s + v - u] += template[u:v]
    return ks, rows


def interference_symbol_error_rate(ds_s: float) -> float:
    """Closed-form symbol corruption rate: ceil(Dw/Ds)*Ds/Tw, clamped to [0, 1].

    Each burst lands inside some symbol and destroys it plus the symbols it
    spills into: ceil(Dw/Ds) symbols per burst, bursts at rate 1/Tw.
    """
    if ds_s <= 0:
        raise ConfigurationError("symbol duration must be positive")
    dw, tw = WBurstModel.DURATION_S, WBurstModel.MEAN_INTERVAL_S
    return min(1.0, math.ceil(dw / ds_s) * ds_s / tw)

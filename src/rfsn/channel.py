"""Through-concrete channel: measured power table, noise, bursts."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import ConfigurationError

# Periodic wideband interference defaults: one burst every 0.5 s lasting 3 ms.
W_BURST_PERIOD_S = 0.5
W_BURST_DURATION_S = 3e-3
W_BURST_AMPLITUDE_SCALE = 150.0


def _load_table_rows() -> list[tuple[float, float, float]]:
    path = resources.files("rfsn.data").joinpath("incident_power.csv")
    with path.open("r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [
            (float(r["eirp_dbm"]), float(r["depth_cm"]), float(r["pr_dbm"])) for r in reader
        ]


@dataclass
class IncidentPowerTable:
    """Measured incident power (dBm) at the embedded node vs EIRP and burial depth.

    The grid is the 6x4 measurement campaign: EIRP levels from 9.7 to 36 dBm,
    depths 3.5 to 13.5 cm.  Power grows with EIRP at every depth; it is *not*
    monotone in depth (the deepest sensor sits near a reflective boundary), so
    only the EIRP direction is validated.
    """

    eirp_dbm: np.ndarray
    depth_cm: np.ndarray
    pr_dbm: np.ndarray  # shape (len(eirp), len(depth))

    @classmethod
    def default(cls) -> "IncidentPowerTable":
        rows = _load_table_rows()
        eirps = sorted({r[0] for r in rows})
        depths = sorted({r[1] for r in rows})
        grid = np.full((len(eirps), len(depths)), np.nan)
        for e, d, p in rows:
            grid[eirps.index(e), depths.index(d)] = p
        table = cls(np.array(eirps), np.array(depths), grid)
        table.validate()
        return table

    def validate(self) -> None:
        if self.pr_dbm.shape != (len(self.eirp_dbm), len(self.depth_cm)):
            raise ConfigurationError("incident power grid shape mismatch")
        if np.isnan(self.pr_dbm).any():
            raise ConfigurationError("incident power grid has missing cells")
        if np.any(np.diff(self.eirp_dbm) <= 0) or np.any(np.diff(self.depth_cm) <= 0):
            raise ConfigurationError("table axes must be strictly increasing")
        if np.any(np.diff(self.pr_dbm, axis=0) <= 0):
            raise ConfigurationError("incident power must increase with EIRP at every depth")

    def incident_power_dbm(self, eirp_dbm: float, depth_cm: float) -> float:
        """Bilinear interpolation on the measurement grid; no extrapolation."""
        e, d = self.eirp_dbm, self.depth_cm
        if not (e[0] <= eirp_dbm <= e[-1]) or not (d[0] <= depth_cm <= d[-1]):
            raise ConfigurationError(
                f"({eirp_dbm} dBm, {depth_cm} cm) outside the measured grid "
                f"[{e[0]}, {e[-1]}] dBm x [{d[0]}, {d[-1]}] cm"
            )
        i = min(int(np.searchsorted(e, eirp_dbm, side="right")) - 1, len(e) - 2)
        j = min(int(np.searchsorted(d, depth_cm, side="right")) - 1, len(d) - 2)
        u = (eirp_dbm - e[i]) / (e[i + 1] - e[i])
        v = (depth_cm - d[j]) / (d[j + 1] - d[j])
        z = self.pr_dbm
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


# Default envelope of one wideband burst: knots evenly spaced over a unit
# duration, a full-swing zigzag through +1, -1, +1, -1, +1.
W_BURST_ENVELOPE = (1.0, -1.0, 1.0, -1.0, 1.0)


@lru_cache(maxsize=16)
def burst_template(n_samples: int, envelope: tuple[float, ...] = W_BURST_ENVELOPE) -> np.ndarray:
    """One burst's envelope, linear between evenly spaced knots, at n_samples
    points spanning the burst with both ends included (cached, read-only)."""
    knots = np.asarray(envelope, dtype=np.float64)
    t = np.linspace(0.0, 1.0, n_samples)
    out = np.interp(t, np.linspace(0.0, 1.0, len(knots)), knots)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WBurstModel:
    """Strong periodic-on-average wideband interference.

    Bursts arrive as a Poisson process with mean interval ``mean_interval_s``
    and last ``duration_s`` each.  Amplitude is ``amplitude_scale`` times the
    RMS of the disturbed signal — the interferer is co-located machinery,
    orders of magnitude above the backscatter level.  ``envelope`` gives the
    burst shape as knot values evenly spaced over one burst duration.
    """

    mean_interval_s: float = W_BURST_PERIOD_S
    duration_s: float = W_BURST_DURATION_S
    amplitude_scale: float = W_BURST_AMPLITUDE_SCALE
    envelope: tuple[float, ...] = W_BURST_ENVELOPE

    def __post_init__(self) -> None:
        if self.mean_interval_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError("burst interval and duration must be positive")
        if self.duration_s >= self.mean_interval_s:
            raise ConfigurationError("burst duration must be below the mean interval")
        if self.amplitude_scale < 0:
            raise ConfigurationError("amplitude_scale must be non-negative")

    def arrival_times(
        self, t_start_s: float, t_end_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Poisson arrivals with rate 1/mean_interval over [t_start, t_end)."""
        times = []
        t = t_start_s
        while True:
            t += rng.exponential(self.mean_interval_s)
            if t >= t_end_s:
                break
            times.append(t)
        return np.asarray(times)


def _burst_windows(m: WBurstModel, arrivals_s: np.ndarray, fs_hz: float) -> tuple[np.ndarray, int]:
    """First sample index round(t*fs) of each burst on the global grid, and
    the burst length in samples."""
    first = np.round(np.asarray(arrivals_s, dtype=np.float64) * fs_hz).astype(np.int64)
    return first, max(1, int(round(m.duration_s * fs_hz)))


def add_w_bursts(
    x: np.ndarray,
    m: WBurstModel,
    arrivals_s: np.ndarray,
    t_start_s: float,
    fs_hz: float,
    rms: float,
) -> None:
    """Add m's bursts in place to the 1-D sample block x starting at t_start_s.

    ``arrivals_s`` are sorted burst arrival times, as drawn by
    ``m.arrival_times`` over the whole stream.  Each burst is placed on the
    global sample grid, so a burst that starts before the block adds its tail,
    one running past the block's end is cut off there, and blocks laid end to
    end receive every burst exactly once.  Burst amplitude is
    ``m.amplitude_scale * rms``.
    """
    b0 = int(round(t_start_s * fs_hz))
    pad = m.duration_s + 2.0 / fs_hz  # covers the rounding of both ends
    lo, hi = np.searchsorted(arrivals_s, [t_start_s - pad, t_start_s + len(x) / fs_hz + pad])
    first, n_burst = _burst_windows(m, arrivals_s[lo:hi], fs_hz)
    template = m.amplitude_scale * rms * burst_template(n_burst, m.envelope)
    for i in first - b0:
        a, b = max(i, 0), min(i + n_burst, len(x))
        if a < b:
            x[a:b] += template[a - i : b - i]


def interference_symbol_error_rate(ds_s: float, m: WBurstModel | None = None) -> float:
    """Closed-form symbol corruption rate: ceil(Dw/Ds)*Ds/Tw, clamped to [0, 1].

    Each burst lands inside some symbol and destroys it plus the symbols it
    spills into: ceil(Dw/Ds) symbols per burst, bursts at rate 1/Tw.
    """
    m = m or WBurstModel()
    if ds_s <= 0:
        raise ConfigurationError("symbol duration must be positive")
    return min(1.0, math.ceil(m.duration_s / ds_s) * ds_s / m.mean_interval_s)

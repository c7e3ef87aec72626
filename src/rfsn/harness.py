"""Experiment harness: configs, Monte-Carlo BER sweeps, charge sweeps, calibration."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import channel, chirp, powersim, rxdsp
from .errors import CalibrationError, ConfigurationError

# Sweep axis -> (cfg, table, value) -> (fosc_hz, pr_dbm) of that sweep point.
SWEEP_AXES = {
    "eirp_dbm": lambda cfg, table, v: (cfg.fosc_hz, table.incident_power_dbm(v, cfg.depth_cm)),
    "depth_cm": lambda cfg, table, v: (cfg.fosc_hz, table.incident_power_dbm(cfg.eirp_dbm, v)),
    "bandwidth_hz": lambda cfg, table, v: (
        8.0 * v,
        table.incident_power_dbm(cfg.eirp_dbm, cfg.depth_cm),
    ),
    "pr_dbm": lambda cfg, table, v: (cfg.fosc_hz, v),
}
TEMPLATE_KINDS = ("square-quantized", "square-ideal", "cosine", "complex")

# Symbols per seed-stable chunk of BerEngine.run.  Each chunk draws from its
# own SeedSequence child, so the chunks are independent of one another; the
# size bounds the memory of one chunk and is part of the seeded stream.
ENGINE_BATCH = 4096

# Composite-gain bracket (dB) searched by calibrate_composite_gain.
CALIBRATION_BRACKET_DB = (-40.0, 120.0)

# Measured passive cold start fitted by fit_passive_efficiency_scale: the
# 22 uF storage cap reaches V_MIN in 0.9 s at -2.3 dBm incident power.
PASSIVE_ANCHOR_PR_DBM = -2.3
PASSIVE_ANCHOR_TIME_S = 0.9
PASSIVE_ANCHOR_DT_S = 5e-4


@dataclass
class ExperimentConfig:
    """Flat experiment description, read from `key = value` files."""

    sf: int = 7
    fosc_hz: float = 32768.0
    depth_cm: float = 13.5
    eirp_dbm: float = 22.1
    n0_w_per_hz: float = 1.0
    composite_gain_db: float = 0.0
    template: str = "square-quantized"
    sweep_axis: str = "eirp_dbm"
    sweep_values: list[float] = field(default_factory=lambda: [22.1, 23.0, 24.0, 25.0])
    n_symbols: int = 20000
    base_seed: int = 1234
    bursts_enabled: bool = False
    burst_period_s: float = channel.W_BURST_PERIOD_S
    burst_duration_s: float = channel.W_BURST_DURATION_S
    burst_amplitude_scale: float = channel.W_BURST_AMPLITUDE_SCALE
    # charge-sweep knobs
    charge_variant: str = "passive"  # passive | active
    capacitance_f: float = powersim.DEFAULT_PASSIVE_CAP_F
    target_v: float = powersim.V_MIN
    dt_s: float = 1e-3
    efficiency_scale: float = 1.0
    # calibration knobs
    anchor_eirp_dbm: float = 22.1
    anchor_ber: float = 0.162
    n_symbols_calibration: int = 30000

    def burst_model(self) -> channel.WBurstModel:
        return channel.WBurstModel(
            self.burst_period_s, self.burst_duration_s, self.burst_amplitude_scale
        )

    def validate(self) -> None:
        """Raise one ConfigurationError naming every problem with this config.

        The chirp, burst and capacitor settings are checked by building the
        objects that own those checks.
        """
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(v):
                problems.append(f"{f.name}={v!r} is not finite")
            elif f.type == "list[float]" and not all(math.isfinite(x) for x in v):
                problems.append(f"{f.name}={v!r} holds a non-finite value")
        for build in (
            lambda: _engine_params(self),
            self.burst_model,
            lambda: powersim.Capacitor(self.capacitance_f),
        ):
            try:
                build()
            except ConfigurationError as exc:
                problems.append(str(exc))
        if self.n0_w_per_hz <= 0:
            problems.append(f"n0_w_per_hz={self.n0_w_per_hz} must be positive")
        if self.template not in TEMPLATE_KINDS:
            problems.append(f"template={self.template!r} not one of {TEMPLATE_KINDS}")
        if self.sweep_axis not in SWEEP_AXES:
            problems.append(f"sweep_axis={self.sweep_axis!r} not one of {tuple(SWEEP_AXES)}")
        if not self.sweep_values:
            problems.append("sweep_values is empty")
        if self.n_symbols < 1:
            problems.append(f"n_symbols={self.n_symbols} must be >= 1")
        if self.charge_variant not in ("passive", "active"):
            problems.append(f"charge_variant={self.charge_variant!r} not passive/active")
        if not 0 < self.dt_s <= 1e-3:
            problems.append(f"dt_s={self.dt_s} outside (0, 1e-3]")
        if self.efficiency_scale <= 0:
            problems.append(f"efficiency_scale={self.efficiency_scale} must be positive")
        if not 0.0 < self.anchor_ber < 0.5:
            problems.append(f"anchor_ber={self.anchor_ber} outside (0, 0.5)")
        if problems:
            raise ConfigurationError("invalid config: " + "; ".join(problems))


def _coerce(raw: str, type_name: str):
    raw = raw.strip()
    if type_name == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"cannot parse boolean from {raw!r}")
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return finite_float(raw)
    if type_name == "str":
        return raw
    if type_name == "list[float]":
        return [finite_float(v) for v in raw.split(",") if v.strip()]
    raise ConfigurationError(f"unsupported config field type {type_name}")


def finite_float(raw: str) -> float:
    """float() that also rejects nan and inf; shared by config files and CLI flags."""
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {raw.strip()!r}")
    return v


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines (# comments, blank lines allowed)."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected `key = value`, got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in types:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            kwargs[key] = _coerce(raw, types[key])
        except (ValueError, ConfigurationError) as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigurationError("config parse failed: " + "; ".join(problems))
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


class BerEngine:
    """Vectorized Monte-Carlo symbol chain for one ChirpParams/template pair.

    Each template is mean-removed and scaled to unit AC power, so the signal
    power equals ps for every symbol and the dechirp-bin capture matches the
    per-symbol detection fraction exactly.

    `dechirp_bins` is linear, so a symbol's decision bins are
    ``amp * template_bins[tx]`` plus the dechirped, mean-removed noise plus
    the dechirped, mean-removed bursts.  Complex noise is drawn straight in
    the 2^sf bins with its exact covariance; real noise has a dense
    pseudo-covariance there, so real templates keep the time-domain draw.
    """

    def __init__(self, p: chirp.ChirpParams, kind: str = "square-quantized"):
        if kind not in TEMPLATE_KINDS:
            raise ConfigurationError(f"unknown template kind {kind!r}")
        self.p = p
        self.kind = kind
        m = p.samples_per_symbol
        n = p.n_bins
        t = np.arange(m) / p.fs_hz
        if kind == "complex":
            tpl = np.empty((n, m), dtype=np.complex128)
            for s in range(n):
                tpl[s] = np.exp(1j * chirp.symbol_phase(s, p, t))
        elif kind == "cosine":
            tpl = np.empty((n, m))
            for s in range(n):
                tpl[s] = np.cos(chirp.symbol_phase(s, p, t))
        else:
            tpl = np.empty((n, m))
            for s in range(n):
                w = chirp.modulate_ideal([s], p)
                if kind == "square-quantized":
                    w = chirp.quantize_toggles(w, p.fosc_hz)
                tpl[s] = w.samples
        tpl = tpl - tpl.mean(axis=1, keepdims=True)
        rms = np.sqrt(np.mean(np.abs(tpl) ** 2, axis=1, keepdims=True))
        self.templates = tpl / rms

    @cached_property
    def template_bins(self) -> np.ndarray:
        """Noiseless decision bins of every template: row s is dechirp_bins(templates[s])."""
        return rxdsp.dechirp_bins(self.templates, self.p)

    @cached_property
    def _noise_factor(self) -> tuple[float, np.ndarray, float]:
        """(sqrt(2M), u_hat, g) of the bin-noise factor L = sqrt(2M) (I - g u_hat u_hat^H).

        With D the dechirp_bins map and P = I - 1 1^T / M the mean removal,
        white complex noise of per-sample power var leaves bin covariance
        var D P D^H = var (2M I - u u^H / M), where u = D 1: the two folded
        halves of an M-point DFT give D D^H = 2M I.  L L^H equals the bracket
        when g = 1 - sqrt(1 - |u|^2 / (2 M^2)).
        """
        m = self.p.samples_per_symbol
        u = rxdsp.dechirp_bins(np.ones(m), self.p)
        norm2 = float(np.vdot(u, u).real)
        g = 1.0 - math.sqrt(1.0 - norm2 / (2.0 * m * m))
        return math.sqrt(2.0 * m), u / math.sqrt(norm2), g

    def _color(self, z: np.ndarray, scale: float) -> np.ndarray:
        """Turn each row z (a column vector) into scale * L z, in place."""
        a, u_hat, g = self._noise_factor
        z *= scale * a
        z -= (z @ (g * u_hat.conj()))[:, None] * u_hat
        return z

    def _burst_symbols(
        self, bursts: channel.WBurstModel, arrivals_s: np.ndarray, n_symbols: int
    ) -> np.ndarray:
        """Sorted indices of the symbols below n_symbols that a burst touches."""
        m = self.p.samples_per_symbol
        first, n_burst = channel._burst_windows(bursts, arrivals_s, self.p.fs_hz)
        k0, k1 = first // m, (first + n_burst - 1) // m
        ks = k0[:, None] + np.arange(int(np.max(k1 - k0, initial=0)) + 1)
        ks = np.unique(ks[ks <= k1[:, None]])
        return ks[ks < n_symbols]

    def _burst_bins(
        self, bursts: channel.WBurstModel, arrivals_s: np.ndarray, amp: float, ks: np.ndarray
    ) -> np.ndarray:
        """Decision bins of the mean-removed bursts alone on the sorted symbols ks."""
        p = self.p
        m = p.samples_per_symbol
        rows = np.zeros((len(ks), m))
        # each run of consecutive symbols is one contiguous block of the stream
        for run in np.split(np.arange(len(ks)), np.flatnonzero(np.diff(ks) > 1) + 1):
            block = rows[run[0] : run[-1] + 1].reshape(-1)
            channel.add_w_bursts(block, bursts, arrivals_s, ks[run[0]] * m / p.fs_hz, p.fs_hz, amp)
        return rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)

    def detection_fraction(self) -> float:
        """Mean dechirp-bin power capture of the scaled templates."""
        m = self.p.samples_per_symbol
        s = np.arange(self.p.n_bins)
        peak = np.abs(self.template_bins[s, s]) ** 2
        return float(np.mean(peak / (m * np.sum(np.abs(self.templates) ** 2, axis=1))))

    def run(
        self,
        ps_w: float,
        n0_w_per_hz: float,
        n_symbols: int,
        seed: int,
        bursts: channel.WBurstModel | None = None,
    ) -> rxdsp.BerResult:
        """Symbol and bit error rates of n_symbols random symbols.

        Chunk c of ENGINE_BATCH symbols draws its symbols and noise from child
        c of SeedSequence(seed); burst arrivals over the whole run come from
        one more child, after the chunks'.
        """
        p = self.p
        amp = math.sqrt(ps_w)  # the rms of the signal: templates are unit-power
        noise = channel.NoiseModel(n0_w_per_hz)
        n_chunks = -(-n_symbols // ENGINE_BATCH)
        streams = np.random.SeedSequence(seed).spawn(n_chunks + 1)
        hit = np.empty(0, dtype=np.int64)
        if bursts is not None and bursts.amplitude_scale > 0:
            span_s = n_symbols * p.samples_per_symbol / p.fs_hz
            arrivals = bursts.arrival_times(0.0, span_s, np.random.default_rng(streams[-1]))
            hit = self._burst_symbols(bursts, arrivals, n_symbols)
        complex_noise = np.iscomplexobj(self.templates)
        if complex_noise:
            table = amp * self.template_bins
            sigma = math.sqrt(noise.variance(p.fs_hz) / 2.0)
        sent = np.empty(n_symbols, dtype=np.int64)
        detected = np.empty(n_symbols, dtype=np.int64)
        for c in range(n_chunks):
            start = c * ENGINE_BATCH
            nb = min(ENGINE_BATCH, n_symbols - start)
            rng = np.random.default_rng(streams[c])
            tx = rng.integers(0, p.n_bins, size=nb)
            if complex_noise:
                z = rng.standard_normal((nb, 2 * p.n_bins)).view(np.complex128)
                stats = self._color(z, sigma)
                stats += table[tx]
            else:
                y = noise.add(amp * self.templates[tx], p.fs_hz, rng)
                stats = rxdsp.dechirp_bins(y - y.mean(axis=1, keepdims=True), p)
            ks = hit[(hit >= start) & (hit < start + nb)]
            if len(ks):
                stats[ks - start] += self._burst_bins(bursts, arrivals, amp, ks)
            sent[start : start + nb] = tx
            detected[start : start + nb] = np.argmax(np.abs(stats), axis=1)
        return rxdsp.score(sent, detected, p.sf)


def _engine_params(cfg: ExperimentConfig, fosc_hz: float | None = None) -> chirp.ChirpParams:
    """Simulation-rate params: fs = fosc = 8*bw keeps the FFTs small and legal."""
    fosc = fosc_hz if fosc_hz is not None else cfg.fosc_hz
    return chirp.derive_params(cfg.sf, fosc, fs_hz=fosc)


@dataclass
class SweepRow:
    """One Monte-Carlo point of a BER sweep.

    `snr_db` and `theory_pb` use `rxdsp.PAPER_DETECTION_FRACTION` (0.712, the
    square-chirp capture) for every template; the engine's own capture is not
    used.  For the complex template, which captures ~0.994, they understate
    the SNR: in the one-anchor calibrated sweep at 13.5 cm, `theory_pb` reads
    0.132 beside a Monte-Carlo BER of 0.041 at 24 dBm EIRP, and 0.064 beside
    0.014 at 25 dBm.
    """

    axis: str
    axis_value: float
    pr_dbm: float
    ps_w: float
    snr_db: float
    n_symbols: int
    ser: float
    ber: float
    wilson95: float
    theory_pb: float
    interference_es: float
    runtime_s: float


def run_ber_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Monte-Carlo BER across the configured sweep axis, one seeded row per point."""
    cfg.validate()
    table = channel.IncidentPowerTable.default()
    burst_model = cfg.burst_model()
    bursts = burst_model if cfg.bursts_enabled else None
    point = SWEEP_AXES[cfg.sweep_axis]
    rows = []
    engines: dict[float, BerEngine] = {}
    for idx, value in enumerate(cfg.sweep_values):
        fosc, pr = point(cfg, table, value)
        if fosc not in engines:
            engines[fosc] = BerEngine(_engine_params(cfg, fosc), cfg.template)
        eng = engines[fosc]
        p = eng.p
        ps_w = channel.dbm_to_w(pr + cfg.composite_gain_db)
        snr = rxdsp.effective_snr(ps_w, p.bw_hz, cfg.n0_w_per_hz)
        t0 = time.perf_counter()
        res = eng.run(ps_w, cfg.n0_w_per_hz, cfg.n_symbols, cfg.base_seed + idx, bursts)
        rows.append(
            SweepRow(
                axis=cfg.sweep_axis,
                axis_value=value,
                pr_dbm=pr,
                ps_w=ps_w,
                snr_db=10.0 * math.log10(snr) if snr > 0 else -math.inf,
                n_symbols=res.n_symbols,
                ser=res.ser,
                ber=res.ber,
                wilson95=res.wilson_95_halfwidth,
                theory_pb=rxdsp.ber_theory(snr, cfg.sf),
                interference_es=channel.interference_symbol_error_rate(p.ds_s, burst_model),
                runtime_s=time.perf_counter() - t0,
            )
        )
    return rows


@dataclass
class ChargeRow:
    pr_dbm: float
    variant: str
    capacitance_f: float
    target_v: float
    time_s: float  # math.inf means the target is unreachable


def charge_models(cfg: ExperimentConfig) -> tuple[powersim.HarvesterModel, powersim.LeakageCurve]:
    if cfg.charge_variant == "active":
        return (
            powersim.HarvesterModel.default_active().with_scale(cfg.efficiency_scale),
            powersim.LeakageCurve.default_with_startup(),
        )
    return (
        powersim.HarvesterModel.default_passive().with_scale(cfg.efficiency_scale),
        powersim.LeakageCurve.constant(powersim.P_SLEEP_W, "passive_sleep"),
    )


def run_charge_sweep(cfg: ExperimentConfig) -> list[ChargeRow]:
    """Charge time to target voltage at the incident power of each sweep point.

    Sweep values are read along the configured axis as in run_ber_sweep, so
    EIRP and depth points go through the measured table.  The bandwidth axis
    leaves the incident power fixed and is rejected.
    """
    cfg.validate()
    if cfg.sweep_axis == "bandwidth_hz":
        raise ConfigurationError(
            "sweep_axis='bandwidth_hz' leaves the incident power unchanged, "
            "so it cannot drive a charge sweep"
        )
    table = channel.IncidentPowerTable.default()
    point = SWEEP_AXES[cfg.sweep_axis]
    harvester, leakage = charge_models(cfg)
    rows = []
    for value in cfg.sweep_values:
        _, pr = point(cfg, table, value)
        c = powersim.Capacitor(cfg.capacitance_f)
        t = powersim.time_to_voltage(c, cfg.target_v, pr, harvester, leakage, cfg.dt_s)
        rows.append(ChargeRow(pr, cfg.charge_variant, cfg.capacitance_f, cfg.target_v, t))
    return rows


def fit_passive_efficiency_scale() -> float:
    """One-point calibration of the passive harvester efficiency scale.

    Bisects the multiplicative scale so the sim charges the passive storage
    cap to V_MIN at PASSIVE_ANCHOR_PR_DBM in exactly PASSIVE_ANCHOR_TIME_S.
    """
    base = powersim.HarvesterModel.default_passive()
    leak = powersim.LeakageCurve.constant(powersim.P_SLEEP_W, "passive_sleep")

    def t_of(scale: float) -> float:
        c = powersim.Capacitor(powersim.DEFAULT_PASSIVE_CAP_F)
        h = base.with_scale(scale)
        return powersim.time_to_voltage(
            c, powersim.V_MIN, PASSIVE_ANCHOR_PR_DBM, h, leak, PASSIVE_ANCHOR_DT_S
        )

    lo, hi = 0.01, 1.0
    if not (t_of(hi) <= PASSIVE_ANCHOR_TIME_S <= t_of(lo)):
        raise CalibrationError(
            f"anchor ({PASSIVE_ANCHOR_PR_DBM} dBm -> {PASSIVE_ANCHOR_TIME_S} s) "
            f"unreachable with scale in [{lo}, {hi}]"
        )
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if t_of(mid) > PASSIVE_ANCHOR_TIME_S:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class TheoryRow:
    fosc_hz: float
    bw_hz: float
    ds_s: float
    rd_bps: float
    snr_db: float
    pb: float
    interference_es: float


TABLE_CLOCKS_HZ = (32768.0, 1e6, 2e6, 4e6)


def run_theory_report(cfg: ExperimentConfig) -> list[TheoryRow]:
    """Closed-form timing, rate, SNR, BER and burst-hit rate per oscillator clock."""
    cfg.validate()
    table = channel.IncidentPowerTable.default()
    pr = table.incident_power_dbm(cfg.eirp_dbm, cfg.depth_cm)
    ps_w = channel.dbm_to_w(pr + cfg.composite_gain_db)
    burst_model = cfg.burst_model()
    rows = []
    for fosc in TABLE_CLOCKS_HZ:
        p = chirp.derive_params(cfg.sf, fosc)
        snr = rxdsp.effective_snr(ps_w, p.bw_hz, cfg.n0_w_per_hz)
        rows.append(
            TheoryRow(
                fosc_hz=fosc,
                bw_hz=p.bw_hz,
                ds_s=p.ds_s,
                rd_bps=p.rd_bps,
                snr_db=10.0 * math.log10(snr) if snr > 0 else -math.inf,
                pb=rxdsp.ber_theory(snr, cfg.sf),
                interference_es=channel.interference_symbol_error_rate(p.ds_s, burst_model),
            )
        )
    return rows


@dataclass
class CalibrationResult:
    composite_gain_db: float
    anchor_pr_dbm: float
    anchor_ber: float
    achieved_ber: float
    n_symbols: int


def calibrate_composite_gain(cfg: ExperimentConfig) -> CalibrationResult:
    """Fit the one free link-budget gain so MC BER matches the anchor point.

    Bisection on the composite gain over CALIBRATION_BRACKET_DB; BER is
    monotone decreasing in gain.  Stops when the achieved BER sits inside the
    anchor's Wilson band or the bracket closes below 0.02 dB.
    """
    cfg.validate()
    if not 1e-4 < cfg.anchor_ber < 0.4:
        raise CalibrationError(
            f"anchor BER {cfg.anchor_ber} outside the calibratable range (1e-4, 0.4)"
        )
    pr = channel.IncidentPowerTable.default().incident_power_dbm(cfg.anchor_eirp_dbm, cfg.depth_cm)
    eng = BerEngine(_engine_params(cfg), cfg.template)
    n = cfg.n_symbols_calibration
    lo_db, hi_db = CALIBRATION_BRACKET_DB

    def ber_at(gain_db: float, seed_salt: int) -> float:
        ps = channel.dbm_to_w(pr + gain_db)
        return eng.run(ps, cfg.n0_w_per_hz, n, cfg.base_seed + 7000 + seed_salt).ber

    if ber_at(lo_db, 0) < cfg.anchor_ber or ber_at(hi_db, 1) > cfg.anchor_ber:
        raise CalibrationError(
            f"anchor BER {cfg.anchor_ber} not bracketed by gains [{lo_db}, {hi_db}] dB "
            f"(pr={pr} dBm, n0={cfg.n0_w_per_hz})"
        )
    achieved = math.nan
    it = 0
    while hi_db - lo_db > 0.02:
        it += 1
        mid = 0.5 * (lo_db + hi_db)
        achieved = ber_at(mid, 1 + it)
        k = round(achieved * n * cfg.sf)
        w_lo, w_hi = rxdsp.wilson_interval(k, n * cfg.sf)
        if w_lo <= cfg.anchor_ber <= w_hi:
            return CalibrationResult(mid, pr, cfg.anchor_ber, achieved, n)
        if achieved > cfg.anchor_ber:
            lo_db = mid
        else:
            hi_db = mid
    gain = 0.5 * (lo_db + hi_db)
    return CalibrationResult(gain, pr, cfg.anchor_ber, achieved, n)

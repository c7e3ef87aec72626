"""Experiment harness: configs, Monte-Carlo BER sweeps, charge sweeps, calibration."""

from __future__ import annotations

import contextlib
import itertools
import math
import queue
import threading
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
# size is part of the seeded stream.
ENGINE_BATCH = 4096

# Bytes of one row block of standard normals in BerEngine.run: a chunk is
# drawn and decided in blocks of this size, into one reused buffer (two for
# the complex template, which draws ahead), which bound its memory.
# Sequential draws from one generator give the stream of one draw, so the
# block size changes no draw; BLAS may round the colouring of a real
# template's block of a few rows differently in the last bit.
ENGINE_BLOCK_BYTES = 1 << 20

# Composite-gain bracket (dB) that calibrate_composite_gain falls back to
# when the bracket around its closed-form start does not hold the anchor.
CALIBRATION_BRACKET_DB = (-40.0, 120.0)
# Half-width (dB) of the first bracket, centred on the gain at which the
# closed form rxdsp.ber_theory meets the anchor BER.
CALIBRATION_START_HALF_DB = 3.0

# Measured passive cold start fitted by fit_passive_efficiency_scale: the
# 22 uF storage cap reaches V_MIN in 0.9 s at -2.3 dBm incident power.
PASSIVE_ANCHOR_PR_DBM = -2.3
PASSIVE_ANCHOR_TIME_S = 0.9
PASSIVE_ANCHOR_DT_S = 5e-4


@dataclass(frozen=True)
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
    sweep_values: tuple[float, ...] = (22.1, 23.0, 24.0, 25.0)
    n_symbols: int = 20000
    base_seed: int = 1234
    bursts_enabled: bool = False
    # charge-sweep knobs
    charge_variant: str = "passive"  # passive | active
    capacitance_f: float = powersim.DEFAULT_PASSIVE_CAP_F
    efficiency_scale: float = 1.0
    # calibration knobs
    anchor_eirp_dbm: float = 22.1
    anchor_ber: float = 0.162
    n_symbols_calibration: int = 30000

    def __post_init__(self) -> None:
        """Raise one ConfigurationError naming every problem with this config.

        The config is frozen, so one that exists is valid; change it with
        dataclasses.replace, which checks the copy.  The chirp, capacitor and
        charge-model settings are checked by building the objects that own
        those checks, the (EIRP, depth) points of the base and of the
        calibration anchor by looking them up in the measured incident-power
        table, and every sweep point as the sweeps resolve it: the chirp params
        of its clock and its power in watts.  The noise variance n0*fs/2 must be
        finite at the base clock and at every sweep point's.  sweep_values is
        kept as a tuple.
        """
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(v):
                problems.append(f"{f.name}={v!r} is not finite")
            elif f.type == "tuple[float, ...]" and not all(math.isfinite(x) for x in v):
                problems.append(f"{f.name}={v!r} holds a non-finite value")
        table = channel.IncidentPowerTable.default()

        def check(build, key=""):
            """build(), or None with its problem noted under key unless already named."""
            try:
                return build()
            except ConfigurationError as exc:
                if str(exc) not in problems:
                    problems.append(f"{key}: {exc}" if key else str(exc))

        # sample rate -> the points simulated at it, for the noise variance check
        clocks: dict[float, list[str]] = {}
        base = check(lambda: _engine_params(self))
        if base:
            clocks[base.fs_hz] = [f"fosc_hz={self.fosc_hz}"]
        check(lambda: powersim.Capacitor(self.capacitance_f), f"capacitance_f={self.capacitance_f}")
        check(lambda: table.incident_power_dbm(self.eirp_dbm, self.depth_cm))
        check(lambda: table.incident_power_dbm(self.anchor_eirp_dbm, self.depth_cm))
        point = SWEEP_AXES.get(self.sweep_axis)
        for v in self.sweep_values if point else ():
            resolved = check(lambda: point(self, table, v))
            if resolved:
                key = f"{self.sweep_axis}={v}"
                params = check(lambda: _engine_params(self, resolved[0]), key)
                if params:
                    clocks.setdefault(params.fs_hz, []).append(key)
                try:
                    channel.dbm_to_w(resolved[1] + self.composite_gain_db)
                except ConfigurationError as exc:
                    problems.append(f"{key}: {exc} with composite_gain_db={self.composite_gain_db}")
        check(lambda: charge_models(self), f"efficiency_scale={self.efficiency_scale}")
        if self.n0_w_per_hz <= 0:
            problems.append(f"n0_w_per_hz={self.n0_w_per_hz} must be positive")
        elif math.isfinite(self.n0_w_per_hz):
            noise = channel.NoiseModel(self.n0_w_per_hz)
            for fs, keys in clocks.items():
                if not math.isfinite(noise.variance(fs)):
                    problems.append(
                        f"n0_w_per_hz={self.n0_w_per_hz} gives a non-finite noise variance "
                        f"at fs={fs:g} Hz ({', '.join(keys)})"
                    )
        if self.template not in TEMPLATE_KINDS:
            problems.append(f"template={self.template!r} not one of {TEMPLATE_KINDS}")
        if self.sweep_axis not in SWEEP_AXES:
            problems.append(f"sweep_axis={self.sweep_axis!r} not one of {tuple(SWEEP_AXES)}")
        if not self.sweep_values:
            problems.append("sweep_values is empty")
        if self.n_symbols < 1:
            problems.append(f"n_symbols={self.n_symbols} must be >= 1")
        if self.n_symbols_calibration < 1:
            problems.append(f"n_symbols_calibration={self.n_symbols_calibration} must be >= 1")
        if self.base_seed < 0:
            problems.append(f"base_seed={self.base_seed} must be >= 0")
        if self.charge_variant not in ("passive", "active"):
            problems.append(f"charge_variant={self.charge_variant!r} not passive/active")
        if not 1e-4 < self.anchor_ber < 0.4:
            problems.append(
                f"anchor_ber={self.anchor_ber} outside the calibratable range (1e-4, 0.4)"
            )
        if problems:
            raise ConfigurationError("invalid config: " + "; ".join(dict.fromkeys(problems)))


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
    if type_name == "tuple[float, ...]":
        return tuple(finite_float(v) for v in raw.split(",") if v.strip())
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
    set_on = {}  # key -> the line that set it
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
        if key in set_on:
            problems.append(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
            continue
        set_on[key] = lineno
        try:
            kwargs[key] = _coerce(raw, types[key])
        except (ValueError, ConfigurationError) as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigurationError("config parse failed: " + "; ".join(problems))
    return ExperimentConfig(**kwargs)


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
    the dechirped, mean-removed bursts.  The noise of every template is drawn
    straight in the 2^sf bins with its exact covariance: complex noise through
    a rank-1 correction, real noise through a 2^(sf+1)-square factor of its
    stacked (Re, Im) covariance, built on first use.
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
            tpl = chirp._symbol_envelopes(p, quantized=kind == "square-quantized")
        # in place: the same arithmetic as tpl - mean, abs(tpl) ** 2 and tpl / rms
        tpl -= tpl.mean(axis=1, keepdims=True)
        power = np.abs(tpl)
        power *= power
        tpl /= np.sqrt(power.mean(axis=1, keepdims=True))
        self.templates = tpl

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
        # einsum's own loop, not a BLAS zgemv: a threaded BLAS call leaves its
        # worker spinning on the core that draws the next block (see run)
        z -= np.einsum("ij,j->i", z, g * u_hat.conj())[:, None] * u_hat
        return z

    @cached_property
    def _real_noise_factor(self) -> np.ndarray:
        """L^T = L, the symmetric bin-noise factor of unit-variance real white noise.

        The bins y = D P x of real white x have covariance C = E[y y^H] =
        2M I - u u^H / M, as for complex noise, and pseudo-covariance
        Q = E[y y^T] = D D^T - u u^T / M, where u = D 1 and
        (D D^T)[k, l] = G[k+l] + 2 G[k+l-n] + G[k+l-2n] (indices mod M, G the
        M-point FFT of the squared conjugate chirp).  With (Re, Im) interleaved
        the stacked covariance K holds Re(C + Q)/2, Re(C - Q)/2, Im(C + Q)/2
        and -Im(C - Q)/2.  K is singular (rank 234 of 256 at sf 7), so L
        comes from eigh, not Cholesky: L = V sqrt(w) V^T, the unique symmetric
        PSD root, with L L^T = K.  V alone is not unique where eigenvalues
        repeat, and LAPACK picks that basis differently with the number of
        BLAS threads; the root does not depend on it.  Eigenvalues within
        rounding of 0 count as 0, so the rounding noise of their eigenvectors
        does not reach L either.
        """
        p = self.p
        m, n = p.samples_per_symbol, p.n_bins
        u = rxdsp.dechirp_bins(np.ones(m), p)
        g = np.fft.fft(rxdsp._downchirp_conj(p.sf, m) ** 2)
        kl = np.add.outer(np.arange(n), np.arange(n))
        q = g[kl % m] + 2.0 * g[(kl - n) % m] + g[(kl - 2 * n) % m] - np.outer(u, u) / m
        c = 2.0 * m * np.eye(n) - np.outer(u, u.conj()) / m
        k = np.empty((2 * n, 2 * n))
        k[0::2, 0::2] = 0.5 * (c + q).real  # E[Re y Re y^T]
        k[1::2, 1::2] = 0.5 * (c - q).real  # E[Im y Im y^T]
        k[1::2, 0::2] = 0.5 * (c + q).imag  # E[Im y Re y^T]
        k[0::2, 1::2] = -0.5 * (c - q).imag  # E[Re y Im y^T]
        w, v = np.linalg.eigh(k)
        tol = len(w) * np.finfo(float).eps * w[-1]
        return (v * np.sqrt(np.where(w > tol, w, 0.0))) @ v.T

    def _bin_noise(self, z: np.ndarray, var: float) -> np.ndarray:
        """Decision-bin noise, one row per row of the (nb, 2n) standard normals z
        (overwritten), of mean-removed white time noise with per-sample power var."""
        if np.iscomplexobj(self.templates):
            return self._color(z.view(np.complex128), math.sqrt(var / 2.0))
        z *= math.sqrt(var)
        return (z @ self._real_noise_factor).view(np.complex128)

    def detection_fraction(self) -> float:
        """Mean dechirp-bin power capture of the scaled templates."""
        m = self.p.samples_per_symbol
        s = np.arange(self.p.n_bins)
        peak = np.abs(self.template_bins[s, s]) ** 2
        return float(np.mean(peak / (m * np.sum(np.abs(self.templates) ** 2, axis=1))))

    def _noise_blocks(self, streams, sent: np.ndarray, buffers: list[np.ndarray]):
        """Draw a run's symbols into sent and yield (b0, b1, z) per row block.

        Chunk c of ENGINE_BATCH symbols draws its symbols from streams[c],
        then the standard normals of each block of as many rows as a buffer
        holds; z holds those of symbols [b0, b1).  The blocks take the
        buffers in turn, so the caller must be done with a block before it
        asks for the one that reuses its buffer.
        """
        block = len(buffers[0])
        cycle = itertools.cycle(buffers)
        for c, stream in enumerate(streams):
            start = c * ENGINE_BATCH
            stop = min(start + ENGINE_BATCH, len(sent))
            rng = np.random.default_rng(stream)
            sent[start:stop] = rng.integers(0, self.p.n_bins, size=stop - start)
            for b0 in range(start, stop, block):
                b1 = min(b0 + block, stop)
                z = next(cycle)[: b1 - b0]
                rng.standard_normal(out=z)
                yield b0, b1, z

    def run(
        self,
        ps_w: float,
        n0_w_per_hz: float,
        n_symbols: int,
        seed: int,
        bursts: bool = False,
    ) -> rxdsp.BerResult:
        """Symbol and bit error rates of n_symbols random symbols, with the
        channel.WBurstModel interference on top of the noise when bursts is set.

        Chunk c of ENGINE_BATCH symbols draws its symbols, then its noise,
        from child c of SeedSequence(seed); burst arrivals over the whole run
        come from one more child, after the chunks'.  The noise is drawn and
        decided in row blocks of at most ENGINE_BLOCK_BYTES.  The complex
        template draws each block on a worker thread while this one decides
        the block before (_drawn_ahead): the draw is most of its time, and
        its colouring calls no BLAS.  A real template's colouring is a
        matrix product that BLAS already spreads over the cores, so it draws
        inline.  Either way the draws are the same.
        """
        p = self.p
        amp = math.sqrt(ps_w)  # the rms of the signal: templates are unit-power
        n_chunks = -(-n_symbols // ENGINE_BATCH)
        streams = np.random.SeedSequence(seed).spawn(n_chunks + 1)
        arrivals = np.empty(0)
        if bursts:
            span_s = n_symbols * p.samples_per_symbol / p.fs_hz
            arrivals = channel.WBurstModel.arrival_times(span_s, np.random.default_rng(streams[-1]))
        table = amp * self.template_bins
        var = channel.NoiseModel(n0_w_per_hz).variance(p.fs_hz)
        sent = np.empty(n_symbols, dtype=np.int64)
        detected = np.empty(n_symbols, dtype=np.int64)
        # a buffer of one row block (2n float64 normals a row), two when a
        # worker draws ahead.  They are made here: what a worker thread
        # allocates comes from a malloc arena of its own (~2 MB more peak RSS).
        ahead = np.iscomplexobj(self.templates)
        block = min(max(1, ENGINE_BLOCK_BYTES // (16 * p.n_bins)), n_symbols)
        buffers = [np.empty((block, 2 * p.n_bins)) for _ in range(1 + ahead)]
        blocks = self._noise_blocks(streams[:n_chunks], sent, buffers)
        if ahead:
            blocks = _drawn_ahead(blocks)
        with contextlib.closing(blocks):  # stops the worker even when a block raises
            for b0, b1, z in blocks:
                stats = self._bin_noise(z, var)
                stats += table[sent[b0:b1]]
                if arrivals.size:
                    ks, rows = channel._burst_rows(arrivals, p.samples_per_symbol, p.fs_hz, amp, b0, b1)
                    stats[ks - b0] += rxdsp.dechirp_bins(rows - rows.mean(axis=1, keepdims=True), p)
                detected[b0:b1] = np.argmax(np.abs(stats), axis=1)
        return rxdsp.score(sent, detected, p.sf)


def _drawn_ahead(items):
    """Yield the items of the iterator items, each made on a worker thread
    while the caller works on the one before.

    The worker is asked for item i + 1 only when the caller asks for item i,
    so the caller is done with item i - 1 before item i + 1 is made.  The
    worker runs only next(items), which must print nothing and call no
    public entry point: perfbench's tracer keeps one span stack for all
    threads.  An exception there is raised here; closing this generator
    stops the worker and joins it.

    The caller waits for an item in 0.1 ms slices, not in one sleep.  On a
    2-vCPU VM, a caller that slept through about half of each block ran the
    code after the run 40-60% slower for tens of ms (perfbench's set-up
    right after an mc_bursts pass); waking every 0.1 ms kept it at speed.
    """
    asks, ready = queue.SimpleQueue(), queue.SimpleQueue()

    def work():
        while asks.get():
            try:
                ready.put((next(items, None), None))
            except BaseException as exc:  # raised again by the caller, below
                ready.put((None, exc))

    worker = threading.Thread(target=work, name="rfsn-draw-ahead", daemon=True)
    worker.start()
    try:
        asks.put(True)
        while True:
            try:
                item, exc = ready.get(timeout=1e-4)
            except queue.Empty:
                continue
            if exc is not None:
                raise exc
            if item is None:
                return
            asks.put(True)
            yield item
    finally:
        asks.put(False)
        worker.join()


def _engine_params(cfg: ExperimentConfig, fosc_hz: float | None = None) -> chirp.ChirpParams:
    """Simulation-rate params: fs = fosc = 8*bw keeps the FFTs small and legal."""
    fosc = fosc_hz if fosc_hz is not None else cfg.fosc_hz
    return chirp.derive_params(cfg.sf, fosc, fs_hz=fosc)


@dataclass
class SweepRow:
    """One Monte-Carlo point of a BER sweep.

    `snr_db` and `theory_pb` use the engine's own dechirp capture
    (`BerEngine.detection_fraction`), so each template is judged at the SNR
    its decision bin sees.
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
    table = channel.IncidentPowerTable.default()
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
        snr = rxdsp.effective_snr(ps_w, p.bw_hz, cfg.n0_w_per_hz, eng.detection_fraction())
        t0 = time.perf_counter()
        res = eng.run(ps_w, cfg.n0_w_per_hz, cfg.n_symbols, cfg.base_seed + idx, cfg.bursts_enabled)
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
                interference_es=channel.interference_symbol_error_rate(p.ds_s),
                runtime_s=time.perf_counter() - t0,
            )
        )
    return rows


@dataclass
class ChargeRow:
    axis: str
    axis_value: float
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
        powersim.LeakageCurve.constant(powersim.P_SLEEP_W),
    )


def run_charge_sweep(cfg: ExperimentConfig) -> list[ChargeRow]:
    """Charge time to V_MIN at the incident power of each sweep point.

    Sweep values are read along the configured axis as in run_ber_sweep, so
    EIRP and depth points go through the measured table.  The bandwidth axis
    leaves the incident power fixed and is rejected.
    """
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
        t = powersim.time_to_voltage(c, pr, harvester, leakage)
        rows.append(
            ChargeRow(
                cfg.sweep_axis, value, pr, cfg.charge_variant, cfg.capacitance_f, powersim.V_MIN, t
            )
        )
    return rows


def fit_passive_efficiency_scale() -> float:
    """One-point calibration of the passive harvester efficiency scale.

    Bisects the multiplicative scale so the sim charges the passive storage
    cap to V_MIN at PASSIVE_ANCHOR_PR_DBM in exactly PASSIVE_ANCHOR_TIME_S.
    """
    base = powersim.HarvesterModel.default_passive()
    leak = powersim.LeakageCurve.constant(powersim.P_SLEEP_W)

    def t_of(scale: float) -> float:
        c = powersim.Capacitor(powersim.DEFAULT_PASSIVE_CAP_F)
        h = base.with_scale(scale)
        return powersim.time_to_voltage(c, PASSIVE_ANCHOR_PR_DBM, h, leak, PASSIVE_ANCHOR_DT_S)

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
    table = channel.IncidentPowerTable.default()
    pr = table.incident_power_dbm(cfg.eirp_dbm, cfg.depth_cm)
    ps_w = channel.dbm_to_w(pr + cfg.composite_gain_db)
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
                interference_es=channel.interference_symbol_error_rate(p.ds_s),
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

    Bisection on the composite gain; BER is monotone decreasing in gain.  The
    search starts CALIBRATION_START_HALF_DB either side of the gain at which
    the closed form meets the anchor BER at the engine's own capture, and falls
    back to CALIBRATION_BRACKET_DB when the MC BER at those ends does not
    straddle the anchor.  Stops when the achieved BER sits inside the anchor's
    Wilson band or the bracket closes below 0.02 dB.
    """
    pr = channel.IncidentPowerTable.default().incident_power_dbm(cfg.anchor_eirp_dbm, cfg.depth_cm)
    eng = BerEngine(_engine_params(cfg), cfg.template)
    n = cfg.n_symbols_calibration
    # rxdsp.effective_snr inverted for the anchor's power, in dBm.  n0 gets its
    # own log10, so no n0 the config allows underflows the product to 0, and
    # the start is clamped into the fallback bracket.
    snr = rxdsp.snr_for_ber(cfg.anchor_ber, cfg.sf)
    start_dbm = 30.0 + 10.0 * (
        math.log10(snr * eng.p.bw_hz / eng.detection_fraction()) + math.log10(cfg.n0_w_per_hz)
    )
    start_db = min(max(start_dbm - pr, CALIBRATION_BRACKET_DB[0]), CALIBRATION_BRACKET_DB[1])

    def run_at(gain_db: float, seed_salt: int) -> rxdsp.BerResult:
        ps = channel.dbm_to_w(pr + gain_db)
        return eng.run(ps, cfg.n0_w_per_hz, n, cfg.base_seed + 7000 + seed_salt)

    half = CALIBRATION_START_HALF_DB
    for lo_db, hi_db in ((start_db - half, start_db + half), CALIBRATION_BRACKET_DB):
        if run_at(lo_db, 0).ber >= cfg.anchor_ber and run_at(hi_db, 1).ber <= cfg.anchor_ber:
            break
    else:
        raise CalibrationError(
            f"anchor BER {cfg.anchor_ber} not bracketed by gains [{lo_db}, {hi_db}] dB "
            f"(pr={pr} dBm, n0={cfg.n0_w_per_hz})"
        )
    achieved = math.nan
    it = 0
    while hi_db - lo_db > 0.02:
        it += 1
        mid = 0.5 * (lo_db + hi_db)
        res = run_at(mid, 1 + it)
        achieved = res.ber
        w_lo, w_hi = rxdsp.wilson_interval(res.n_bit_errors, res.n_bits)
        if w_lo <= cfg.anchor_ber <= w_hi:
            return CalibrationResult(mid, pr, cfg.anchor_ber, achieved, n)
        if achieved > cfg.anchor_ber:
            lo_db = mid
        else:
            hi_db = mid
    gain = 0.5 * (lo_db + hi_db)
    return CalibrationResult(gain, pr, cfg.anchor_ber, achieved, n)

"""The four benchmark workloads: set-up, one timed pass, and output checks.

Each workload builds its inputs from the seed in ``setup``; ``run_pass``
repeats the same job on them and returns ``(outputs, work)``; ``check``
compares the outputs with ``reference.json`` (values taken from this
simulator with ``make_reference.py``) and returns one ``(label, ok, detail)``
per check.  Deterministic outputs must match exactly; Monte-Carlo outputs
must fall inside bands built from the seed-to-seed spread, never pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Run sizes: a pass takes ~3 s on one core, so a run holds several passes.
AWGN_N_SYMBOLS = 1000  # per EIRP sweep row
AWGN_N_CALIBRATION = 2000  # per calibration bisection step
CRITERION_FOSC_HZ = 32768.0  # the clock (and sample rate) of criteria 4 and 5
LADDER_PB = (0.15, 0.07, 0.02, 6e-3, 1.5e-3)
LADDER_N_SYMBOLS = 2000
LADDER_N0 = 1e-3
# Criterion 5's square-template band (BER within x3 of the closed form) holds
# for square-quantized only down to Pb = 0.02; below it the quantized template
# sits x2..x5 above the closed form, so those points use the seed band alone.
LADDER_CLOSED_FORM_MIN_PB = 0.02
LADDER_CLOSED_FORM_FACTOR = 3.0
BURSTS_N_SYMBOLS = 7000  # per bandwidth row
FSM_POWERS_DBM = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)
FSM_PICKS = 2
FSM_DURATION_S = 60.0
LEDGER_REL_TOL = 1e-6
SYNTH_SFS = range(5, 11)
SYNTH_CHUNK = 32  # symbols per waveform
# The CSV writer formats ~2 us per sample in Python; CSV round trips of sf 8-10
# (>8M samples per pass) would take ~20 s and drown every other layer.
SYNTH_CSV_MAX_SF = 7
SYNTH_ENGINE_SF = 9


def _check(label: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return label, bool(ok), detail


def _in_band(label: str, x: float, band) -> tuple[str, bool, str]:
    lo, hi = band
    return _check(label, lo <= x <= hi, f"{x!r} in [{lo:.6g}, {hi:.6g}]")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def events_digest(events) -> str:
    return hashlib.sha256(repr(events).encode()).hexdigest()


class McAwgn:
    """Calibration + EIRP sweep of eirp_ber_sweep.cfg, then a square-quantized Pb ladder."""

    name = "mc_awgn"
    metered = True  # work is counted as MC symbols inside BerEngine.run

    def setup(self, seed: int) -> None:
        from rfsn import chirp, harness, rxdsp

        self.harness = harness
        base = harness.load_config(ROOT / "configs" / "eirp_ber_sweep.cfg")
        # Calibration keeps the config's own seed: its bisection takes 11-15
        # steps depending on the draw, which would move wall_s by ~12% from
        # one benchmark seed to the next.  The sweep and the ladder use --seed.
        self.cal_cfg = dataclasses.replace(base, n_symbols_calibration=AWGN_N_CALIBRATION)
        self.cfg = dataclasses.replace(base, n_symbols=AWGN_N_SYMBOLS, base_seed=seed)
        p = chirp.derive_params(7, CRITERION_FOSC_HZ, fs_hz=CRITERION_FOSC_HZ)
        self.ladder_engine = harness.BerEngine(p, "square-quantized")
        frac = self.ladder_engine.detection_fraction()
        self.ladder = [
            (pb, rxdsp.snr_for_ber(pb, p.sf) * p.bw_hz * LADDER_N0 / frac, seed * 16 + i)
            for i, pb in enumerate(LADDER_PB)
        ]

    def run_pass(self):
        cal = self.harness.calibrate_composite_gain(self.cal_cfg)
        rows = self.harness.run_ber_sweep(self.cfg)
        ladder = [
            self.ladder_engine.run(ps, LADDER_N0, LADDER_N_SYMBOLS, seed).ber / pb
            for pb, ps, seed in self.ladder
        ]
        return {"gain_db": cal.composite_gain_db, "rows": rows, "ladder_ratio": ladder}, None

    def check(self, out: dict, ref: dict) -> list:
        bands = ref["bands"]["mc_awgn"]
        rows = out["rows"]
        checks = [
            _in_band("calibrated gain (dB)", out["gain_db"], bands["gain_db"]),
            _in_band("BER at the 22.1 dBm anchor", rows[0].ber, bands["anchor_ber"]),
            _check(
                "EIRP sweep monotone within Wilson",
                all(b.ber < a.ber + a.wilson95 + b.wilson95 for a, b in zip(rows, rows[1:])),
                ", ".join(f"{r.axis_value:g}: {r.ber:.4f}" for r in rows),
            ),
        ]
        for pb, ratio, band in zip(LADDER_PB, out["ladder_ratio"], bands["ladder_ratio"], strict=True):
            checks.append(_in_band(f"ladder BER/Pb at Pb={pb:g}", ratio, band))
            if pb >= LADDER_CLOSED_FORM_MIN_PB:
                f = LADDER_CLOSED_FORM_FACTOR
                checks.append(_in_band(f"ladder within x{f:g} of closed form at Pb={pb:g}", ratio, (1 / f, f)))
        return checks


class McBursts:
    """Bandwidth sweep of bandwidth_bursts.cfg: 3 clocks, bursts on, thermally clean."""

    name = "mc_bursts"
    metered = True

    def setup(self, seed: int) -> None:
        from rfsn import harness

        self.harness = harness
        base = harness.load_config(ROOT / "configs" / "bandwidth_bursts.cfg")
        self.cfg = dataclasses.replace(base, n_symbols=BURSTS_N_SYMBOLS, base_seed=seed)

    def run_pass(self):
        return {"rows": self.harness.run_ber_sweep(self.cfg)}, None

    def check(self, out: dict, ref: dict) -> list:
        checks = []
        # The BER band is the seed-to-seed spread measured with this workload,
        # not a Wilson interval: one burst corrupts ~7 consecutive symbols, so
        # errors arrive in clusters and Wilson under-covers by ~6x.
        for r, band, es in zip(out["rows"], ref["bands"]["mc_bursts"]["ber"], ref["interference_es"], strict=True):
            checks.append(_in_band(f"BER at bw={r.axis_value:g} Hz", r.ber, band))
            checks.append(_check(f"closed-form burst rate at bw={r.axis_value:g} Hz", r.interference_es == es, repr(r.interference_es)))
        return checks


class Energy:
    """Charge sweeps, efficiency fit, startup threshold and 60 s active-node FSM runs."""

    name = "energy"
    metered = False

    def setup(self, seed: int) -> None:
        from rfsn import harness, powersim

        self.harness, self.powersim = harness, powersim
        rng = np.random.default_rng(seed)
        base = harness.load_config(ROOT / "configs" / "charge_sweep.cfg")
        order = rng.permutation(len(base.sweep_values))
        passive = dataclasses.replace(base, sweep_values=[base.sweep_values[i] for i in order])
        self.sweeps = [passive, dataclasses.replace(passive, charge_variant="active")]
        picks = rng.choice(len(FSM_POWERS_DBM), size=FSM_PICKS, replace=False)
        self.fsm_runs = [(FSM_POWERS_DBM[i], hv) for i in sorted(picks) for hv in (True, False)]
        self.fsm = powersim.ActiveNodeFSM()
        self.harvester = powersim.HarvesterModel.default_active()
        self.leak = powersim.LeakageCurve.default_with_startup()
        self.bare_leak = powersim.LeakageCurve.default_without_startup()

    def run_pass(self):
        charge = [self.harness.run_charge_sweep(cfg) for cfg in self.sweeps]
        scale = self.harness.fit_passive_efficiency_scale()
        p_min = self.powersim.min_startup_incident_power(self.bare_leak, self.harvester)
        fsm = [(pr, hv, self.run_fsm(pr, hv)) for pr, hv in self.fsm_runs]
        sim_s = sum(r.time_s for rows in charge for r in rows if math.isfinite(r.time_s))
        sim_s += FSM_DURATION_S * len(fsm)
        return {"charge": charge, "scale": scale, "p_min": p_min, "fsm": fsm}, sim_s

    def run_fsm(self, pr_dbm: float, harvest_tx: bool):
        """One active-node FSM run of FSM_DURATION_S on a fresh capacitor."""
        ps = self.powersim
        return ps.run_active_fsm(
            self.fsm, ps.Capacitor(ps.DEFAULT_ACTIVE_CAP_F), pr_dbm, self.harvester, self.leak,
            FSM_DURATION_S, harvest_while_transmitting=harvest_tx,
        )

    def check(self, out: dict, ref: dict) -> list:
        checks = []
        for rows in out["charge"]:
            want = ref["charge_s"][rows[0].variant]
            for r in rows:
                checks.append(_check(f"{r.variant} charge time at {r.pr_dbm:g} dBm", r.time_s == want[repr(r.pr_dbm)], repr(r.time_s)))
        checks.append(_check("fitted passive efficiency scale", out["scale"] == ref["efficiency_scale"], repr(out["scale"])))
        checks.append(_check("minimum startup incident power", out["p_min"] == ref["min_startup_dbm"], repr(out["p_min"])))
        for pr, hv, tr in out["fsm"]:
            want = ref["fsm"][fsm_key(pr, hv)]
            got = {"packets": tr.packets_sent, "bytes": tr.bytes_sent, "events": len(tr.events), "events_sha256": events_digest(tr.events)}
            checks.append(_check(f"FSM at {pr:g} dBm, harvest_tx={hv}", got == want, repr(got)))
            rel = abs(tr.energy_residual_j()) / max(tr.harvested_j, 1e-12)
            checks.append(_check(f"FSM ledger residual at {pr:g} dBm, harvest_tx={hv}", rel <= LEDGER_REL_TOL, f"{rel:.2e}"))
        return checks


def fsm_key(pr: float, harvest_tx: bool) -> str:
    return f"{pr!r}/{int(harvest_tx)}"


class SynthDemod:
    """Exhaustive quantized synthesis at sf 5-10 through binary/CSV codecs and the demodulator."""

    name = "synth_demod"
    metered = False

    def setup(self, seed: int) -> None:
        from rfsn import chirp, harness, rxdsp
        from rfsn.waveform import Waveform

        self.chirp, self.harness, self.rxdsp, self.Waveform = chirp, harness, rxdsp, Waveform
        # Symbols run in ascending order within each waveform, as in criterion 4:
        # modulate_quantized rejects some transitions into symbol 0 (e.g. sf 6:
        # 50 -> 0), so a shuffled order would fail on about one seed in ten.
        # The seed shuffles the waveforms of each sf; the sfs stay in order so
        # that peak memory does not depend on the seed.
        rng = np.random.default_rng(seed)
        self.jobs = []
        for sf in SYNTH_SFS:
            p = chirp.derive_params(sf, CRITERION_FOSC_HZ, fs_hz=CRITERION_FOSC_HZ)
            starts = rng.permutation(np.arange(0, p.n_bins, SYNTH_CHUNK))
            self.jobs += [(p, np.arange(i, min(i + SYNTH_CHUNK, p.n_bins))) for i in starts]
        self.n_symbols = sum(len(s) for _, s in self.jobs)
        self.engine_params = chirp.derive_params(SYNTH_ENGINE_SF, CRITERION_FOSC_HZ, fs_hz=CRITERION_FOSC_HZ)

    def run_pass(self):
        bad_symbols = bad_bytes = bad_csv = 0
        for p, symbols in self.jobs:
            w = self.chirp.modulate_quantized(symbols, p)
            back = self.Waveform.from_bytes(w.to_bytes())
            bad_bytes += not back == w
            if p.sf <= SYNTH_CSV_MAX_SF:
                buf = io.StringIO()
                w.to_csv(buf)
                buf.seek(0)
                bad_csv += not self.Waveform.from_csv(buf, w.fs_hz, w.kind) == w
            bad_symbols += int(np.count_nonzero(self.rxdsp.demodulate_stream(back, p) != symbols))
        engines = [self.harness.BerEngine(self.engine_params, kind) for kind in self.harness.TEMPLATE_KINDS]
        out = {"bad_symbols": bad_symbols, "bad_bytes": bad_bytes, "bad_csv": bad_csv, "engines": engines}
        return out, float(self.n_symbols)

    def check(self, out: dict, ref: dict) -> list:
        m = self.engine_params.samples_per_symbol
        checks = [
            _check("demodulated symbols equal the sent ones", out["bad_symbols"] == 0, f"{out['bad_symbols']} of {self.n_symbols} wrong"),
            _check("binary round trip is exact", out["bad_bytes"] == 0, f"{out['bad_bytes']} waveforms differ"),
            _check("CSV round trip is exact", out["bad_csv"] == 0, f"{out['bad_csv']} waveforms differ"),
        ]
        for e in out["engines"]:
            shape = e.templates.shape
            err = float(np.max(np.abs(np.mean(np.abs(e.templates) ** 2, axis=1) - 1.0)))
            checks.append(_check(f"{e.kind} templates: shape and unit power", shape == (self.engine_params.n_bins, m) and err < 1e-9, f"{shape}, {err:.1e}"))
        return checks


WORKLOADS = {w.name: w for w in (McAwgn, McBursts, Energy, SynthDemod)}

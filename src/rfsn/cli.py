"""Command-line front end for the simulator.

Exit codes: 0 success, 2 configuration problem, 3 runtime/calibration failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import chirp, harness, rxdsp
from .errors import ConfigurationError, RfsnError
from .waveform import Waveform


def _write_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    """CSV with \\n line endings; floats are written as their repr."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def rows_text(rows, fmt: str) -> str:
    """Dataclass rows as CSV or JSON text.

    A non-finite float, such as the charge time of an unreachable target, is
    written as ``never`` in CSV and ``null`` in JSON.
    """
    dicts = [dataclasses.asdict(r) for r in rows]

    def cell(v, missing):
        return missing if isinstance(v, float) and not math.isfinite(v) else v

    if fmt == "json":
        return json.dumps([{k: cell(v, None) for k, v in d.items()} for d in dicts], indent=2) + "\n"
    return _csv_text(dicts[0], ([cell(v, "never") for v in d.values()] for d in dicts))


def _emit_dict(d: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        _write_text(json.dumps(d, indent=2) + "\n", out_path)
    else:
        _write_text(_csv_text(["key", "value"], d.items()), out_path)


def _load_cfg(args, **flags) -> harness.ExperimentConfig:
    """The --config file (or the defaults) with every given flag applied in
    one dataclasses.replace, which validates the result."""
    cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    flags["base_seed"] = args.seed
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _parse_symbols(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad symbol list {text!r}: {exc}") from exc


def _load_waveform(path: str, fs_hz: float | None) -> Waveform:
    """The waveform stored at path, which must hold finite samples only."""
    if path.endswith(".csv"):
        if fs_hz is None:
            raise ConfigurationError(f"{path}: a .csv waveform carries no sample rate; give --fs")
        w = Waveform.from_csv(path, fs_hz=fs_hz, kind="analog")
    else:
        w = Waveform.load(path)
    bad = np.flatnonzero(~np.isfinite(w.samples))
    if len(bad):
        raise ConfigurationError(f"{path}: sample {bad[0]} is {float(w.samples[bad[0]])}, not finite")
    return w


def cmd_params(args) -> None:
    p = chirp.derive_params(args.sf, args.fosc, args.fs)
    _emit_dict(
        {
            "sf": p.sf,
            "bw_hz": p.bw_hz,
            "fosc_hz": p.fosc_hz,
            "fs_hz": p.fs_hz,
            "ds_s": p.ds_s,
            "rd_bps": p.rd_bps,
            "n_bins": p.n_bins,
            "samples_per_symbol": p.samples_per_symbol,
            "toggle_grid_s": p.toggle_grid_s,
        },
        args.format,
        args.out,
    )


def cmd_modulate(args) -> None:
    p = chirp.derive_params(args.sf, args.fosc, args.fs)
    symbols = _parse_symbols(args.symbols)
    w = (chirp.modulate_quantized if args.quantize else chirp.modulate_ideal)(symbols, p)
    if args.out.endswith(".csv"):
        w.to_csv(args.out)
    else:
        w.save(args.out)


def cmd_demodulate(args) -> None:
    p = chirp.derive_params(args.sf, args.fosc, args.fs)
    w = _load_waveform(args.infile, args.fs)
    detected = rxdsp.demodulate_stream(w, p)
    if args.format == "json":
        _write_text(json.dumps([int(s) for s in detected]) + "\n", args.out)
    else:
        _write_text(
            _csv_text(["symbol_index", "detected"], enumerate(int(s) for s in detected)),
            args.out,
        )


def cmd_spectrum(args) -> None:
    w = _load_waveform(args.infile, args.fs)
    ps = chirp.spectrum(w)
    order = np.argsort(ps.freqs_hz)
    _write_text(
        _csv_text(["freq_hz", "psd"], zip(ps.freqs_hz[order].tolist(), ps.psd[order].tolist())),
        args.out,
    )


def cmd_rows(args) -> None:
    """Rows of the harness entry point the subcommand selected as args.run."""
    _write_text(rows_text(args.run(_load_cfg(args)), args.format), args.out)


def cmd_calibrate(args) -> None:
    cfg = _load_cfg(args, anchor_eirp_dbm=args.anchor_eirp, anchor_ber=args.anchor_ber)
    res = harness.calibrate_composite_gain(cfg)
    _emit_dict(dataclasses.asdict(res), args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rfsn", description="Backscatter chirp link and energy-budget simulator"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_chirp_args(sp):
        sp.add_argument("--sf", type=int, default=7)
        sp.add_argument("--fosc", type=harness.finite_float, default=32768.0)
        sp.add_argument("--fs", type=harness.finite_float, default=None)

    def add_cfg_args(sp):
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("params", help="derived chirp timing and rate parameters")
    add_chirp_args(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("modulate", help="synthesize a square-chirp waveform")
    add_chirp_args(sp)
    sp.add_argument("--symbols", required=True, help="comma-separated symbol values")
    sp.add_argument("--quantize", action="store_true", help="snap toggles to the clock grid")
    sp.add_argument("--out", required=True, help="waveform file, .csv or .bin")
    sp.set_defaults(func=cmd_modulate, format="csv")

    sp = sub.add_parser("demodulate", help="dechirp a waveform back to symbols")
    add_chirp_args(sp)
    sp.add_argument("--in", dest="infile", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_demodulate)

    sp = sub.add_parser("spectrum", help="power spectrum of a stored waveform")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument(
        "--fs", type=harness.finite_float, default=None, help="sample rate for CSV waveforms"
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_spectrum, format="csv")

    sp = sub.add_parser("ber-sweep", help="Monte-Carlo BER sweep")
    add_cfg_args(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_rows, run=harness.run_ber_sweep)

    sp = sub.add_parser("charge-sweep", help="capacitor charge times vs incident power")
    add_cfg_args(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_rows, run=harness.run_charge_sweep)

    sp = sub.add_parser("theory", help="closed-form per-bandwidth report")
    add_cfg_args(sp)
    add_common(sp)
    sp.set_defaults(func=cmd_rows, run=harness.run_theory_report)

    sp = sub.add_parser("calibrate", help="fit composite link gain to an anchor BER")
    add_cfg_args(sp)
    sp.add_argument("--anchor-eirp", type=harness.finite_float, default=None)
    sp.add_argument("--anchor-ber", type=harness.finite_float, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_calibrate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RfsnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

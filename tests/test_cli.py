"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rfsn import chirp, harness
from rfsn.cli import main
from rfsn.waveform import Waveform

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_params_reports_derived_quantities(capsys):
    code, out = run_cli(capsys, "params", "--sf", "7", "--fosc", "32768")
    assert code == 0
    d = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert float(d["bw_hz"]) == 4096.0
    assert float(d["ds_s"]) == 0.03125
    assert float(d["rd_bps"]) == 224.0


# `rfsn params --sf 7 --fosc F`, with fs_hz and samples_per_symbol filled in:
# 2*F and 2048 by default, F and 1024 with `--fs F`
PARAMS_CSV = """key,value
sf,7
bw_hz,{bw}
fosc_hz,{fosc}
fs_hz,{fs}
ds_s,{ds}
rd_bps,{rd}
n_bins,128
samples_per_symbol,{m}
toggle_grid_s,{grid}
"""
PARAMS = {  # clock -> (bw, fosc, 2*fosc, ds, rd, grid) as printed
    32768.0: ("4096.0", "32768.0", "65536.0", "0.03125", "224.0", "0.0001220703125"),
    1e6: ("125000.0", "1000000.0", "2000000.0", "0.001024", "6835.9375", "4e-06"),
    2e6: ("250000.0", "2000000.0", "4000000.0", "0.000512", "13671.875", "2e-06"),
    4e6: ("500000.0", "4000000.0", "8000000.0", "0.000256", "27343.75", "1e-06"),
}


@pytest.mark.parametrize("with_fs", [False, True])
@pytest.mark.parametrize("fosc", harness.TABLE_CLOCKS_HZ)
def test_params_text_is_pinned(fosc, with_fs, capsys):
    bw, fosc_out, fs2, ds, rd, grid = PARAMS[fosc]
    fs, m = (fosc_out, 1024) if with_fs else (fs2, 2048)
    flags = ("--fosc", repr(fosc), *(("--fs", repr(fosc)) if with_fs else ()))
    code, out = run_cli(capsys, "params", "--sf", "7", *flags)
    want = PARAMS_CSV.format(bw=bw, fosc=fosc_out, fs=fs, ds=ds, rd=rd, m=m, grid=grid)
    assert (code, out) == (0, want)


def test_modulate_demodulate_roundtrip(tmp_path, capsys):
    wav = tmp_path / "w.bin"
    code, _ = run_cli(
        capsys,
        "modulate",
        "--sf", "7", "--fosc", "32768",
        "--symbols", "3,17,90",
        "--out", str(wav),
    )
    assert code == 0
    w = Waveform.load(str(wav))
    assert set(np.unique(w.samples)) <= {0.0, 1.0}
    code, out = run_cli(
        capsys, "demodulate", "--sf", "7", "--fosc", "32768", "--in", str(wav)
    )
    assert code == 0
    detected = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert detected == [3, 17, 90]


def test_modulate_without_out_exits_2_before_synthesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("modulate synthesized a waveform it cannot write")

    monkeypatch.setattr(chirp, "modulate_ideal", refuse)
    with pytest.raises(SystemExit) as exited:
        main(["modulate", "--symbols", "1"])
    assert exited.value.code == 2


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
@pytest.mark.parametrize("sf, fosc", [(5, 32768.0), (7, 1e6), (9, 4e6)])
def test_modulate_quantize_writes_the_bytes_of_modulate_quantized(sf, fosc, suffix, tmp_path, capsys):
    symbols = [0, 3, (1 << sf) - 1, 17]
    got, want = tmp_path / f"got{suffix}", tmp_path / f"want{suffix}"
    code, _ = run_cli(capsys, "modulate", "--sf", str(sf), "--fosc", str(fosc), "--quantize",
                      "--symbols", ",".join(map(str, symbols)), "--out", str(got))
    assert code == 0
    w = chirp.modulate_quantized(symbols, chirp.derive_params(sf, fosc))
    if suffix == ".csv":
        w.to_csv(str(want))
    else:
        w.save(str(want))
    assert got.read_bytes() == want.read_bytes()


def test_spectrum_csv(tmp_path, capsys):
    wav = tmp_path / "w.bin"
    run_cli(capsys, "modulate", "--sf", "7", "--fosc", "32768",
            "--symbols", "8", "--out", str(wav))
    code, out = run_cli(capsys, "spectrum", "--in", str(wav))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "freq_hz,psd"
    freqs = [float(l.split(",")[0]) for l in lines[1:]]
    assert freqs == sorted(freqs)


def test_theory_json_format(capsys):
    code, out = run_cli(capsys, "theory", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["fosc_hz"] for r in rows] == [32768.0, 1e6, 2e6, 4e6]


def test_ber_sweep_from_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "sweep_axis = pr_dbm\n"
        "sweep_values = -95\n"
        "n_symbols = 200\n"
        "composite_gain_db = 0\n"
        "template = complex\n"
    )
    code, out = run_cli(capsys, "ber-sweep", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0].startswith("axis,")
    assert len(out.splitlines()) == 2


def test_charge_sweep_reports_never(tmp_path, capsys):
    cfg = tmp_path / "charge.cfg"
    cfg.write_text(
        "sweep_axis = pr_dbm\n"
        "charge_variant = passive\n"
        "sweep_values = -2.3, -20\n"
    )
    code, out = run_cli(capsys, "charge-sweep", "--config", str(cfg))
    assert code == 0
    assert "never" in out


def test_spectrum_of_a_csv_waveform_without_fs_exits_2_naming_the_flag(tmp_path, capsys):
    wav = tmp_path / "w.csv"
    run_cli(capsys, "modulate", "--sf", "5", "--fosc", "32768", "--symbols", "8", "--out", str(wav))
    code = main(["spectrum", "--in", str(wav)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and "--fs" in err
    assert "Traceback" not in err


def test_demodulate_of_a_csv_waveform_without_fs_exits_2_naming_the_flag(tmp_path, capsys):
    # a CSV carries no sample rate, so --fs is not guessed from the clock
    wav = tmp_path / "w.csv"
    run_cli(capsys, "modulate", "--sf", "7", "--fosc", "32768", "--fs", "32768",
            "--symbols", "3,77,127", "--out", str(wav))
    code = main(["demodulate", "--sf", "7", "--fosc", "32768", "--in", str(wav)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and "--fs" in captured.err
    assert "Traceback" not in captured.err
    code, out = run_cli(capsys, "demodulate", "--sf", "7", "--fosc", "32768", "--fs", "32768",
                        "--in", str(wav))
    assert (code, out) == (0, "symbol_index,detected\n0,3\n1,77\n2,127\n")


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sf = 99\n")
    code, _ = run_cli(capsys, "ber-sweep", "--config", str(cfg))
    assert code == 2


def test_demodulate_at_another_rate_than_the_waveform_exits_2(tmp_path, capsys):
    wav = tmp_path / "w.bin"
    run_cli(capsys, "modulate", "--sf", "7", "--fosc", "32768", "--fs", "32768",
            "--symbols", "3,77,127", "--out", str(wav))
    code = main(["demodulate", "--sf", "7", "--fosc", "32768", "--in", str(wav)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1


def test_missing_input_file_exits_3(capsys):
    code, _ = run_cli(capsys, "demodulate", "--sf", "7", "--fosc", "32768",
                      "--in", "/nonexistent/w.bin")
    assert code == 3


def test_truncated_waveform_exits_2(tmp_path, capsys):
    wav = tmp_path / "w.sqch"
    run_cli(capsys, "modulate", "--sf", "7", "--fosc", "32768",
            "--symbols", "3,17", "--out", str(wav))
    wav.write_bytes(wav.read_bytes()[:-1])
    code = main(["demodulate", "--sf", "7", "--fosc", "32768", "--in", str(wav)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row",
    [b"1,abc", b"0,1.0,2", b"x,1.0", b"1", b"1,\xff\xfe"],
    ids=["value", "three-fields", "index", "one-field", "not-utf8"],
)
def test_csv_waveform_with_a_bad_row_exits_2(row, tmp_path, capsys):
    wav = tmp_path / "bad.csv"
    wav.write_bytes(b"sample_index,value\n0,1.0\n" + row + b"\n")
    code = main(["demodulate", "--sf", "5", "--fosc", "32768", "--fs", "32768", "--in", str(wav)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["demodulate", "spectrum"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("suffix", [".csv", ".sqch"])
def test_waveform_with_a_non_finite_sample_exits_2_naming_it(command, value, suffix, tmp_path, capsys):
    wav = tmp_path / f"w{suffix}"
    run_cli(capsys, "modulate", "--sf", "7", "--fosc", "32768", "--fs", "32768",
            "--symbols", "3,77", "--out", str(wav))
    if suffix == ".csv":
        lines = wav.read_text().splitlines(keepends=True)
        lines[6] = f"5,{value}\n"  # after the header, row 5
        wav.write_text("".join(lines))
    else:
        samples = Waveform.load(str(wav)).samples
        samples[5] = float(value)
        Waveform(samples, 32768.0, "analog").save(str(wav))
    argv = {"demodulate": ["demodulate", "--sf", "7", "--fosc", "32768"], "spectrum": ["spectrum"]}
    code = main(argv[command] + ["--fs", "32768", "--in", str(wav)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {wav}: sample 5 is {value}, not finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--fosc", "nan"],
        ["params", "--fs", "inf"],
        ["spectrum", "--in", "w.bin", "--fs=-inf"],
        ["calibrate", "--anchor-eirp", "nan"],
        ["calibrate", "--anchor-ber", "inf"],
    ],
)
def test_non_finite_float_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid finite_float value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["params", "--sf", "7", "--fosc", "1e308"], None),  # fs = 16*bw overflows to inf
        (["ber-sweep", "--seed", "-1"], None),
        (["ber-sweep"], "base_seed = -2\n"),
        (["calibrate"], "n_symbols_calibration = -5\n"),
        (["theory"], "depth_cm = 0\n"),
        (["calibrate", "--anchor-ber", "0.45"], None),
        (["ber-sweep"], "sweep_axis = bandwidth_hz\nsweep_values = 4096, -4096\n"),
        (["ber-sweep"], "sweep_axis = pr_dbm\nsweep_values = -95, 1e300\n"),
        # samples per symbol beyond int64, never a count that could be allocated
        (["params", "--fs", "1e300"], None),
        (["params", "--fosc", "1", "--fs", "1e308"], None),  # the count overflows to inf
        (["modulate", "--symbols", "1", "--fs", "1e300", "--out", "w.bin"], None),
        (["demodulate", "--fs", "1e300", "--in", "w.csv"], None),
    ],
    ids=[
        "overflowed-rate",
        "negative-seed-flag",
        "negative-seed-key",
        "negative-calibration-size",
        "depth-off-the-measured-grid",
        "anchor-ber-outside-the-calibratable-range",
        "bandwidth-point-with-a-negative-clock",
        "pr-point-whose-power-overflows",
        "params-samples-per-symbol-beyond-int64",
        "params-samples-per-symbol-overflowing-to-inf",
        "modulate-samples-per-symbol-beyond-int64",
        "demodulate-samples-per-symbol-beyond-int64",
    ],
)
def test_out_of_range_inputs_exit_2(argv, cfg_text, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran on an invalid config")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.csv").write_text("sample_index,value\n0,0.0\n")
    # every bad value is refused when the config is built, before any work
    monkeypatch.setattr(harness.BerEngine, "run", refuse)
    if cfg_text is not None:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(cfg_text)
        argv = argv + ["--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "cfg_text, point",
    [
        ("n0_w_per_hz = 1e308\n", "eirp_dbm=22.1"),  # n0*fs/2 overflows at the base clock
        # only the 1e10 Hz point's clock (8*bw) overflows n0*fs/2
        ("n0_w_per_hz = 1e300\nsweep_axis = bandwidth_hz\nsweep_values = 4096, 1e10\n",
         "bandwidth_hz=10000000000.0"),
    ],
    ids=["at-every-clock", "at-one-sweep-clock"],
)
def test_noise_whose_variance_overflows_exits_2(cfg_text, point, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran on an invalid config")

    monkeypatch.setattr(harness.BerEngine, "run", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    code = main(["ber-sweep", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "n0_w_per_hz=" in err and "non-finite noise variance" in err and point in err
    assert "bandwidth_hz=4096.0" not in err


def _reject_constant(name):
    raise ValueError(f"JSON holds the non-standard constant {name}")


@pytest.mark.parametrize(
    "command, config",
    [("ber-sweep", None), ("theory", "theory_report.cfg"), ("charge-sweep", "charge_sweep.cfg")],
)
def test_sweep_output_is_strict_json_and_plain_csv(command, config, tmp_path, capsys):
    if config is None:
        path = tmp_path / "tiny.cfg"
        path.write_text(
            "sweep_axis = pr_dbm\nsweep_values = -95, -60\nn_symbols = 20\ntemplate = complex\n"
        )
    else:
        path = CONFIGS / config
    texts = {}
    for fmt in ("csv", "json"):
        code, texts[fmt] = run_cli(capsys, command, "--config", str(path), "--format", fmt)
        assert code == 0
    rows = json.loads(texts["json"], parse_constant=_reject_constant)
    assert "\r" not in texts["csv"]
    lines = texts["csv"].splitlines()
    assert lines[0].split(",") == list(rows[0])
    assert len(lines) == len(rows) + 1


# `rfsn charge-sweep --config configs/charge_sweep.cfg` output: the sweep point
# (`axis`, `axis_value`) leads each row, as in `ber-sweep`; the other columns are
# unchanged since before the sweep commands shared one row emitter
CHARGE_SWEEP_CSV = """axis,axis_value,pr_dbm,variant,capacitance_f,target_v,time_s
pr_dbm,-10.0,-10.0,passive,2.2e-05,1.8,never
pr_dbm,-8.1,-8.1,passive,2.2e-05,1.8,15.358999999996927
pr_dbm,-6.0,-6.0,passive,2.2e-05,1.8,5.043000000000019
pr_dbm,-4.0,-4.0,passive,2.2e-05,1.8,1.8659999999999053
pr_dbm,-2.3,-2.3,passive,2.2e-05,1.8,0.9010000000000007
pr_dbm,0.0,0.0,passive,2.2e-05,1.8,0.3940000000000003
pr_dbm,5.0,5.0,passive,2.2e-05,1.8,0.08900000000000007
"""
CHARGE_SWEEP_JSON = "[\n" + ",\n".join(
    "  {\n"
    '    "axis": "pr_dbm",\n'
    f'    "axis_value": {pr},\n'
    f'    "pr_dbm": {pr},\n'
    '    "variant": "passive",\n'
    '    "capacitance_f": 2.2e-05,\n'
    '    "target_v": 1.8,\n'
    f'    "time_s": {t}\n'
    "  }"
    for pr, t in [
        ("-10.0", "null"),
        ("-8.1", "15.358999999996927"),
        ("-6.0", "5.043000000000019"),
        ("-4.0", "1.8659999999999053"),
        ("-2.3", "0.9010000000000007"),
        ("0.0", "0.3940000000000003"),
        ("5.0", "0.08900000000000007"),
    ]
) + "\n]\n"


def test_charge_sweep_text_is_pinned(capsys):
    for fmt, want in (("csv", CHARGE_SWEEP_CSV), ("json", CHARGE_SWEEP_JSON)):
        code, out = run_cli(
            capsys, "charge-sweep", "--config", str(CONFIGS / "charge_sweep.cfg"), "--format", fmt
        )
        assert (code, out) == (0, want)


def test_charge_sweep_names_the_eirp_of_each_row(capsys):
    code, out = run_cli(capsys, "charge-sweep", "--config", str(CONFIGS / "eirp_ber_sweep.cfg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("axis,axis_value,pr_dbm,")
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["eirp_dbm", v] for v in ("22.1", "23.0", "24.0", "25.0")
    ]


# `snr_db` and `pb` use rxdsp.PAPER_DETECTION_FRACTION (0.712) for every clock.
THEORY_CSV = """fosc_hz,bw_hz,ds_s,rd_bps,snr_db,pb,interference_es
32768.0,4096.0,0.03125,224.0,-76.68328230192986,0.49975174816773477,0.0625
1000000.0,125000.0,0.001024,6835.9375,-91.52878295233268,0.4997534375969617,0.006144
2000000.0,250000.0,0.000512,13671.875,-94.53908290897249,0.4997535465998456,0.006144
4000000.0,500000.0,0.000256,27343.75,-97.5493828656123,0.49975362364959214,0.006144
"""


def test_theory_text_is_pinned(capsys):
    code, out = run_cli(capsys, "theory", "--config", str(CONFIGS / "theory_report.cfg"))
    assert (code, out) == (0, THEORY_CSV)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
@pytest.mark.parametrize("command", ["theory", "charge-sweep"])
def test_shipped_configs_keep_the_exit_contract(command, config, capsys):
    code = main([command, "--config", str(CONFIGS / config)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("configuration error:") and err.count("\n") == 1


# Runs main under a 1 GiB address-space limit set in the child itself, so a
# run that tries to hold the whole Monte-Carlo size fails there, not on the host.
_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from rfsn.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "command, cfg_text",
    [
        ("ber-sweep", "n_symbols = 1000000000000\n"),
        ("ber-sweep", "n_symbols = 1000000000000\nbursts_enabled = true\n"),
        ("calibrate", "n_symbols_calibration = 1000000000000\n"),
    ],
    ids=["ber-sweep", "ber-sweep-bursts", "calibrate"],
)
def test_a_monte_carlo_size_too_large_for_memory_exits_3(command, cfg_text, tmp_path):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(cfg_text)
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, command, "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: out of memory:") and proc.stderr.count("\n") == 1

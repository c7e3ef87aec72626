"""Command-line interface: subcommands, formats, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

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


# `rfsn charge-sweep --config configs/charge_sweep.cfg` output, unchanged since
# before the sweep commands shared one row emitter
CHARGE_SWEEP_CSV = """pr_dbm,variant,capacitance_f,target_v,time_s
-10.0,passive,2.2e-05,1.8,never
-8.1,passive,2.2e-05,1.8,15.358999999996927
-6.0,passive,2.2e-05,1.8,5.043000000000019
-4.0,passive,2.2e-05,1.8,1.8659999999999053
-2.3,passive,2.2e-05,1.8,0.9010000000000007
0.0,passive,2.2e-05,1.8,0.3940000000000003
5.0,passive,2.2e-05,1.8,0.08900000000000007
"""
CHARGE_SWEEP_JSON = "[\n" + ",\n".join(
    "  {\n"
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

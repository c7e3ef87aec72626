"""Property-based invariants across the library."""

import contextlib
import dataclasses
import io
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burst_oracle import add_w_bursts
from csv_oracle import from_csv as from_csv_oracle
from rfsn import channel, chirp, cli, harness, powersim, rxdsp
from rfsn.errors import ConfigurationError, RfsnError
from rfsn.waveform import KIND_ANALOG, KIND_BINARY, Waveform


@given(
    sf=st.integers(5, 7),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_modulate_demodulate_roundtrip(sf, data):
    p = chirp.derive_params(sf, 2**sf * 8 * 4, fs_hz=None)
    syms = data.draw(
        st.lists(st.integers(0, p.n_bins - 1), min_size=1, max_size=4)
    )
    w = chirp.modulate_ideal(syms, p)
    assert list(rxdsp.demodulate_stream(w, p)) == syms


@given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_waveform_bytes_roundtrip(values):
    x = np.array(values, dtype=np.float32).astype(np.float64)
    w = Waveform(x, 123.5, KIND_ANALOG)
    back = Waveform.from_bytes(w.to_bytes())
    assert np.array_equal(back.samples, x)
    assert back.fs_hz == 123.5


# A waveform file with fuzzed header fields and f32 body, so every check is reached.
_waveform_files = st.builds(
    lambda version, kind, fs, body, tail: (
        struct.pack("<4sHBxd", b"SQCH", version, kind, fs) + np.array(body, "<f4").tobytes() + tail
    ),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 0, 255]),
    st.one_of(st.sampled_from([math.nan, math.inf, 0.0]), st.floats()),
    st.lists(st.floats(width=32, allow_nan=True, allow_infinity=True), max_size=8),
    st.sampled_from([b"", b"\x00"]),
)


@given(st.one_of(st.binary(max_size=64), _waveform_files))
@example(struct.pack("<4sHBxd", b"SQCH", 1, 1, math.nan))
@example(struct.pack("<4sHBxd", b"SQCH", 1, 1, math.inf))
@example(struct.pack("<4sHBxd", b"SQCH", 1, 0, 8.0) + b"\x00\x00\xc0\x7f")
@settings(max_examples=300, deadline=None)
def test_fuzz_waveform_from_bytes_returns_a_waveform_or_raises_rfsn_error(blob):
    try:
        w = Waveform.from_bytes(blob)
    except RfsnError:
        return
    assert 0 < w.fs_hz < math.inf
    assert len(w) == (len(blob) - 16) // 4


# CSV text made of plausible and broken cells, so rows reach the row parser.
_csv_cells = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "1.0", "nan", "1e999", "x", "abc", "", " "]),
    st.text(max_size=4),
)
_csv_texts = st.one_of(
    st.text(max_size=60),
    st.builds(
        lambda rows: "sample_index,value\n" + "\n".join(",".join(r) for r in rows),
        st.lists(st.lists(_csv_cells, min_size=1, max_size=3), max_size=4),
    ),
)


@given(_csv_texts, st.sampled_from([KIND_ANALOG, KIND_BINARY]))
@example("sample_index,value\n0,1.0\n1,abc\n", KIND_ANALOG)
@example("sample_index,value\n0,1.0,2\n", KIND_ANALOG)
@example("sample_index,value\nx,1.0\n", KIND_ANALOG)
@settings(max_examples=300, deadline=None)
def test_fuzz_waveform_from_csv_returns_a_waveform_or_raises_rfsn_error(text, kind):
    try:
        w = Waveform.from_csv(io.StringIO(text), 1000.0, kind)
    except RfsnError:
        return
    assert isinstance(w, Waveform) and w.kind == kind


def _csv_outcome(read, text):
    """The sample bits read from text, or the ConfigurationError text."""
    try:
        return read(io.StringIO(text), 1000.0).samples.view(np.int64).tolist()
    except ConfigurationError as exc:
        return str(exc)


_H = "sample_index,value\n"


@given(_csv_texts)
@example(_H + "0,0.5\n1.0,2\n")  # index cells numpy and int() might read differently
@example(_H + "0,0.5\n+1,2\n")
@example(_H + "0,0.5\n 1,2\n")
@example(_H + "".join(f"{i},0\n" for i in range(10)) + "1_0,2\n")
@example(_H + "0,1_0.5\n")  # value cells
@example(_H + "0,-nan\n1,nan\n")
@example(_H + "0,Infinity\n1,-inf\n")
@example(_H + "0,1\n#1,2\n")
@example(_H + "0\t,\t1.5\n\t1,2\t\n")
@example(_H + "0\t\x1c,1\n")  # numpy strips \x1c-\x1f from a cell, int() does not
@example(_H + "\U0007f6fa,0\n")  # numpy reads some non-ASCII index cells as integers
@example(_H + "0,1\r1,2\n")  # a lone \r mid-line
@example(_H + "0,1\r\n1,2\r\n")
@example(_H + "0,1\n1,2\n\n \n\n")
@example(_H + "0,1\n\n1,2\n")
@example(_H + "0,1\n1,2")
@example(_H)
@example("sample_index,value")
@settings(max_examples=300, deadline=None)
def test_from_csv_equals_the_row_scan_oracle(text):
    assert _csv_outcome(Waveform.from_csv, text) == _csv_outcome(from_csv_oracle, text)


@given(st.integers(0, 1000), st.integers(1, 1000))
@example(k=0, n=125)
@example(k=10, n=10)
def test_wilson_interval_bounds(k, n):
    k = min(k, n)
    lo, hi = rxdsp.wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi + 1e-12 and hi <= 1.0
    assert k > 0 or lo == 0.0
    assert k < n or hi == 1.0


@given(st.floats(1e-6, 10.0), st.integers(5, 12))
def test_ber_theory_range(snr, sf):
    pb = rxdsp.ber_theory(snr, sf)
    assert 0.0 <= pb <= 0.5


@given(st.floats(1e-5, 100.0))
def test_interference_rate_bounded(ds):
    r = channel.interference_symbol_error_rate(ds)
    assert 0.0 <= r <= 1.0


@given(
    st.floats(0, 1e-3),
    st.floats(0, 1e-3),
    st.floats(1e-4, 1.0),
)
def test_capacitor_step_energy_accounting(p_in, p_out, dt):
    e0 = 1e-6
    e, _, _ = powersim.euler_step(e0, p_in, p_out, dt)
    assert e >= 0.0
    assert e <= e0 + p_in * dt + 1e-15
    # more input power never yields less energy
    richer, _, _ = powersim.euler_step(e0, p_in * 2 + 1e-9, p_out, dt)
    assert richer >= e


@given(st.floats(-60.0, 40.0))
def test_harvester_efficiency_bounded(pr_dbm):
    h = powersim.HarvesterModel.default_passive()
    assert 0.0 <= h.efficiency(pr_dbm) <= 1.0


@given(st.floats(0.0, 5.0))
def test_leakage_positive_everywhere(v):
    leak = powersim.LeakageCurve.default_without_startup()
    assert leak.power_w(v) > 0.0


@given(st.integers(2, 500))
def test_burst_template_bounded_and_w_shaped(n):
    tpl = channel.burst_template(n)
    assert len(tpl) == n
    assert np.abs(tpl).max() <= 1.0 + 1e-12
    assert tpl[0] == 1.0 and tpl[-1] == 1.0


@given(
    m=st.integers(8, 256),
    n=st.integers(1, 30),
    rms=st.floats(0.01, 10.0),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_burst_rows_split_anywhere_equal_one_call_and_the_stream(m, n, rms, data):
    # dense arrivals (up to ~1 per 12 samples, a burst lasts 98), so bursts
    # overlap, span several symbols and cross every kind of range edge
    fs = 32768.0
    arrivals = np.sort(
        data.draw(st.lists(st.floats(0.0, n * m / fs), max_size=max(1, n * m // 12)), "arrivals")
    )
    cuts = data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set()), "cuts")
    edges = [0, *sorted(cuts), n]
    ks, rows = channel._burst_rows(arrivals, m, fs, rms, 0, n)
    parts = [channel._burst_rows(arrivals, m, fs, rms, a, b) for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate([k for k, _ in parts]), ks)
    assert np.array_equal(np.concatenate([r for _, r in parts]), rows)
    stream = np.zeros(n * m)
    add_w_bursts(stream, arrivals, 0.0, fs, rms)
    want = np.zeros((n, m))
    want[ks] = rows
    assert np.array_equal(want, stream.reshape(n, m))
    n_burst = round(channel.WBurstModel.DURATION_S * fs)
    touched = {j // m for t in arrivals for j in range(round(t * fs), round(t * fs) + n_burst)}
    assert list(ks) == sorted(k for k in touched if k < n)


# Config and flag values: numbers in and out of range, non-finite and
# overflowing spellings, booleans, lists and junk.
_values = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "-2", "-5", "7", "12", "99", "1e308", "1e999", "-1e308", "nan", "inf",
         "0.5", "32768", "true", "off", "complex", "eirp_dbm", "22.1, 23", ",", "", "x"]
    ),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)
_config_keys = st.one_of(
    st.sampled_from([f.name for f in dataclasses.fields(harness.ExperimentConfig)]),
    st.text(max_size=6),
)
_config_texts = st.builds(
    lambda pairs: "".join(f"{k} = {v}\n" for k, v in pairs),
    st.lists(st.tuples(_config_keys, _values), max_size=5),
)


@given(_config_texts)
@example("base_seed = -2\n")
@example("n_symbols_calibration = -5\n")
@example("fosc_hz = 1e308\n")
@settings(max_examples=300, deadline=None)
def test_fuzz_parse_config_returns_a_config_or_raises_configuration_error(text):
    try:
        cfg = harness.parse_config(text)
    except ConfigurationError:
        return
    # a config that parses can seed a run of at least one symbol
    np.random.SeedSequence(cfg.base_seed).spawn(1)
    assert min(cfg.n_symbols, cfg.n_symbols_calibration) >= 1


_cli_argv = st.one_of(
    st.builds(
        lambda flags: ["params"] + [a for pair in flags for a in pair],
        st.lists(st.tuples(st.sampled_from(["--sf", "--fosc", "--fs", "--format"]), _values), max_size=3),
    ),
    st.builds(
        lambda flags: ["theory"] + [a for pair in flags for a in pair],
        st.lists(st.tuples(st.sampled_from(["--seed", "--format"]), _values), max_size=2),
    ),
)


@given(_cli_argv, st.one_of(st.none(), _config_texts))
@example(["params", "--sf", "7", "--fosc", "1e308"], None)
@example(["params", "--fosc", "1", "--fs", "1e308"], None)
@example(["theory", "--seed", "-1"], None)
@example(["theory"], "n_symbols_calibration = -5\n")
@settings(max_examples=150, deadline=None)
def test_fuzz_cli_exits_0_2_or_3(argv, cfg_text):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        if cfg_text is not None and argv[0] == "theory":
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(cfg_text)
            argv = argv + ["--config", str(cfg)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags themselves
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue()


# Run sizes for the Monte-Carlo subcommands: small counts, which the drawn
# row blocks of 1-4096 rows split at block edges, and malformed counts.
_run_sizes = st.one_of(
    st.integers(1, 1100).map(str),
    st.sampled_from(["0", "-1", "-4096", "1.5", "1e3", "nan", "", "x"]),
)


@given(
    st.sampled_from(["ber-sweep", "calibrate"]),
    st.sampled_from(harness.TEMPLATE_KINDS),
    st.booleans(),
    _run_sizes,
    _run_sizes,
    st.sampled_from([1, 7, 512, 4096]),
)
@example("ber-sweep", "complex", True, "1", "1", 1)
@example("calibrate", "complex", False, "1100", "1100", 7)
@example("ber-sweep", "square-quantized", True, "0", "1", 512)
@settings(max_examples=60, deadline=None)
def test_fuzz_monte_carlo_cli_on_tiny_runs_exits_0_2_or_3(command, kind, bursts, n, n_cal, rows):
    text = (f"sf = 5\ntemplate = {kind}\nbursts_enabled = {bursts}\n"
            f"n_symbols = {n}\nn_symbols_calibration = {n_cal}\n")
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out), \
            mock.patch.object(harness, "ENGINE_BLOCK_BYTES", rows * 16 * 32):
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(text)
        code = cli.main([command, "--config", str(cfg)])
    assert code in (0, 2, 3), out.getvalue()
    assert "Traceback" not in out.getvalue()
    assert code != 0 or (n.isdigit() and n_cal.isdigit() and min(int(n), int(n_cal)) >= 1)

"""Waveform container and its CSV/binary serialization."""

import io

import numpy as np
import pytest

from rfsn import chirp
from rfsn.errors import ConfigurationError
from rfsn.waveform import KIND_ANALOG, KIND_BINARY, Waveform


def _binary_wave():
    rng = np.random.default_rng(0)
    return Waveform(rng.integers(0, 2, 64).astype(float), 32768.0, KIND_BINARY)


def test_binary_kind_rejects_non_binary_samples():
    with pytest.raises(ConfigurationError):
        Waveform(np.array([0.0, 0.5, 1.0]), 1000.0, KIND_BINARY)


def test_duration_power_mean():
    w = Waveform(np.array([1.0, 1.0, 0.0, 0.0]), 4.0, KIND_BINARY)
    assert len(w) == 4
    assert chirp.spectrum(w).total_power == pytest.approx(0.5)  # mean-square power
    assert np.mean(w.mean_removed()) == pytest.approx(0.0)


def test_csv_roundtrip(tmp_path):
    w = _binary_wave()
    path = tmp_path / "w.csv"
    w.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "sample_index,value"
    back = Waveform.from_csv(path, w.fs_hz, KIND_BINARY)
    assert np.array_equal(back.samples, w.samples)
    assert back.fs_hz == w.fs_hz


def test_binary_file_roundtrip(tmp_path):
    w = _binary_wave()
    path = tmp_path / "w.bin"
    w.save(str(path))
    back = Waveform.load(str(path))
    assert back == Waveform(w.samples, w.fs_hz, w.kind)
    assert back.kind == KIND_BINARY


def test_bytes_roundtrip_analog():
    x = np.linspace(-1, 1, 33)
    w = Waveform(x, 48000.0, KIND_ANALOG)
    back = Waveform.from_bytes(w.to_bytes())
    # payload is stored as float32
    assert np.array_equal(back.samples, x.astype(np.float32).astype(np.float64))
    assert back.fs_hz == 48000.0
    assert back.kind == KIND_ANALOG


def test_magic_header_checked():
    blob = bytearray(_binary_wave().to_bytes())
    blob[:4] = b"XXXX"
    with pytest.raises(ConfigurationError):
        Waveform.from_bytes(bytes(blob))


def test_truncated_body_rejected():
    blob = _binary_wave().to_bytes()
    for cut in (1, 2, 3):
        with pytest.raises(ConfigurationError, match="f32"):
            Waveform.from_bytes(blob[:-cut])


def test_complex_samples_cannot_serialize():
    w = Waveform(np.array([1 + 1j, 0 + 0j]), 8.0, KIND_ANALOG)
    with pytest.raises(ConfigurationError):
        w.to_bytes()
    with pytest.raises(ConfigurationError):
        w.to_csv(io.StringIO())


def test_csv_bytes_are_pinned():
    # the shortest repr that round-trips each float64, denormals included
    w = Waveform(np.array([0.0, 1.0, 0.1, 1 / 3, -1e-300, 5e-324]), 10.0, KIND_ANALOG)
    buf = io.StringIO()
    w.to_csv(buf)
    assert buf.getvalue() == (
        "sample_index,value\n0,0.0\n1,1.0\n2,0.1\n3,0.3333333333333333\n4,-1e-300\n5,5e-324\n"
    )
    buf.seek(0)
    assert np.array_equal(Waveform.from_csv(buf, 10.0).samples, w.samples)


def _row_formatter_csv(samples) -> str:
    """The CSV text of one f-string per row, as the format was first written."""
    values = np.asarray(samples, dtype=np.float64).tolist()
    return "sample_index,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values))


def test_csv_bytes_equal_the_row_formatter(tmp_path):
    rng = np.random.default_rng(7)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64)
    special = np.concatenate([
        [-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310],
        nans.view(np.float64),
        [0.1, 0.1, -0.0, 1 / 3, 1e300, -1e-300],
    ])
    analog = np.concatenate([special, rng.choice(special, 200), rng.standard_normal(300)])
    p = chirp.derive_params(5, 32768.0, fs_hz=32768.0)
    waves = [
        Waveform(analog, 10.0, KIND_ANALOG),
        chirp.modulate_quantized(np.arange(p.n_bins), p),
        Waveform(np.empty(0), 10.0, KIND_ANALOG),
    ]
    for w in waves:
        buf = io.StringIO()
        w.to_csv(buf)
        assert buf.getvalue() == _row_formatter_csv(w.samples)
        path = tmp_path / "w.csv"
        w.to_csv(path)
        assert path.read_bytes() == _row_formatter_csv(w.samples).encode()
        back = Waveform.from_csv(path, w.fs_hz)
        assert np.array_equal(back.samples, w.samples, equal_nan=True)

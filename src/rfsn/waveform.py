"""Sampled waveform container with CSV and binary serialization.

The binary format is a 16-byte header (magic "SQCH", version u16, kind u8,
one pad byte, sample rate as little-endian f64) followed by the samples as
little-endian f32.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

KIND_BINARY = "binary-envelope"
KIND_ANALOG = "analog"

_MAGIC = b"SQCH"
_VERSION = 1
_KIND_CODES = {KIND_BINARY: 0, KIND_ANALOG: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(eq=False)
class Waveform:
    """Sampled signal: a binary backscatter envelope or a post-channel analog trace.

    ``toggle_instants`` optionally carries the instants of the envelope's level
    changes: the sample instant at which each first shows (modulate_ideal), or
    the 4/fosc grid point it takes effect at (modulate_quantized).  The clock
    quantizer needs the former.
    """

    samples: np.ndarray
    fs_hz: float
    kind: str = KIND_ANALOG
    toggle_instants: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if not 0 < self.fs_hz < math.inf:
            raise ConfigurationError(f"sample rate must be positive and finite, got {self.fs_hz}")
        if self.kind not in _KIND_CODES:
            raise ConfigurationError(f"unknown waveform kind {self.kind!r}")
        if self.kind == KIND_BINARY:
            if np.iscomplexobj(self.samples):
                raise ConfigurationError("binary-envelope waveform cannot be complex")
            bad = ~((self.samples == 0.0) | (self.samples == 1.0))
            if bad.any():
                raise ConfigurationError("binary-envelope samples must all be 0 or 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return (
            self.fs_hz == other.fs_hz
            and self.kind == other.kind
            and np.array_equal(self.samples, other.samples)
        )

    def __len__(self) -> int:
        return len(self.samples)

    def mean_removed(self) -> np.ndarray:
        """Samples with exact block mean subtracted (the DC-blocker model)."""
        return self.samples - self.samples.mean()

    # -- CSV ----------------------------------------------------------------

    def to_csv(self, path_or_file) -> None:
        """Rows `i,repr(samples[i])`; repr runs once per distinct float64 bit pattern."""
        if np.iscomplexobj(self.samples):
            raise ConfigurationError("complex waveforms are not CSV-serializable")
        own = isinstance(path_or_file, (str, bytes, os.PathLike))
        f = open(path_or_file, "w") if own else path_or_file
        try:
            # bit patterns, not values, so -0.0 and 0.0 (and NaN payloads) stay apart
            bits = np.asarray(self.samples, dtype=np.float64).view(np.int64)
            distinct, inverse = np.unique(bits, return_inverse=True)
            cells = [f",{v!r}\n" for v in distinct.view(np.float64).tolist()]
            parts = [""] * (2 * len(bits))
            parts[0::2] = map(str, range(len(bits)))
            parts[1::2] = map(cells.__getitem__, inverse.tolist())
            f.write("sample_index,value\n" + "".join(parts))
        finally:
            if own:
                f.close()

    @classmethod
    def from_csv(cls, path_or_file, fs_hz: float, kind: str = KIND_ANALOG) -> "Waveform":
        own = isinstance(path_or_file, (str, bytes, os.PathLike))
        # undecodable bytes become U+FFFD, which the row parser then rejects
        f = open(path_or_file, "r", encoding="utf-8", errors="replace") if own else path_or_file
        try:
            header = f.readline().strip()
            if header != "sample_index,value":
                raise ConfigurationError(f"unexpected CSV header {header!r}")
            lines = f.readlines()
        finally:
            if own:
                f.close()
        while lines and not lines[-1].strip():
            lines.pop()
        values = _parse_csv_rows(lines)
        if values is None:
            values = _scan_csv_rows(lines)
        return cls(values, fs_hz, kind)

    # -- binary -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        if np.iscomplexobj(self.samples):
            raise ConfigurationError("complex waveforms are not binary-serializable")
        header = struct.pack("<4sHBxd", _MAGIC, _VERSION, _KIND_CODES[self.kind], self.fs_hz)
        body = np.asarray(self.samples, dtype="<f4").tobytes()
        return header + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Waveform":
        if len(blob) < 16:
            raise ConfigurationError("binary waveform shorter than its 16-byte header")
        magic, version, kind_code, fs_hz = struct.unpack("<4sHBxd", blob[:16])
        if magic != _MAGIC:
            raise ConfigurationError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _VERSION:
            raise ConfigurationError(f"unsupported waveform format version {version}")
        if kind_code not in _KIND_NAMES:
            raise ConfigurationError(f"unknown waveform kind code {kind_code}")
        if (len(blob) - 16) % 4:
            raise ConfigurationError(
                f"binary waveform body of {len(blob) - 16} bytes is not whole f32 samples"
            )
        samples = np.frombuffer(blob[16:], dtype="<f4").astype(np.float64)
        return cls(samples, fs_hz, _KIND_NAMES[kind_code])

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "Waveform":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


_CSV_ROW = np.dtype([("index", np.int64), ("value", np.float64)])


def _parse_csv_rows(lines: list) -> np.ndarray | None:
    """The values of CSV body lines parsed in one numpy call, or None where that
    parse might differ from _scan_csv_rows.

    On ASCII text numpy converts the cells with Python's own string-to-double
    and accepts a subset of what int() and float() do (no underscores).  A
    line it skips or splits otherwise than the row scan changes the row
    count.  Any doubt falls back to the row scan.
    """
    if not lines:
        return np.empty(0)
    body = "".join(lines)
    # numpy 2.4 reads some non-ASCII index cells as integers and can crash on
    # them, and strips \x1c-\x1f from a cell where int() and float() do not
    if not body.isascii() or any(c in body for c in "\x1c\x1d\x1e\x1f"):
        return None
    with warnings.catch_warnings(record=True) as caught:
        # numpy 1.x parses an index cell like "1.5" through float, to 1, with a
        # DeprecationWarning
        warnings.simplefilter("always")
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, dtype=_CSV_ROW, ndmin=1)
        except ValueError:
            return None
    if caught or len(rows) != len(lines) or not np.array_equal(rows["index"], np.arange(len(rows))):
        return None
    return np.ascontiguousarray(rows["value"])


def _scan_csv_rows(lines: list) -> np.ndarray:
    """The values of CSV body lines, row by row; raises naming the first bad line."""
    values = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            idx, val = line.split(",")
            idx, val = int(idx), float(val)
        except ValueError:
            raise ConfigurationError(
                f"CSV line {lineno}: expected `sample_index,value`, got {line!r}"
            ) from None
        if idx != len(values):
            raise ConfigurationError(
                f"CSV line {lineno}: sample indices must be contiguous from 0"
            )
        values.append(val)
    return np.asarray(values, dtype=np.float64)

"""Sampled waveform container with CSV and binary serialization.

The binary format is a 16-byte header (magic "SQCH", version u16, kind u8,
one pad byte, sample rate as little-endian f64) followed by the samples as
little-endian f32.
"""

from __future__ import annotations

import math
import os
import struct
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

    ``toggle_instants`` optionally carries the exact continuous-time transition
    instants the envelope was rendered from; the clock quantizer needs them.
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
        if np.iscomplexobj(self.samples):
            raise ConfigurationError("complex waveforms are not CSV-serializable")
        own = isinstance(path_or_file, (str, bytes, os.PathLike))
        f = open(path_or_file, "w") if own else path_or_file
        try:
            values = np.asarray(self.samples, dtype=np.float64).tolist()
            rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values))
            f.write("sample_index,value\n" + rows)
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
            values = []
            for lineno, line in enumerate(f, start=2):
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
        finally:
            if own:
                f.close()
        return cls(np.asarray(values, dtype=np.float64), fs_hz, kind)

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

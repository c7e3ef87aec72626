"""Row-by-row reference reader of the waveform CSV, kept apart from the package.

``from_csv`` parses each body line with Python's ``int`` and ``float``, the
definition of the format.  ``Waveform.from_csv`` parses the whole body in one
numpy call and falls back to a row scan; the tests hold the two to the same
samples, bit for bit, or the same error message.
"""

import os

import numpy as np

from rfsn.errors import ConfigurationError
from rfsn.waveform import KIND_ANALOG, Waveform


def from_csv(path_or_file, fs_hz: float, kind: str = KIND_ANALOG) -> Waveform:
    own = isinstance(path_or_file, (str, bytes, os.PathLike))
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
    return Waveform(np.asarray(values, dtype=np.float64), fs_hz, kind)

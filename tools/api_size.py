"""Print the three size counts the ROADMAP's design aim tracks.

  lines            non-blank, non-comment lines under src/rfsn
  entry points     public functions and classes of the counted modules, and
                   the public methods, classmethods and staticmethods of
                   those classes
  settable values  the parameters of those functions and methods, the init
                   fields of dataclasses, and the parameters of a class's
                   own __init__

Run from anywhere:  python3 tools/api_size.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("channel", "chirp", "harness", "powersim", "rxdsp", "waveform")


def source_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "rfsn").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def n_params(func) -> int:
    """Parameters of func, not counting self or cls."""
    return sum(1 for name in inspect.signature(func).parameters if name not in ("self", "cls"))


def class_surface(cls) -> tuple[int, int]:
    """(entry points, settable values) of one public class, itself included."""
    entries = 1
    if dataclasses.is_dataclass(cls):
        values = sum(1 for f in dataclasses.fields(cls) if f.init)
    elif "__init__" in vars(cls):
        values = n_params(cls.__init__)
    else:
        values = 0
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            attr = attr.__func__
        if inspect.isfunction(attr):
            entries += 1
            values += n_params(attr)
    return entries, values


def api_surface() -> tuple[int, int]:
    """(entry points, settable values) summed over MODULES."""
    sys.path.insert(0, str(SRC))
    entries = values = 0
    for mod_name in MODULES:
        mod = importlib.import_module(f"rfsn.{mod_name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                e, v = class_surface(obj)
                entries += e
                values += v
            elif inspect.isfunction(obj):
                entries += 1
                values += n_params(obj)
    return entries, values


def main() -> None:
    entries, values = api_surface()
    print(f"lines {source_lines()}")
    print(f"entry points {entries}")
    print(f"settable values {values}")


if __name__ == "__main__":
    main()

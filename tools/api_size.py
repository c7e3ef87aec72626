"""Print the four size counts the ROADMAP's design aim tracks.

  lines              non-blank, non-comment lines under src/rfsn
  entry points       public functions and classes of the counted modules, and
                     the public methods, classmethods and staticmethods of
                     those classes
  settable values    the parameters of those functions and methods, the init
                     fields of dataclasses, and the parameters of a class's
                     own __init__
  only tests reach   the entry points that no code outside tests reads: the
                     src/rfsn, demos and perfbench sources and the README's
                     Python example are searched for each name (imports do
                     not count).  Matching is by name, so a name that other
                     code also uses for something else counts as reached.

Run from anywhere:  python3 tools/api_size.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("channel", "chirp", "harness", "powersim", "rxdsp", "waveform")
CALLER_DIRS = (SRC / "rfsn", ROOT / "demos", ROOT / "perfbench")


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


def init_values(cls) -> int:
    """Settable values of building cls: its dataclass init fields or own __init__ parameters."""
    if dataclasses.is_dataclass(cls):
        return sum(1 for f in dataclasses.fields(cls) if f.init)
    return n_params(cls.__init__) if "__init__" in vars(cls) else 0


def entry_points():
    """Yield (qualified name, function or class) for each entry point of MODULES."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for mod_name in MODULES:
        mod = importlib.import_module(f"rfsn.{mod_name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{mod_name}.{name}", obj
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if isinstance(attr, (classmethod, staticmethod)):
                    attr = attr.__func__
                if not attr_name.startswith("_") and inspect.isfunction(attr):
                    yield f"{mod_name}.{name}.{attr_name}", attr


def api_surface() -> tuple[int, int]:
    """(entry points, settable values) summed over MODULES."""
    entries = values = 0
    for _, obj in entry_points():
        entries += 1
        values += init_values(obj) if inspect.isclass(obj) else n_params(obj)
    return entries, values


def names_read_outside_tests() -> set[str]:
    """Every name and attribute name that CALLER_DIRS' code and the README example read."""
    texts = [p.read_text(encoding="utf-8") for d in CALLER_DIRS for p in sorted(d.rglob("*.py"))]
    texts += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    names = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def only_tests_reach() -> list[str]:
    """Qualified names of the entry points that no code outside tests reads."""
    read = names_read_outside_tests()
    return [qual for qual, _ in entry_points() if qual.rsplit(".", 1)[1] not in read]


def main() -> None:
    entries, values = api_surface()
    unreached = only_tests_reach()
    print(f"lines {source_lines()}")
    print(f"entry points {entries}")
    print(f"settable values {values}")
    print(f"only tests reach {len(unreached)}" + "".join(f"\n  {q}" for q in unreached))


if __name__ == "__main__":
    main()

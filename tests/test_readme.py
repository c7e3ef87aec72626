"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_decodes_its_symbols():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert list(namespace["symbols"]) == [42, 17, 3]

"""The public names that nothing but tests reaches stay on a list that says why."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "api_size.py"

# entry point -> why it stays public although only tests call it
ONLY_TESTS_REACH = {
    "channel.permittivity_from_shift": (
        "criterion 3 checks the paper's resonance-shift physics with it"
    ),
    "chirp.quantize_toggles": (
        "perfbench/layers.py wraps it by name; it moves into the tests with the benchmark "
        "change that stops wrapping it, since a missing target drops its per-layer metrics"
    ),
}


def _api_size():
    spec = importlib.util.spec_from_file_location("api_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_only_tests_reach_are_allowlisted():
    # a new name here is deleted, moved into the tests that use it, or listed with a reason
    assert sorted(_api_size().only_tests_reach()) == sorted(ONLY_TESTS_REACH)

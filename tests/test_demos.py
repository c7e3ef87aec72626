"""The demos run clean, demo 03 prints the energy walkthrough unchanged and
demo 04 its seeded burst table."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demos/03_energy_budget.py stdout; the ledger residual is rounding noise, so
# only its line is kept, not its value
DEMO_03_STDOUT = """\
minimum incident power for cold start: 5.43 dBm
charge to 1.8 V at 6.4 dBm: 0.8 s

2.6 -> 2.3 V window holds 4 packets of 177 uJ each

60 s at +10 dBm: 1984 packets (208320 bytes) in 496 wake windows
energy ledger residual: <residual> J (conservation check)

passive node at -6 dBm, 32.768 kHz clock, 1.8 V:
  harvested 25.12 uW vs 9.30 uW active draw -> duty cycle 100.0%
  sustainable: True
"""

# demos/04_bandwidth_vs_bursts.py stdout up to the table's last row
DEMO_04_TABLE = """\
burst model: 3 ms every 0.5 s, amplitude x150

 bw_kHz   ds_ms closed_form_es   sim_ser   sim_ber
    4.1   31.25         0.0625    0.0614    0.0311
  125.0    1.02         0.0061    0.0087    0.0044
  250.0    0.51         0.0061    0.0070    0.0034
"""


def _run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path_dirs = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(path):
    res = _run_demo(path)
    assert (res.returncode, res.stderr) == (0, "")
    if path.name == "03_energy_budget.py":
        out = re.sub(r"(energy ledger residual: )\S+", r"\1<residual>", res.stdout)
        assert out == DEMO_03_STDOUT
    if path.name == "04_bandwidth_vs_bursts.py":
        assert res.stdout.startswith(DEMO_04_TABLE)

"""Self-tests of the benchmark's own machinery (not part of the simulator's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Summary, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Energy, McBursts, load_reference  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    tr = Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0, 6.0, 7.0, 9.0, 10.0]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    s = Summary(tr)
    assert s.total("root") == 10.0 and s.self_s("root") == 10.0 - 5.0 - 2.0
    assert s.self_s("a") == 5.0 - 1.0 and s.self_s("b") == 1.0 and s.self_s("c") == 2.0
    assert s.self_s("root") + s.self_s("a") + s.self_s("b") + s.self_s("c") == s.total("root")
    assert s.count_under("b", "root") == 1 and s.count_under("c", "a") == 0
    assert s.root_self_frac() == pytest.approx(0.3)


def test_sums_under_pass_spans_are_per_pass():
    tr = Tracer(clock=ScriptedClock([0.0, 1.0, 1.0, 3.0, 3.0, 5.0]))
    for root in ("bench.setup", "bench.pass", "bench.pass"):
        with tr.span(root):
            pass
    s = Summary(tr, passes=2)
    assert s.total("bench.setup") == 1.0 and s.total("bench.pass") == 2.0
    assert s.count("bench.pass") == 1.0


def test_per_pass_counts_stay_exact():
    tr = Tracer()
    for _ in range(5):
        with tr.span("bench.pass"):
            for _ in range(3):
                with tr.span("call"):
                    pass
    assert Summary(tr, passes=5).count("call") == 3.0  # not 15 * 0.2


class _Target:
    @staticmethod
    def double(x):
        return 2 * x

    @classmethod
    def make(cls, x):
        return (cls, x)


def test_wrap_records_values_and_reports_missing_targets():
    tr = Tracer()
    assert tr.wrap(_Target, "double", "t.double", lambda a, k, out: float(out))
    assert tr.wrap(_Target, "make", "t.make")
    assert not tr.wrap(_Target, "gone", "t.gone")
    assert _Target.double(4) == 8 and _Target.make(1) == (_Target, 1)
    s = Summary(tr)
    assert s.count("t.double") == 1 and s.value("t.double") == 8.0
    assert tr.missing == ["_Target.gone"] and "t.gone" not in tr.installed


def test_metrics_on_a_missing_target_are_left_out_not_crashed():
    tr = Tracer()
    with tr.span("bench.pass"):
        pass
    tr.installed = {"harness.engine_run"}
    got = layers.per_layer_metrics(tr, passes=1)
    assert "harness.engine_run.calls" in got and "powersim.leak_evals" not in got


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layer_names = [m[0] for m in layers.PER_LAYER] + [layers.OVERHEAD[0]]
    assert [m["name"] for m in bench["per_layer"]] == layer_names


@pytest.fixture(scope="module")
def energy_out():
    wl = Energy()
    wl.setup(3)
    return wl, wl.run_pass()[0]


def test_energy_checker_flags_a_perturbed_output(energy_out):
    wl, out = energy_out
    ref = load_reference()
    assert all(ok for _, ok, _ in wl.check(out, ref))
    bad = copy.copy(out)
    bad["scale"] = out["scale"] * (1 + 1e-15)
    failed = [label for label, ok, _ in wl.check(bad, ref) if not ok]
    assert failed == ["fitted passive efficiency scale"]


def test_bursts_checker_flags_a_ber_outside_the_seed_band():
    ref = load_reference()
    bands, rates = ref["bands"]["mc_bursts"]["ber"], ref["interference_es"]

    def rows(first_ber):
        return [
            SimpleNamespace(axis_value=bw, ber=first_ber if i == 0 else sum(band) / 2, interference_es=es)
            for i, (bw, band, es) in enumerate(zip((4096.0, 125e3, 250e3), bands, rates))
        ]

    wl = McBursts()
    assert all(ok for _, ok, _ in wl.check({"rows": rows(sum(bands[0]) / 2)}, ref))
    failed = [label for label, ok, _ in wl.check({"rows": rows(bands[0][1] * 1.01)}, ref) if not ok]
    assert failed == ["BER at bw=4096 Hz"]


class _Flaky:
    """A workload whose set-up or n-th pass raises; every pass has two passing checks."""

    metered = False

    def __init__(self, fail_in, n=1):
        self.fail_in, self.n, self.passes = fail_in, n, 0

    def setup(self):
        if self.fail_in == "setup":
            raise RuntimeError("boom")
        return self, 0.01

    def run_pass(self):
        self.passes += 1
        if self.fail_in == "pass" and self.passes == self.n:
            raise RuntimeError("boom")
        return {}, 1.0

    def check(self, out, ref):
        return [("ok", True, ""), ("ok too", True, "")]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("fail_in, n, attempted, passes", [("setup", 1, 1, 0), ("pass", 1, 1, 0), ("pass", 2, 3, 1)])
def test_an_exception_counts_as_a_failed_attempt(fail_in, n, attempted, passes, traced):
    got = worker.measure(_Flaky(fail_in, n).setup, {}, seconds=60.0, tracer=Tracer() if traced else None)
    assert got["attempted"] == attempted and got["failed"] == 1 and len(got["walls"]) == passes
    assert got["errors"] == [f"{fail_in.replace('setup', 'set-up')} raised RuntimeError: boom"]


def test_a_result_line_is_printed_when_no_pass_completes(monkeypatch, capsys):
    monkeypatch.setattr(run, "child", lambda *a: {
        "setups": [], "walls": [], "cores": [], "work": 0.0, "peak_rss_mb": 50.0,
        "attempted": 1, "failed": 1, "errors": ["set-up raised RuntimeError: boom"],
    })
    assert run.main(["--workload", "energy", "--seed", "1"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res == {"correct": False, "attempted": 1, "failed": 1,
                   "metrics": {"peak_rss_mb": {"value": 50.0, "unit": "MB"}}}

"""Harvest/charge/leakage models and the duty-cycle state machine."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfsn import harness, powersim
from rfsn.errors import ConfigurationError

CHARGE_SWEEP_CFG = Path(__file__).resolve().parents[1] / "configs" / "charge_sweep.cfg"


# ----------------------------------------------------------------- capacitor

def test_capacitor_energy_voltage_roundtrip():
    c = powersim.Capacitor(1e-3, powersim.Capacitor(1e-3).energy_at(3.2))
    assert c.energy_j == pytest.approx(0.5 * 1e-3 * 3.2**2)
    assert c.v_volts == pytest.approx(3.2)
    assert c.energy_at(1.8) == pytest.approx(0.5 * 1e-3 * 1.8**2)


def test_capacitor_rejects_nonpositive_capacitance():
    # a nan capacitance would make time_to_voltage loop forever
    for bad in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            powersim.Capacitor(bad)
    for bad in (-1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            powersim.Capacitor(1e-3, bad)


def test_euler_step_and_clamp():
    e, harvested, consumed = powersim.euler_step(1e-6, 2e-3, 1e-3, 0.5)
    assert e == pytest.approx(1e-6 + 0.5e-3)
    assert (harvested, consumed) == (1e-3, 0.5e-3)
    e, harvested, consumed = powersim.euler_step(1e-6, 0.0, 1.0, 1.0)
    assert e == 0.0  # cannot go negative
    assert consumed == 1e-6  # only what was stored is removed


# ------------------------------------------------------------------ harvester

def test_harvester_interpolation_and_sensitivity():
    h = powersim.HarvesterModel.default_passive()
    # linear interpolation between (-6, .10) and (-4, .17)
    assert h.efficiency(-5.0) == pytest.approx(0.135)
    assert h.efficiency(-8.6) == 0.0  # below sensitivity
    assert h.efficiency(50.0) == pytest.approx(h.efficiency(10.0))
    active = powersim.HarvesterModel.default_active()
    assert active.efficiency(-2.6) == 0.0  # below the active sensitivity


def test_harvested_power_arithmetic():
    h = powersim.HarvesterModel.default_active()
    want = h.efficiency(0.0) * 1e-3  # 0 dBm = 1 mW
    assert h.harvested_power_w(0.0) == pytest.approx(want)


def test_harvester_scale_and_validation():
    h = dataclasses.replace(powersim.HarvesterModel.default_passive(), scale=0.5)
    base = powersim.HarvesterModel.default_passive()
    assert h.efficiency(0.0) == pytest.approx(0.5 * base.efficiency(0.0))
    with pytest.raises(ConfigurationError):
        powersim.HarvesterModel([(-5.0, 0.5), (0.0, 0.4)])  # not increasing
    with pytest.raises(ConfigurationError):
        powersim.HarvesterModel([(-5.0, 0.5), (0.0, 1.4)])  # out of [0, 1]
    with pytest.raises(ConfigurationError):
        powersim.HarvesterModel(((0.0, 0.0), (1.0, 0.0)))  # harvests nothing at any scale


# -------------------------------------------------------------------- leakage

def test_leakage_anchor_points_exact():
    leak = powersim.LeakageCurve.default_without_startup()
    assert leak.power_w(0.6) == pytest.approx(3.1e-6)
    assert leak.power_w(1.8) == pytest.approx(2.1e-3)


def test_leakage_log_linear_midpoint():
    leak = powersim.LeakageCurve.default_without_startup()
    # geometric mean of the two bracketing anchors at the voltage midpoint
    want = math.sqrt(3.1e-6 * 2.1e-3)
    assert leak.power_w(1.2) == pytest.approx(want, rel=1e-9)


def test_leakage_clamps_beyond_ends_and_max_below():
    leak = powersim.LeakageCurve.default_with_startup()
    assert leak.power_w(5.0) == pytest.approx(leak.power_w(1.8))
    # the startup threshold beats the largest leakage below V_MIN, the 1.8 V knot
    need = leak.power_w(1.8)
    assert need == pytest.approx(6.1e-5)
    h = powersim.HarvesterModel.default_active()
    p_min = powersim.min_startup_incident_power(leak, h)
    assert h.harvested_power_w(p_min) > need >= h.harvested_power_w(p_min - 1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_leakage_rejects_non_finite_points(bad):
    # the interpolation reproduces np.interp only on finite knots
    with pytest.raises(ConfigurationError):
        powersim.LeakageCurve(((0.0, 1e-7), (bad, 1e-6)))
    with pytest.raises(ConfigurationError):
        powersim.LeakageCurve(((0.0, 1e-7), (0.6, abs(bad))))


def test_leakage_constant():
    leak = powersim.LeakageCurve.constant(36e-9)
    assert leak.power_w(0.1) == leak.power_w(3.0) == pytest.approx(36e-9)


# ----------------------------------------------------------- charging dynamics

def test_time_to_voltage_constant_power_oracle():
    # negligible leakage: t = (C V^2 / 2) / p_net
    h = powersim.HarvesterModel([(-50.0, 0.5), (10.0, 0.5)])
    leak = powersim.LeakageCurve.constant(1e-12)
    c = powersim.Capacitor(22e-6)
    t = powersim.time_to_voltage(c, 0.0, h, leak, dt_s=1e-4)
    want = (0.5 * 22e-6 * 1.8**2) / (0.5 * 1e-3)
    assert t == pytest.approx(want, rel=0.01)


def test_time_to_voltage_stalls_to_never():
    h = powersim.HarvesterModel.default_active()
    leak = powersim.LeakageCurve.default_without_startup()
    c = powersim.Capacitor(1e-3)
    assert powersim.time_to_voltage(c, -20.0, h, leak) == math.inf


def test_time_to_voltage_rejects_coarse_step():
    c = powersim.Capacitor(1e-3)
    h = powersim.HarvesterModel.default_active()
    leak = powersim.LeakageCurve.constant(1e-12)
    with pytest.raises(ConfigurationError):
        powersim.time_to_voltage(c, 0.0, h, leak, dt_s=0.5)


def test_time_to_voltage_rejects_a_nan_step():
    c = powersim.Capacitor(1e-3)
    h = powersim.HarvesterModel.default_active()
    leak = powersim.LeakageCurve.constant(1e-12)
    with pytest.raises(ConfigurationError, match="dt must lie in"):
        powersim.time_to_voltage(c, 0.0, h, leak, dt_s=math.nan)


def test_min_startup_power_is_a_threshold():
    leak = powersim.LeakageCurve.default_without_startup()
    h = powersim.HarvesterModel.default_active()
    p_min = powersim.min_startup_incident_power(leak, h)
    c = powersim.Capacitor(1e-3)
    assert powersim.time_to_voltage(c, p_min + 0.3, h, leak) < math.inf
    assert powersim.time_to_voltage(c, p_min - 0.3, h, leak) == math.inf


def test_min_startup_power_is_pinned():
    # the value perfbench/reference.json pins
    p_min = powersim.min_startup_incident_power(
        powersim.LeakageCurve.default_without_startup(), powersim.HarvesterModel.default_active()
    )
    assert p_min == 5.4282976271329755


def test_min_startup_power_never_when_out_of_reach():
    leak = powersim.LeakageCurve.constant(100.0)  # 100 W leak: hopeless
    h = powersim.HarvesterModel.default_active()
    assert powersim.min_startup_incident_power(leak, h) == math.inf


# ------------------------------------------------------------- state machine

def _run_default(pr_dbm=0.0, duration_s=60.0):
    fsm = powersim.ActiveNodeFSM()
    c = powersim.Capacitor(1e-3)
    return powersim.run_active_fsm(
        fsm,
        c,
        pr_dbm,
        powersim.HarvesterModel.default_active(),
        powersim.LeakageCurve.default_with_startup(),
        duration_s=duration_s,
    )


@pytest.mark.parametrize("duration_s", [math.nan, -math.inf, -1.0])
def test_fsm_rejects_a_duration_that_is_not_finite_and_non_negative(duration_s):
    with pytest.raises(ConfigurationError, match="duration_s must be finite"):
        _run_default(-20.0, duration_s)


_INFINITE_FSM_RUN = """
import math
from rfsn import powersim
from rfsn.errors import ConfigurationError
try:
    powersim.run_active_fsm(powersim.ActiveNodeFSM(), powersim.Capacitor(1e-3), -20.0,
                            powersim.HarvesterModel.default_active(),
                            powersim.LeakageCurve.default_with_startup(), math.inf)
except ConfigurationError as exc:
    print(exc)
"""


def test_fsm_rejects_an_infinite_duration_at_once():
    # in a subprocess: a run at -20 dBm never charges, so an unchecked
    # infinite duration would never return
    src = str(Path(powersim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _INFINITE_FSM_RUN], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "duration_s must be finite and >= 0, got inf\n", proc.stderr


def test_fsm_trace_energy_ledger_closes():
    tr = _run_default()
    assert abs(tr.energy_residual_j()) <= 1e-6 * max(tr.harvested_j, 1e-12)


def test_fsm_timestamps_strictly_increase():
    tr = _run_default()
    ts = [e[0] for e in tr.events]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_fsm_event_vocabulary_and_order():
    tr = _run_default()
    kinds = [e[1] for e in tr.events]
    assert kinds[0] == "start"
    assert "boot" in kinds
    assert kinds.index("boot") < kinds.index("sleep")
    assert tr.packets_sent > 0
    assert tr.bytes_sent == tr.packets_sent * powersim.ActiveNodeFSM.MSDU_BYTES


def test_fsm_packets_per_window_closed_form():
    # no in-transmit harvest: floor((E(2.6 V) - E(2.3 V)) / E_packet) = 4
    fsm = powersim.ActiveNodeFSM()
    c = powersim.Capacitor(1e-3)
    tr = powersim.run_active_fsm(
        fsm,
        c,
        0.0,
        powersim.HarvesterModel.default_active(),
        powersim.LeakageCurve.default_with_startup(),
        duration_s=60.0,
        harvest_while_transmitting=False,
    )
    window_j = c.energy_at(2.6) - c.energy_at(2.3)
    want = math.floor(window_j / fsm.E_PACKET_J)
    assert want == 4
    packets = [e for e in tr.events if e[1] == "packet"]
    sleeps = [e for e in tr.events if e[1] == "sleep"]
    assert len(sleeps) >= 2
    # every complete wake window sends exactly the closed-form packet count
    per_window = len(packets) / len(sleeps)
    assert per_window == pytest.approx(want, abs=0.5)


# 60 s runs on the 1 mF cap, pinned from before the thresholds and costs became
# class constants: (packets, bytes, events, sha256 of repr(events)).  The
# object-stepping oracle below reads the same constants, so only these
# numbers catch a mistyped one.
FSM_PINNED = {
    (0.0, True): (
        124, 13020, 187, "1b5ed0c6f63df0b55e8174bb368bc4dfe57266e0e93f1821eb1c0fa0d879f2a1"
    ),
    (0.0, False): (
        124, 13020, 187, "4fece28241dac676a597fd32ab794fd9ef7211f94cdd559c046a678ec3b796eb"
    ),
    (10.0, True): (
        2056, 215880, 3085, "1b5bdc4e7300235d1aa91f0c267d1954b76e0c05c4c921a91bc3748d847ebafe"
    ),
    (10.0, False): (
        1984, 208320, 2977, "2eab4afc405a64bc5c65a4d6c5bbb2dd46c5a100f7c49fc1109496f3a51d5bb6"
    ),
}


@pytest.mark.parametrize("pr_dbm, harvest_tx", list(FSM_PINNED))
def test_fsm_runs_match_pinned_values(pr_dbm, harvest_tx):
    tr = powersim.run_active_fsm(
        powersim.ActiveNodeFSM(),
        powersim.Capacitor(1e-3),
        pr_dbm,
        powersim.HarvesterModel.default_active(),
        powersim.LeakageCurve.default_with_startup(),
        duration_s=60.0,
        harvest_while_transmitting=harvest_tx,
    )
    digest = hashlib.sha256(repr(tr.events).encode()).hexdigest()
    got = (tr.packets_sent, tr.bytes_sent, len(tr.events), digest)
    assert got == FSM_PINNED[(pr_dbm, harvest_tx)]


def test_fsm_dies_without_power():
    tr = _run_default(pr_dbm=-30.0, duration_s=5.0)
    assert tr.packets_sent == 0


# ------------------------------------------------------------- passive budget

def test_passive_power_table_points():
    h = powersim.HarvesterModel.default_passive()
    assert powersim.passive_steady_state(32768, 1.8, 0.0, h).p_op_w == pytest.approx(9.3e-6)
    assert powersim.passive_steady_state(1e6, 1.8, 0.0, h).p_op_w == pytest.approx(392e-6)
    with pytest.raises(ConfigurationError):
        powersim.passive_steady_state(3e6, 1.8, 0.0, h)


def test_passive_steady_state_budget():
    h = powersim.HarvesterModel.default_passive()
    st = powersim.passive_steady_state(32768, 1.8, 0.0, h)
    assert st.p_harvest_w == pytest.approx(h.harvested_power_w(0.0))
    assert st.p_op_w == pytest.approx(9.3e-6)
    assert st.margin_w == pytest.approx(st.p_harvest_w - st.p_op_w)
    assert st.sustainable == (st.margin_w >= 0)
    assert 0.0 <= st.duty_cycle <= 1.0
    # far below sensitivity nothing harvests
    st2 = powersim.passive_steady_state(32768, 1.8, -40.0, h)
    assert st2.duty_cycle == 0.0 and not st2.sustainable


# ------------------------------------------- bit-exact reference loops
# The energy loops step plain floats over a leakage table built once.  These
# are the object-stepping loops they replaced: every step builds a validated
# Capacitor and every leakage lookup builds its arrays and calls np.interp.
# The fast path must reproduce them exactly (==, not approx).

def _ref_power_w(leak, v):
    xs = np.array([p[0] for p in leak.points])
    logp = np.log([p[1] for p in leak.points])
    return float(np.exp(np.interp(v, xs, logp)))


def _ref_step(c, p_in_w, p_out_w, dt_s):
    harvested = p_in_w * dt_s
    e_new = c.energy_j + harvested - p_out_w * dt_s
    if e_new < 0.0:
        consumed = c.energy_j + harvested
        e_new = 0.0
    else:
        consumed = p_out_w * dt_s
    return powersim.Capacitor(c.capacitance_f, e_new), harvested, consumed


def _ref_time_to_voltage(c, v_target, pr_dbm, h, leak, dt_s, stall_steps=1000):
    p_in = h.harvested_power_w(pr_dbm)
    t = 0.0
    stalled = 0
    while c.v_volts < v_target:
        c_next = _ref_step(c, p_in, _ref_power_w(leak, c.v_volts), dt_s)[0]
        stalled = stalled + 1 if c_next.energy_j <= c.energy_j else 0
        if stalled >= stall_steps:
            return math.inf
        c = c_next
        t += dt_s
    return t


def _ref_run_active_fsm(fsm, c, pr_dbm, h, leak, duration_s, dt_s, harvest_while_transmitting):
    p_in = h.harvested_power_w(pr_dbm)
    trace = powersim.SimTrace(initial_energy_j=c.energy_j)
    state = "cold"
    t = 0.0
    trace.log(t, "start", c.v_volts)
    e_sleep = c.energy_at(fsm.V_SLEEP)

    def step(c, p_in_w, p_out_w, dt):
        c, got, used = _ref_step(c, p_in_w, p_out_w, dt)
        trace.harvested_j += got
        trace.consumed_j += used
        return c

    while t < duration_s and state != "dead":
        if state in ("cold", "sleeping"):
            c = step(c, p_in, _ref_power_w(leak, c.v_volts), dt_s)
            t += dt_s
            if c.v_volts >= (fsm.V_START if state == "cold" else fsm.V_WAKE):
                if state == "cold":
                    c = step(c, 0.0, fsm.E_BOOT_J / dt_s, dt_s)
                    trace.log(t, "boot", c.v_volts)
                    if c.v_volts < powersim.V_MIN:
                        state = "dead"
                        t += dt_s
                        trace.log(t, "dead", c.v_volts)
                        continue
                else:
                    trace.log(t, "wake", c.v_volts)
                state = "transmitting"
        else:
            pin_tx = p_in if harvest_while_transmitting else 0.0
            pt = fsm.PACKET_TIME_S
            drain = _ref_power_w(leak, c.v_volts) * pt + fsm.E_PACKET_J
            if c.energy_j + pin_tx * pt - drain >= e_sleep:
                if t + pt > duration_s:
                    break  # the run ends inside the burst: no sleep is logged
                c = step(c, pin_tx, drain / pt, pt)
                t += pt
                trace.packets_sent += 1
                trace.bytes_sent += fsm.MSDU_BYTES
                trace.log(t, "packet", c.v_volts)
            else:
                state = "sleeping"
                c = step(c, p_in, _ref_power_w(leak, c.v_volts), dt_s)
                t += dt_s
                trace.log(t, "sleep", c.v_volts)

    trace.final_energy_j = c.energy_j
    return trace


def _bits(values):
    """IEEE-754 bit patterns, so NaN and signed zero compare exactly too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


_CURVES = {
    "without_startup": powersim.LeakageCurve.default_without_startup(),
    "with_startup": powersim.LeakageCurve.default_with_startup(),
    "passive_sleep": powersim.LeakageCurve.constant(powersim.P_SLEEP_W),
    "one_point": powersim.LeakageCurve(((0.7, 2.5e-6),)),
    "two_points": powersim.LeakageCurve(((0.3, 4.0e-7), (2.9, 1.7e-4))),
}


def _knot_neighbours(leak):
    """Every knot and the floats just below and just above it."""
    return [
        w
        for v, _ in leak.points
        for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))
    ]


@pytest.mark.parametrize("leak", list(_CURVES.values()), ids=list(_CURVES))
def test_leakage_power_bit_exact_against_np_interp(leak):
    rng = np.random.default_rng(7)
    knots = [v for v, _ in leak.points]
    vs = [float(v) for v in rng.uniform(-0.5, 3.5, 10_000)]
    vs += knots + [-1.0, -0.0, knots[-1] + 1.0, math.inf, -math.inf, math.nan]
    vs += _knot_neighbours(leak)
    # -NaN and a signalling NaN, which np.exp returns quieted
    vs += [float(x) for x in np.array([0xFFF8 << 48, 0x7FF0 << 48 | 1], np.uint64).view(np.float64)]
    assert _bits([leak.power_w(v) for v in vs]) == _bits([_ref_power_w(leak, v) for v in vs])


_leakage_curves = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(1e-15, 1.0)),
    min_size=1,
    max_size=6,
    unique_by=lambda point: point[0],
).map(lambda points: powersim.LeakageCurve(tuple(sorted(points))))


@given(_leakage_curves, st.lists(st.floats(), max_size=20))
def test_leakage_power_bit_exact_on_random_curves(leak, vs):
    # st.floats() draws NaNs of either sign and infinities too
    xs = [v for v, _ in leak.points]
    vs = vs + _knot_neighbours(leak) + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    assert _bits([leak.power_w(v) for v in vs]) == _bits([_ref_power_w(leak, v) for v in vs])


def _ref_efficiency(h, pr_dbm):
    xs = np.array([p for p, _ in h.efficiency_points])
    ys = np.array([eta for _, eta in h.efficiency_points])
    if pr_dbm < h.sensitivity_dbm or pr_dbm < xs[0]:
        return 0.0
    return h.scale * float(np.interp(pr_dbm, xs, ys))


@pytest.mark.parametrize(
    "h",
    [
        powersim.HarvesterModel.default_active(),  # sensitivity above the first anchor
        dataclasses.replace(powersim.HarvesterModel.default_passive(), scale=0.37),
        powersim.HarvesterModel(((-3.0, 0.1), (7.5, 0.4)), -20.0, 2.5),
    ],
    ids=["active", "passive-scaled", "two-anchors"],
)
def test_harvester_efficiency_bit_exact_against_np_interp(h):
    rng = np.random.default_rng(11)
    anchors = [p for p, _ in h.efficiency_points]
    # from below the sensitivity and the first anchor to past the last
    prs = [float(p) for p in rng.uniform(anchors[0] - 15.0, anchors[-1] + 15.0, 5000)]
    prs += anchors + [h.sensitivity_dbm, -math.inf, math.inf]
    prs += [math.nextafter(p, d) for p in anchors + [h.sensitivity_dbm] for d in (-math.inf, math.inf)]
    assert _bits([h.efficiency(p) for p in prs]) == _bits([_ref_efficiency(h, p) for p in prs])


@pytest.mark.parametrize("variant", ["passive", "active"])
@pytest.mark.parametrize("dt_s", [1e-3, 5e-4])
def test_time_to_voltage_bit_exact_on_charge_sweep_grid(variant, dt_s):
    cfg = dataclasses.replace(harness.load_config(CHARGE_SWEEP_CFG), charge_variant=variant)
    h, leak = harness.charge_models(cfg)
    got, want = [], []
    for pr in cfg.sweep_values:
        c = powersim.Capacitor(cfg.capacitance_f)
        got.append(powersim.time_to_voltage(c, pr, h, leak, dt_s))
        want.append(_ref_time_to_voltage(c, 1.8, pr, h, leak, dt_s))
    assert got == want
    assert math.inf in got  # the grid's low end stalls
    assert any(math.isfinite(t) for t in got)


@pytest.mark.parametrize("dp_db", [-0.3, -1e-6, 1e-6])
def test_time_to_voltage_bit_exact_where_harvest_meets_leakage(dp_db):
    # Just below the startup threshold the harvest climbs until leakage eats
    # it and the energy settles on a fixed point (stalls, after ~5500 steps);
    # just above it the charge crawls past the threshold and arrives.
    h = powersim.HarvesterModel.default_active()
    leak = powersim.LeakageCurve.default_without_startup()
    pr = powersim.min_startup_incident_power(leak, h) + dp_db
    assert h.harvested_power_w(pr) > 0.0
    c = powersim.Capacitor(1e-3)
    got = powersim.time_to_voltage(c, pr, h, leak)
    assert got == _ref_time_to_voltage(c, 1.8, pr, h, leak, 1e-3)
    assert math.isfinite(got) == (dp_db > 0)


def test_time_to_voltage_bit_exact_where_leakage_beats_harvest_from_empty():
    # a non-zero harvest below a flat leakage leaves an empty capacitor empty
    h = powersim.HarvesterModel.default_passive()
    leak = powersim.LeakageCurve.constant(1.0)
    c = powersim.Capacitor(22e-6)
    assert h.harvested_power_w(0.0) > 0.0
    assert powersim.time_to_voltage(c, 0.0, h, leak) == math.inf
    assert _ref_time_to_voltage(c, 1.8, 0.0, h, leak, 1e-3) == math.inf


def _assert_fsm_matches_oracle(
    cap_f, pr_dbm, harvest_tx, duration_s, leak=_CURVES["with_startup"], v0=0.0
):
    args = (
        powersim.ActiveNodeFSM(),
        powersim.Capacitor(cap_f, powersim.Capacitor(cap_f).energy_at(v0)),
        pr_dbm,
        powersim.HarvesterModel.default_active(),
        leak,
        duration_s,
    )
    got = powersim.run_active_fsm(*args, harvest_while_transmitting=harvest_tx)
    want = _ref_run_active_fsm(*args, 1e-3, harvest_tx)
    assert got.events == want.events
    assert (got.packets_sent, got.bytes_sent) == (want.packets_sent, want.bytes_sent)
    assert (got.harvested_j, got.consumed_j, got.initial_energy_j, got.final_energy_j) == (
        want.harvested_j,
        want.consumed_j,
        want.initial_energy_j,
        want.final_energy_j,
    )
    return got


@pytest.mark.parametrize(
    "cap_f, pr_dbm, harvest_tx",
    [
        (1e-3, 0.0, True),
        (1e-3, 0.0, False),
        (1e-3, 10.0, True),
        (1e-3, 10.0, False),
        (22e-6, 10.0, True),  # E(3.2 V) < E_boot: the boot clamps to zero and the node dies
    ],
)
def test_run_active_fsm_bit_exact_against_object_stepping(cap_f, pr_dbm, harvest_tx):
    got = _assert_fsm_matches_oracle(cap_f, pr_dbm, harvest_tx, 30.0)
    if cap_f == 22e-6:
        assert [kind for _, kind, _ in got.events] == ["start", "boot", "dead"]
        assert got.final_energy_j == 0.0
    else:
        assert got.packets_sent > 0


@pytest.mark.parametrize("harvest_tx", [True, False])
def test_run_active_fsm_bit_exact_when_the_run_ends_on_an_edge(harvest_tx):
    full = _assert_fsm_matches_oracle(1e-3, 10.0, harvest_tx, 30.0)
    t_boot = next(t for t, kind, _ in full.events if kind == "boot")
    # the run ends on the charge step that crosses V_START: the boot is logged
    got = _assert_fsm_matches_oracle(1e-3, 10.0, harvest_tx, t_boot)
    assert [kind for _, kind, _ in got.events] == ["start", "boot"]
    # the run ends half a packet into a transmit burst: that packet is not
    # sent, and no sleep the budget did not cause is logged after the run
    t_wake = next(t for t, kind, _ in full.events if kind == "wake")
    pt = powersim.ActiveNodeFSM.PACKET_TIME_S
    got = _assert_fsm_matches_oracle(1e-3, 10.0, harvest_tx, t_wake + 2.5 * pt)
    assert [kind for _, kind, _ in got.events][-3:] == ["wake", "packet", "packet"]
    assert got.events[-1][0] <= t_wake + 2.5 * pt


@pytest.mark.parametrize("pr_dbm", [0.0, 5.0, 10.0])
@pytest.mark.parametrize("harvest_tx", [True, False])
def test_run_active_fsm_cut_inside_a_burst_is_a_prefix_of_a_longer_run(pr_dbm, harvest_tx):
    def events(duration_s):
        return powersim.run_active_fsm(
            powersim.ActiveNodeFSM(),
            powersim.Capacitor(1e-3),
            pr_dbm,
            powersim.HarvesterModel.default_active(),
            powersim.LeakageCurve.default_with_startup(),
            duration_s,
            harvest_while_transmitting=harvest_tx,
        ).events

    full = events(30.0)
    kinds = [kind for _, kind, _ in full]
    # (wake time, last packet time) of every transmit burst the long run completes
    bursts = []
    for i, kind in enumerate(kinds):
        if kind == "wake" and "sleep" in kinds[i:]:
            bursts.append((full[i][0], full[kinds.index("sleep", i) - 1][0]))
    assert len(bursts) >= 4
    rng = np.random.default_rng(round(pr_dbm) * 2 + harvest_tx)
    for k in rng.choice(len(bursts), size=min(len(bursts), 20), replace=False):
        duration_s = rng.uniform(*bursts[k])
        got = events(duration_s)
        assert got == full[: len(got)], duration_s
        assert got[-1][0] <= duration_s


@pytest.mark.parametrize(
    "pr_dbm, leak, v0",
    [
        (-2.0, _CURVES["with_startup"], 0.0),  # cold charge above 1.8 V spans chunks; long sleeps
        (8.0, _CURVES["with_startup"], 0.0),  # short sleeps, many phases
        (0.0, _CURVES["one_point"], 0.0),  # one knot, flat everywhere: all charge steps coast
        # last knot above V_START: no charge or sleep step is ever flat
        (0.0, powersim.LeakageCurve(((0.0, 5e-8), (0.6, 1e-6), (3.5, 6.1e-5))), 0.0),
        # harvest (~0.5 mW) below the flat 1 mW leakage: no step gains, the node drains to 0
        (0.0, powersim.LeakageCurve.constant(1e-3), 3.0),
    ],
    ids=["-2dBm", "8dBm", "one-knot", "knot-above-v-start", "harvest-below-leakage"],
)
@pytest.mark.parametrize("harvest_tx", [True, False])
def test_run_active_fsm_bit_exact_where_the_leakage_is_flat(pr_dbm, leak, v0, harvest_tx):
    _assert_fsm_matches_oracle(1e-3, pr_dbm, harvest_tx, 30.0, leak, v0)


# ------------------------------------------------ constant-power stretches

def _scalar_coast(e, t, p_in, p_out, dt, cap, v_stop, t_stop, harvested, consumed):
    """powersim._coast's contract as a plain euler_step loop."""
    while t < t_stop:
        e1, got, used = powersim.euler_step(e, p_in, p_out, dt)
        if not (e1 > e and math.sqrt(2.0 * e1 / cap) < v_stop):
            break
        e, t = e1, t + dt
        harvested += got
        consumed += used
    return e, math.sqrt(2.0 * e / cap), t, harvested, consumed


def _assert_coast_matches_scalar(*args):
    """Compare bit for bit and return the end time, which counts the steps taken."""
    got, want = powersim._coast(*args), _scalar_coast(*args)
    assert _bits(got) == _bits(want)
    return got[2]


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


def _clear_low_bits(x, bits):
    """x with the low bits of its 53-bit mantissa cleared.  Adding such a
    step ties (half an ulp) in a binade further up, where it lasts longer."""
    f, p = math.frexp(x)
    return math.ldexp(math.floor(math.ldexp(f, 53 - bits)), p - 53 + bits)


def _below_a_power_of_two(step):
    """0 to 3 steps below a power of two, so the first steps cross a binade edge."""
    return st.tuples(st.integers(-45, 2), st.integers(0, 3)).map(
        lambda kj: max(0.0, 2.0 ** kj[0] - kj[1] * step)
    )


@given(st.data())
def test_coast_equals_the_scalar_loop(data):
    # stops on the voltage, the time or a step that gains nothing, whichever
    # comes first; the draws put ties, zero sums and binade edges within reach
    draw = data.draw
    cap, v_stop = draw(_log_uniform(-6.0, 0.0)), draw(st.floats(0.0, 10.0))
    bits = st.sampled_from([0, 8, 20, 40])
    p_in = draw(st.builds(_clear_low_bits, _log_uniform(-7.0, -1.0), bits))
    p_out = p_in * draw(st.floats(0.0, 1.2))
    dt = draw(st.builds(_clear_low_bits, st.floats(1e-5, 1e-3), bits))
    h, c = p_in * dt, p_out * dt
    e0 = draw(
        st.one_of(
            st.floats(0.0, 1.0).map(lambda f: 0.5 * cap * (f * v_stop) ** 2),
            st.floats(0.25, 4.0).map(lambda f: f * h),  # within x4 of a step's harvest
            _below_a_power_of_two(h),
        )
    )
    t0 = draw(st.one_of(st.floats(0.0, 100.0), _below_a_power_of_two(dt)))
    ledger = [st.one_of(st.just(0.0), st.floats(0.0, 1.0), _below_a_power_of_two(a)) for a in (h, c)]
    ledgers = draw(st.tuples(*ledger))
    n = draw(st.integers(0, 20_000))
    t_stop = t0 + n * dt
    if draw(st.booleans()):  # exactly where step n would start
        t_stop = t0
        for _ in range(n):
            t_stop += dt
    _assert_coast_matches_scalar(e0, t0, p_in, p_out, dt, cap, v_stop, t_stop, *ledgers)


_ULP_ABOVE_ONE = 2.0**-52


@pytest.mark.parametrize(
    "e0, t0, p_in, p_out, dt, cap, v_stop, n, ledgers",
    [
        (1e-3, 0.0, 1e-3, 1e-4, 1e-3, 1e-3, 1e3, 5000, (0.0, 0.0)),
        # an odd mantissa plus 2.5 ulps ties up to the even sum (3 ulps); then
        # every step adds 2 ulps
        (1.0 + _ULP_ABOVE_ONE, 0.0, 2.5 * _ULP_ABOVE_ONE, 0.0, 1.0, 2.0, 10.0, 1000, (0.0, 1.0)),
        (3.1e-9, 0.0, 1e-6, 1e-7, 1e-3, 1e-3, 3.0, 5000, (0.5, 0.25)),
        # the energy, the clock and both ledgers two steps below a power of two
        (2.0**-10 - 2 * 2.0**-20, 8.0 - 2 * 2.0**-10, 2.0**-10, 0.0, 2.0**-10, 1.0, 10.0, 3000,
         (2.0**-6 - 2 * 2.0**-20, 1.0)),
        (0.5 * 1e-3 * 1.8**2, 2.35, 3e-4, 6.1e-5, 1e-3, 1e-3, 3.2, 20_000, (7e-4, 2e-4)),
    ],
    ids=["zero-ledgers", "tie-at-an-odd-mantissa", "gain-within-x4-of-the-energy",
         "every-sum-at-a-binade-edge", "longer-than-4096-steps"],
)
@pytest.mark.parametrize("t_stop_on_a_step", [True, False])
def test_coast_edges_equal_the_scalar_loop(e0, t0, p_in, p_out, dt, cap, v_stop, n, ledgers, t_stop_on_a_step):
    t_stop = t0 + n * dt
    if t_stop_on_a_step:
        t_stop = t0
        for _ in range(n):
            t_stop += dt
    _assert_coast_matches_scalar(e0, t0, p_in, p_out, dt, cap, v_stop, t_stop, *ledgers)


def test_coast_lands_long_stretches_at_once(monkeypatch):
    # ~14 600 flat-leakage steps of the 1 mF active store from 1.8 V to 3.2 V:
    # only the steps at the binade edges of the four sums run one by one
    args = (0.5 * 1e-3 * 1.8**2, 2.35, 3e-4, 6.1e-5, 1e-3, 1e-3, 3.2, 60.0, 7e-4, 2e-4)
    want = _scalar_coast(*args)
    steps = []
    euler_step = powersim.euler_step
    monkeypatch.setattr(powersim, "euler_step", lambda *a: steps.append(a) or euler_step(*a))
    assert _bits(powersim._coast(*args)) == _bits(want)
    assert want[2] > 14.0 + args[1] and len(steps) < 20


_ULP_BELOW_ONE = 2.0**-53


@pytest.mark.parametrize(
    "e0, p_in, p_out, dt, cap, v_stop, want_steps",
    [
        (1e-3, 1e-3, 2e-3, 1e-3, 1.0, 10.0, 0),  # loses energy
        (1e-3, 1e-3, 1e-3, 1e-3, 1.0, 10.0, 0),  # breaks even
        (1e-3, 0.0, 0.0, 1e-3, 1.0, 10.0, 0),  # no power at all
        # each step adds one ulp below 1.0; from 1.0 on the increment rounds away
        (1.0 - 50 * _ULP_BELOW_ONE, 0.6 * _ULP_BELOW_ONE * 2**10, 0.0, 2.0**-10, 1.0, 10.0, 50),
        # e = k and v = sqrt(k) after k steps: the ninth ends exactly on v_stop, a crossing
        (0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 8),
    ],
    ids=["loses", "breaks-even", "no-power", "increment-rounds-away", "ends-on-v-stop"],
)
def test_coast_stops_before_each_event(e0, p_in, p_out, dt, cap, v_stop, want_steps):
    # dt is a power of two or no step is taken, so the end time is exactly want_steps * dt
    args = (e0, 0.0, p_in, p_out, dt, cap, v_stop, 9000 * dt, 0.0, 0.0)
    assert _assert_coast_matches_scalar(*args) == want_steps * dt


@pytest.mark.parametrize("extra", [-1, 0, 1, 4096])
def test_coast_stops_exactly_on_the_step_budget(extra):
    # dt is a power of two, so exactly n steps start before t_stop = n * dt
    n = 4096 + extra
    dt = 2.0**-10
    args = (1e-3, 0.0, 1e-3, 1e-4, dt, 1e-3, 1e3, n * dt, 0.0, 0.0)
    assert _assert_coast_matches_scalar(*args) == n * dt

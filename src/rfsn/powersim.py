"""Energy subsystem: harvester, storage capacitor, leakage, node state machines."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import dbm_to_w
from .errors import ConfigurationError

# Brown-out floor (volts): the MCU threshold every charge time is measured
# to, and the active node dies if its boot leaves it below this.
V_MIN = 1.8

# Euler step of run_active_fsm's charge and sleep phases.
FSM_DT_S = 1e-3

P_SLEEP_W = 36e-9  # deep-sleep draw of the passive (backscatter) node

DEFAULT_ACTIVE_CAP_F = 1e-3
DEFAULT_PASSIVE_CAP_F = 22e-6

# time_to_voltage declares a target unreachable after this many consecutive
# Euler steps without an energy gain.
STALL_STEPS = 1000

# Incident-power range (dBm) searched by min_startup_incident_power.
STARTUP_SEARCH_DBM = (-60.0, 40.0)

# Most Euler steps _coast runs in one numpy call group, which bounds its
# temporaries to a few hundred kB.
_COAST_STEPS = 4096


@dataclass(frozen=True)
class Capacitor:
    """Storage capacitor tracked by stored energy (E = C*V^2/2)."""

    capacitance_f: float
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ConfigurationError(f"capacitance must be positive, got {self.capacitance_f}")
        if self.energy_j < 0:
            raise ConfigurationError(f"stored energy cannot be negative, got {self.energy_j}")

    @property
    def v_volts(self) -> float:
        return math.sqrt(2.0 * self.energy_j / self.capacitance_f)

    def energy_at(self, v_volts: float) -> float:
        return 0.5 * self.capacitance_f * v_volts**2


def euler_step(
    e: float, p_in_w: float, p_out_w: float, dt_s: float
) -> tuple[float, float, float]:
    """One Euler step on stored energy E' = max(0, E + (p_in - p_out)*dt).

    Returns (energy_j, harvested_j, consumed_j).  The consumed ledger entry is
    the energy actually removed, which is less than p_out*dt when the
    capacitor bottoms out at zero.  The caller checks that dt is positive.
    """
    harvested = p_in_w * dt_s
    e_new = e + harvested - p_out_w * dt_s
    if e_new < 0.0:
        return 0.0, harvested, e + harvested
    return e_new, harvested, p_out_w * dt_s


@dataclass(frozen=True)
class HarvesterModel:
    """RF-to-DC conversion: piecewise-linear efficiency vs incident power (dBm).

    Below the first anchor the harvester is below sensitivity and delivers
    nothing; above the last anchor efficiency saturates.
    """

    efficiency_points: tuple[tuple[float, float], ...]
    sensitivity_dbm: float = -math.inf
    scale: float = 1.0

    def __post_init__(self) -> None:
        pts = self.efficiency_points
        if len(pts) < 2:
            raise ConfigurationError("efficiency curve needs at least two points")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ConfigurationError("efficiency curve abscissae must be strictly increasing")
        if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
            raise ConfigurationError("efficiency curve must be monotone non-decreasing")
        if any(not 0.0 <= eta <= 1.0 for _, eta in pts) or not 0.0 < self.scale <= 1.0 / max(
            eta for _, eta in pts
        ):
            raise ConfigurationError("scaled efficiency must stay within [0, 1]")

    @classmethod
    def default_active(cls) -> "HarvesterModel":
        # single published anchor (5 dBm, 0.60); the rest are calibration defaults
        return cls(((-10.0, 0.25), (0.0, 0.50), (5.0, 0.60), (10.0, 0.62)), -2.5)

    @classmethod
    def default_passive(cls) -> "HarvesterModel":
        return cls(
            (
                (-8.5, 0.045),
                (-6.0, 0.10),
                (-4.0, 0.17),
                (-2.0, 0.25),
                (0.0, 0.32),
                (5.0, 0.45),
                (10.0, 0.50),
            ),
            -8.5,
        )

    def with_scale(self, scale: float) -> "HarvesterModel":
        return HarvesterModel(self.efficiency_points, self.sensitivity_dbm, scale)

    def efficiency(self, pr_dbm: float) -> float:
        x = np.array([p for p, _ in self.efficiency_points])
        y = np.array([eta for _, eta in self.efficiency_points])
        if pr_dbm < self.sensitivity_dbm or pr_dbm < x[0]:
            return 0.0
        return self.scale * float(np.interp(pr_dbm, x, y))

    def harvested_power_w(self, pr_dbm: float) -> float:
        return self.efficiency(pr_dbm) * dbm_to_w(pr_dbm)


@dataclass(frozen=True)
class LeakageCurve:
    """Board leakage power vs capacitor voltage, log-linear between anchors.

    ``without_startup`` is the raw board including the always-on regulator
    path; ``with_startup`` adds the startup gate that isolates the load until
    the supervisor releases it, collapsing sub-threshold leakage.
    """

    points: tuple[tuple[float, float], ...]
    # knot table built once, since power_w runs on every Euler step: knot
    # voltages, log powers, powers exp(log power) and segment slopes
    _volts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _log_powers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _powers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # power_w is constant from this voltage up: the last knot, or -inf for one knot
    _flat_from: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 1:
            raise ConfigurationError("leakage curve needs at least one point")
        if not all(math.isfinite(v) and math.isfinite(p) for v, p in pts):
            raise ConfigurationError("leakage curve points must be finite")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ConfigurationError("leakage curve voltages must be strictly increasing")
        if any(p <= 0 for _, p in pts):
            raise ConfigurationError("leakage powers must be positive (log interpolation)")
        xs = tuple(float(v) for v, _ in pts)
        ys = tuple(float(lp) for lp in np.log([p for _, p in pts]))
        object.__setattr__(self, "_volts", xs)
        object.__setattr__(self, "_log_powers", ys)
        object.__setattr__(self, "_powers", tuple(float(np.exp(y)) for y in ys))
        object.__setattr__(
            self,
            "_slopes",
            tuple((ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)),
        )
        object.__setattr__(self, "_flat_from", xs[-1] if len(xs) > 1 else -math.inf)

    @classmethod
    def default_without_startup(cls) -> "LeakageCurve":
        return cls(((0.0, 1e-7), (0.6, 3.1e-6), (1.8, 2.1e-3)))

    @classmethod
    def default_with_startup(cls) -> "LeakageCurve":
        return cls(((0.0, 5e-8), (0.6, 1.0e-6), (1.8, 6.1e-5)))

    @classmethod
    def constant(cls, power_w: float) -> "LeakageCurve":
        return cls(((0.0, power_w),))

    def power_w(self, v_volts: float) -> float:
        """exp of ``np.interp(v_volts, knot volts, log powers)``, bit for bit.

        Follows numpy's rules: one knot gives its value (NaN included), ends
        clamp, an exact knot gives that knot's value, and between knots
        slope*(v - x_j) + y_j.  Only that last case and NaN compute an exp:
        np.exp, not math.exp, since the two differ in the last bit for some
        inputs, and np.exp quiets a signalling NaN.
        """
        xs = self._volts
        if len(xs) == 1 or v_volts <= xs[0]:
            return self._powers[0]
        if v_volts >= xs[-1]:
            return self._powers[-1]
        if v_volts != v_volts:
            return float(np.exp(v_volts))
        j = bisect.bisect_right(xs, v_volts) - 1
        if xs[j] == v_volts:
            return self._powers[j]
        return float(np.exp(self._slopes[j] * (v_volts - xs[j]) + self._log_powers[j]))


def _coast(e, t, p_in_w, p_out_w, dt_s, cap, v_stop, t_stop, harvested=0.0, consumed=0.0):
    """Take euler_step's steps at constant powers while each starts before t_stop,
    gains energy (so nothing clamps or stalls) and ends below v_stop.  Returns
    (e, v, t, harvested, consumed) after them.  np.add.accumulate adds left to right,
    so over [e, h, -c, h, -c, ...] each partial sum rounds as (e + h) - c does.
    """
    h, c = p_in_w * dt_s, p_out_w * dt_s
    while True:
        e1 = (e + h) - c
        if not (t < t_stop and e < e1 and math.sqrt(2.0 * e1 / cap) < v_stop):
            return e, math.sqrt(2.0 * e / cap), t, harvested, consumed
        # up to _COAST_STEPS steps, sized to end near the stop
        n = 2 + int(max(0.0, min(
            _COAST_STEPS - 2, (0.5 * cap * v_stop * v_stop - e) / (e1 - e), (t_stop - t) / dt_s
        )))
        inc = np.empty(2 * n + 1)
        inc[0], inc[1::2], inc[2::2] = e, h, -c
        run = np.full((n + 1, 3), (dt_s, h, c))
        run[0] = t, harvested, consumed
        es, run = np.add.accumulate(inc)[::2], np.add.accumulate(run)  # run: t and the ledgers
        ok = (run[:-1, 0] < t_stop) & (es[:-1] < es[1:]) & (np.sqrt(2.0 * es[1:] / cap) < v_stop)
        k = int(np.argmin(np.append(ok, False)))
        e, (t, harvested, consumed) = float(es[k]), run[k].tolist()


def time_to_voltage(
    c: Capacitor,
    pr_dbm: float,
    harvester: HarvesterModel,
    leakage: LeakageCurve,
    dt_s: float = 1e-3,
) -> float:
    """Seconds to charge to V_MIN at constant incident power; inf if never.

    Forward-Euler on stored energy with dt <= 1 ms.  A run of STALL_STEPS
    consecutive steps with no energy gain declares the target unreachable.  A
    step that leaves the energy unchanged declares it at once: every later
    step repeats it, so that run is bound to come.  Where the leakage is flat,
    steps that gain and end below V_MIN run in _coast.
    """
    if dt_s > 1e-3 or dt_s <= 0:
        raise ConfigurationError("dt must lie in (0, 1e-3] s")
    p_in = harvester.harvested_power_w(pr_dbm)
    cap = c.capacitance_f
    e = c.energy_j
    v = c.v_volts
    t = 0.0
    stalled = 0
    v_min, v_flat, leak_w = V_MIN, leakage._flat_from, leakage.power_w
    euler, sqrt = euler_step, math.sqrt
    while v < v_min:
        e_next = euler(e, p_in, leak_w(v), dt_s)[0]
        stalled = stalled + 1 if e_next <= e else 0
        if e_next == e or stalled >= STALL_STEPS:
            return math.inf
        e = e_next
        v = sqrt(2.0 * e / cap)  # as Capacitor.v_volts
        t += dt_s
        if v >= v_flat:
            # stalled stays right: a coast takes steps only after a gaining step,
            # since (e + h) - c is monotone in e at fixed h and c
            e, v, t = _coast(e, t, p_in, leak_w(v), dt_s, cap, v_min, math.inf)[:3]
    return t


def min_startup_incident_power(leak: LeakageCurve, h: HarvesterModel) -> float:
    """Smallest incident power whose harvest beats leakage everywhere below V_MIN.

    Leakage is sampled at 257 voltages spanning [0, V_MIN].  Returns math.inf
    when no power level in STARTUP_SEARCH_DBM suffices.
    """
    need = max(leak.power_w(float(v)) for v in np.linspace(0.0, V_MIN, 257))
    lo_dbm, hi_dbm = STARTUP_SEARCH_DBM
    if h.harvested_power_w(hi_dbm) <= need:
        return math.inf
    for _ in range(60):
        mid = 0.5 * (lo_dbm + hi_dbm)
        if h.harvested_power_w(mid) > need:
            hi_dbm = mid
        else:
            lo_dbm = mid
    return hi_dbm


class ActiveNodeFSM:
    """Thresholds and per-event energy costs of the actively transmitting node.

    A boot that leaves the node below the module's V_MIN kills it.
    """

    V_START = 3.2  # cold-start boot voltage
    V_WAKE = 2.6  # wake from sleep and resume transmitting
    V_SLEEP = 2.3  # stop transmitting, go back to sleep
    E_BOOT_J = 1.68e-3  # radio + stack bring-up cost
    E_PACKET_J = 177e-6  # one 105-byte MSDU transmission
    MSDU_BYTES = 105
    PACKET_TIME_S = 1e-3


@dataclass
class SimTrace:
    """Event log plus an energy ledger for conservation checks."""

    events: list[tuple[float, str, float]] = field(default_factory=list)
    packets_sent: int = 0
    bytes_sent: int = 0
    harvested_j: float = 0.0
    consumed_j: float = 0.0
    initial_energy_j: float = 0.0
    final_energy_j: float = 0.0

    def log(self, t: float, kind: str, v: float) -> None:
        self.events.append((t, kind, v))

    def energy_residual_j(self) -> float:
        return (self.final_energy_j - self.initial_energy_j) - (
            self.harvested_j - self.consumed_j
        )


COLD, TRANSMITTING, SLEEPING = "cold", "transmitting", "sleeping"


def run_active_fsm(
    fsm: ActiveNodeFSM,
    c: Capacitor,
    pr_dbm: float,
    h: HarvesterModel,
    leak: LeakageCurve,
    duration_s: float = 60.0,
    *,
    harvest_while_transmitting: bool = True,
) -> SimTrace:
    """Duty-cycle simulation of the active node at constant incident power.

    Cold-charges to fsm.V_START, pays the boot cost, then alternates transmit
    bursts (packets sent back-to-back while the budget allows dropping no
    lower than fsm.V_SLEEP) with recharge sleeps up to fsm.V_WAKE.  Charge and
    sleep steps last FSM_DT_S, packet steps fsm.PACKET_TIME_S; where the leakage
    is flat, the charge and sleep steps that cause no event run in _coast.
    """
    p_in = h.harvested_power_w(pr_dbm)
    pin_tx = p_in if harvest_while_transmitting else 0.0
    pt, e_packet, e_boot = fsm.PACKET_TIME_S, fsm.E_PACKET_J, fsm.E_BOOT_J
    v_wake, v_min = fsm.V_WAKE, V_MIN
    dt = FSM_DT_S
    cap = c.capacitance_f
    e = c.energy_j
    v = c.v_volts
    trace = SimTrace(initial_energy_j=e)
    harvested = consumed = 0.0
    state = COLD
    t = 0.0
    trace.log(t, "start", v)
    e_sleep = c.energy_at(fsm.V_SLEEP)
    v_up = fsm.V_START  # the threshold that ends a charge: V_START cold, V_WAKE after boot
    leak_w, euler, sqrt, v_flat = leak.power_w, euler_step, math.sqrt, leak._flat_from

    # e is the stored energy and v = sqrt(2e/C) its voltage, as Capacitor.v_volts
    while t < duration_s:
        p_step, p_out, step, event = p_in, leak_w(v), dt, None
        if state == TRANSMITTING:
            drain = p_out * pt + e_packet
            if e + pin_tx * pt - drain >= e_sleep and t + pt <= duration_s:
                p_step, p_out, step, event = pin_tx, drain / pt, pt, "packet"
            else:
                # the first recharge step comes before the log, so every
                # event timestamp is strictly later than the last packet's
                state, event = SLEEPING, "sleep"
        e, got, used = euler(e, p_step, p_out, step)
        v = sqrt(2.0 * e / cap)
        harvested += got
        consumed += used
        t += step
        if event is not None:
            if event == "packet":
                trace.packets_sent += 1
            trace.log(t, event, v)
        elif v >= v_up:
            if state == COLD:
                # boot is an impulse: the whole bring-up cost at once
                e, got, used = euler(e, 0.0, e_boot / dt, dt)
                v = sqrt(2.0 * e / cap)
                harvested += got
                consumed += used
                trace.log(t, "boot", v)
                if v < v_min:
                    trace.log(t + dt, "dead", v)
                    break
                v_up = v_wake
            else:
                trace.log(t, "wake", v)
            state = TRANSMITTING
        if state != TRANSMITTING and v >= v_flat:
            e, v, t, harvested, consumed = _coast(
                e, t, p_in, leak_w(v), dt, cap, v_up, duration_s, harvested, consumed
            )

    trace.bytes_sent = trace.packets_sent * fsm.MSDU_BYTES
    trace.harvested_j = harvested
    trace.consumed_j = consumed
    trace.final_energy_j = e
    return trace


# Measured operating power of the backscatter front end, keyed by
# (fosc_hz, supply_volts).
PASSIVE_OP_POWER_TABLE_W: dict[tuple[float, float], float] = {
    (32768.0, 1.8): 9.3e-6,
    (1e6, 1.8): 392e-6,
    (2e6, 1.8): 418e-6,
    (4e6, 1.8): 470e-6,
    (32768.0, 3.0): 26.3e-6,
    (1e6, 3.0): 850e-6,
    (2e6, 3.0): 934e-6,
    (4e6, 3.0): 1098e-6,
}


@dataclass(frozen=True)
class PassiveSteadyState:
    p_harvest_w: float
    p_op_w: float
    margin_w: float
    duty_cycle: float
    sustainable: bool


def passive_steady_state(
    fosc_hz: float, vdd_volts: float, pr_dbm: float, h: HarvesterModel
) -> PassiveSteadyState:
    """Harvest-vs-draw budget for the backscatter node at one clock/supply point.

    The draw is the measured PASSIVE_OP_POWER_TABLE_W entry, with a P_SLEEP_W
    floor between active bursts.
    """
    key = (fosc_hz, vdd_volts)
    if key not in PASSIVE_OP_POWER_TABLE_W:
        raise ConfigurationError(
            f"no measured operating power for fosc={fosc_hz} Hz at {vdd_volts} V; "
            f"known points: {sorted(PASSIVE_OP_POWER_TABLE_W)}"
        )
    p_h = h.harvested_power_w(pr_dbm)
    p_op = PASSIVE_OP_POWER_TABLE_W[key]
    if p_h <= P_SLEEP_W:
        duty = 0.0
    else:
        duty = min(1.0, (p_h - P_SLEEP_W) / (p_op - P_SLEEP_W))
    return PassiveSteadyState(p_h, p_op, p_h - p_op, duty, sustainable=p_h >= p_op)

"""Energy subsystem: harvester, storage capacitor, leakage, node state machines."""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import dbm_to_w
from .errors import ConfigurationError

# Active-node supervisor thresholds (volts).
V_START = 3.2  # cold-start boot voltage
V_WAKE = 2.6  # wake from sleep and resume transmitting
V_SLEEP = 2.3  # stop transmitting, go back to sleep
V_MIN = 1.8  # brown-out floor; dying below this during boot is fatal

E_BOOT_J = 1.68e-3  # radio + stack bring-up cost
E_PACKET_J = 177e-6  # one 105-byte MSDU transmission
MSDU_BYTES = 105
PACKET_TIME_S = 1e-3

P_SLEEP_W = 36e-9  # deep-sleep draw of the passive (backscatter) node

DEFAULT_ACTIVE_CAP_F = 1e-3
DEFAULT_PASSIVE_CAP_F = 22e-6

# time_to_voltage declares a target unreachable after this many consecutive
# Euler steps without an energy gain.
STALL_STEPS = 1000

# Incident-power range (dBm) searched by min_startup_incident_power.
STARTUP_SEARCH_DBM = (-60.0, 40.0)


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

    @classmethod
    def at_voltage(cls, capacitance_f: float, v_volts: float) -> "Capacitor":
        return cls(capacitance_f, 0.5 * capacitance_f * v_volts**2)

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


def _interp(x: float, xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    """Scalar ``np.interp(x, xs, ys)`` in plain Python, bit for bit.

    Follows numpy's own rules: one knot gives its value (NaN included), ends
    clamp, an exact knot gives that knot's value, and between knots
    slope*(x - x_j) + y_j with the slope computed first.
    """
    if len(xs) == 1 or x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    if x != x:
        return x
    j = bisect.bisect_right(xs, x) - 1
    if xs[j] == x:
        return ys[j]
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + ys[j]


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
    variant: str = "custom"
    # knot voltages and log powers built once: power_w runs on every Euler step
    _volts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _log_powers: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_volts", tuple(float(v) for v, _ in pts))
        object.__setattr__(
            self, "_log_powers", tuple(float(lp) for lp in np.log([p for _, p in pts]))
        )

    @classmethod
    def default_without_startup(cls) -> "LeakageCurve":
        return cls(((0.0, 1e-7), (0.6, 3.1e-6), (1.8, 2.1e-3)), "without_startup")

    @classmethod
    def default_with_startup(cls) -> "LeakageCurve":
        return cls(((0.0, 5e-8), (0.6, 1.0e-6), (1.8, 6.1e-5)), "with_startup")

    @classmethod
    def constant(cls, power_w: float, variant: str = "constant") -> "LeakageCurve":
        return cls(((0.0, power_w),), variant)

    def power_w(self, v_volts: float) -> float:
        # np.exp, not math.exp: the two differ in the last bit for some inputs
        return float(np.exp(_interp(v_volts, self._volts, self._log_powers)))

    def max_power_below(self, v_volts: float) -> float:
        grid = np.linspace(0.0, v_volts, 257)
        return max(self.power_w(float(v)) for v in grid)


def time_to_voltage(
    c: Capacitor,
    v_target: float,
    pr_dbm: float,
    harvester: HarvesterModel,
    leakage: LeakageCurve,
    dt_s: float = 1e-3,
) -> float:
    """Seconds to charge to v_target at constant incident power; inf if never.

    Forward-Euler on stored energy with dt <= 1 ms.  A run of STALL_STEPS
    consecutive steps with no energy gain declares the target unreachable.
    """
    if dt_s > 1e-3 or dt_s <= 0:
        raise ConfigurationError("dt must lie in (0, 1e-3] s")
    p_in = harvester.harvested_power_w(pr_dbm)
    cap = c.capacitance_f
    e = c.energy_j
    v = c.v_volts
    t = 0.0
    stalled = 0
    while v < v_target:
        e_next = euler_step(e, p_in, leakage.power_w(v), dt_s)[0]
        stalled = stalled + 1 if e_next <= e else 0
        if stalled >= STALL_STEPS:
            return math.inf
        e = e_next
        v = math.sqrt(2.0 * e / cap)  # as Capacitor.v_volts
        t += dt_s
    return t


def min_startup_incident_power(leak: LeakageCurve, h: HarvesterModel) -> float:
    """Smallest incident power whose harvest beats leakage everywhere below V_MIN.

    Returns math.inf when no power level in STARTUP_SEARCH_DBM suffices.
    """
    need = leak.max_power_below(V_MIN)
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


@dataclass(frozen=True)
class ActiveNodeFSM:
    """Thresholds and per-event energy costs of the actively transmitting node."""

    v_start: float = V_START
    v_wake: float = V_WAKE
    v_sleep: float = V_SLEEP
    v_min: float = V_MIN
    e_boot_j: float = E_BOOT_J
    e_packet_j: float = E_PACKET_J
    msdu_bytes: int = MSDU_BYTES
    packet_time_s: float = PACKET_TIME_S

    def __post_init__(self) -> None:
        if not self.v_min < self.v_sleep < self.v_wake < self.v_start:
            raise ConfigurationError(
                "thresholds must satisfy v_min < v_sleep < v_wake < v_start"
            )
        if min(self.e_boot_j, self.e_packet_j, self.packet_time_s) <= 0:
            raise ConfigurationError("energy costs and packet time must be positive")


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

    def to_csv(self, path) -> None:
        # every packet of one run carries the same MSDU
        packet_bytes = self.bytes_sent // self.packets_sent if self.packets_sent else 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t_s", "event", "v", "packets_cum", "bytes_cum"])
            packets = 0
            for t, kind, v in self.events:
                if kind == "packet":
                    packets += 1
                w.writerow([repr(t), kind, repr(v), packets, packets * packet_bytes])


COLD, BOOTING, TRANSMITTING, SLEEPING, DEAD = "cold", "booting", "transmitting", "sleeping", "dead"


def run_active_fsm(
    fsm: ActiveNodeFSM,
    c: Capacitor,
    pr_dbm: float,
    h: HarvesterModel,
    leak: LeakageCurve,
    duration_s: float = 60.0,
    dt_s: float = 1e-3,
    harvest_while_transmitting: bool = True,
) -> SimTrace:
    """Duty-cycle simulation of the active node at constant incident power.

    Cold-charges to v_start, pays the boot cost, then alternates transmit
    bursts (packets sent back-to-back while the budget allows dropping no
    lower than v_sleep) with recharge sleeps up to v_wake.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt must be positive")
    p_in = h.harvested_power_w(pr_dbm)
    cap = c.capacitance_f
    e = c.energy_j
    v = c.v_volts
    trace = SimTrace(initial_energy_j=e)
    harvested = consumed = 0.0
    state = COLD
    t = 0.0
    trace.log(t, "start", v)
    e_sleep = c.energy_at(fsm.v_sleep)

    # e is the stored energy and v = sqrt(2e/C) its voltage, as Capacitor.v_volts
    while t < duration_s and state != DEAD:
        if state in (COLD, SLEEPING):
            e, got, used = euler_step(e, p_in, leak.power_w(v), dt_s)
            v = math.sqrt(2.0 * e / cap)
            harvested += got
            consumed += used
            t += dt_s
            threshold = fsm.v_start if state == COLD else fsm.v_wake
            if v >= threshold:
                if state == COLD:
                    # boot is an impulse: the whole bring-up cost at once
                    e, got, used = euler_step(e, 0.0, fsm.e_boot_j / dt_s, dt_s)
                    v = math.sqrt(2.0 * e / cap)
                    harvested += got
                    consumed += used
                    trace.log(t, "boot", v)
                    if v < fsm.v_min:
                        state = DEAD
                        t += dt_s
                        trace.log(t, "dead", v)
                        continue
                else:
                    trace.log(t, "wake", v)
                state = TRANSMITTING
        elif state == TRANSMITTING:
            pin_tx = p_in if harvest_while_transmitting else 0.0
            pt = fsm.packet_time_s
            gain = pin_tx * pt
            drain = leak.power_w(v) * pt + fsm.e_packet_j
            if e + gain - drain >= e_sleep and t + pt <= duration_s:
                e, got, used = euler_step(e, pin_tx, drain / pt, pt)
                v = math.sqrt(2.0 * e / cap)
                harvested += got
                consumed += used
                t += pt
                trace.packets_sent += 1
                trace.bytes_sent += fsm.msdu_bytes
                trace.log(t, "packet", v)
            else:
                # take the first recharge step before logging so every event
                # timestamp is strictly later than the last packet's
                state = SLEEPING
                e, got, used = euler_step(e, p_in, leak.power_w(v), dt_s)
                v = math.sqrt(2.0 * e / cap)
                harvested += got
                consumed += used
                t += dt_s
                trace.log(t, "sleep", v)

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
class PassiveNodeModel:
    """Power model of the backscatter node: measured operating draw + sleep floor."""

    p_op_by_clock: dict[tuple[float, float], float] = field(
        default_factory=lambda: dict(PASSIVE_OP_POWER_TABLE_W)
    )
    p_sleep_w: float = P_SLEEP_W

    def __post_init__(self) -> None:
        for vdd in {k[1] for k in self.p_op_by_clock}:
            col = sorted((f, p) for (f, v), p in self.p_op_by_clock.items() if v == vdd)
            if any(b[1] <= a[1] for a, b in zip(col, col[1:])):
                raise ConfigurationError(
                    f"operating power must increase with fosc at {vdd} V"
                )

    def operating_power_w(self, fosc_hz: float, vdd_volts: float) -> float:
        key = (fosc_hz, vdd_volts)
        if key not in self.p_op_by_clock:
            raise ConfigurationError(
                f"no measured operating power for fosc={fosc_hz} Hz at {vdd_volts} V; "
                f"known points: {sorted(self.p_op_by_clock)}"
            )
        return self.p_op_by_clock[key]


@dataclass(frozen=True)
class PassiveSteadyState:
    p_harvest_w: float
    p_op_w: float
    margin_w: float
    duty_cycle: float
    sustainable: bool


def passive_steady_state(
    pm: PassiveNodeModel,
    fosc_hz: float,
    vdd_volts: float,
    pr_dbm: float,
    h: HarvesterModel,
) -> PassiveSteadyState:
    """Harvest-vs-draw budget for the backscatter node at one clock/supply point."""
    p_h = h.harvested_power_w(pr_dbm)
    p_op = pm.operating_power_w(fosc_hz, vdd_volts)
    if p_h <= pm.p_sleep_w:
        duty = 0.0
    else:
        duty = min(1.0, (p_h - pm.p_sleep_w) / (p_op - pm.p_sleep_w))
    return PassiveSteadyState(p_h, p_op, p_h - p_op, duty, sustainable=p_h >= p_op)

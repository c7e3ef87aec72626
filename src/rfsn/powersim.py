"""Energy subsystem: harvester, storage capacitor, leakage, node state machines."""

from __future__ import annotations

import bisect
import math
import sys
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

# A positive normal float x is m ulps of its binade [2^p, 2^(p+1)), with
# 2^52 <= m < 2^53.  _grid keeps each sum's m within [_M_LO, _M_HI], so
# that no exact sum comes within half an ulp of a binade edge.
_M_LO, _M_HI = 2.0**52 + 1.0, 2.0**53 - 1.0
_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class Capacitor:
    """Storage capacitor tracked by stored energy (E = C*V^2/2)."""

    capacitance_f: float
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.capacitance_f < math.inf:
            what = "positive" if self.capacitance_f <= 0 else "finite"
            raise ConfigurationError(f"capacitance must be {what}, got {self.capacitance_f}")
        if not 0 <= self.energy_j < math.inf:
            raise ConfigurationError(f"stored energy must be finite and >= 0, got {self.energy_j}")

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
    # knot table built once, as np.interp reads it
    _dbm: np.ndarray = field(init=False, repr=False, compare=False)
    _eta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = self.efficiency_points
        if len(pts) < 2:
            raise ConfigurationError("efficiency curve needs at least two points")
        # -inf, the default sensitivity, means no floor
        if not (np.isfinite(pts).all() and self.sensitivity_dbm < math.inf):
            raise ConfigurationError("efficiency knots must be finite, and sensitivity_dbm finite or -inf")
        if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
            raise ConfigurationError("efficiency curve abscissae must be strictly increasing")
        if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
            raise ConfigurationError("efficiency curve must be monotone non-decreasing")
        top = max(eta for _, eta in pts)
        if any(not 0.0 <= eta <= 1.0 for _, eta in pts) or not (
            top > 0.0 and 0.0 < self.scale <= 1.0 / top
        ):
            raise ConfigurationError("scaled efficiency must stay within [0, 1] and exceed 0 somewhere")
        object.__setattr__(self, "_dbm", np.array([p for p, _ in pts]))
        object.__setattr__(self, "_eta", np.array([eta for _, eta in pts]))

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

    def efficiency(self, pr_dbm: float) -> float:
        if pr_dbm < self.sensitivity_dbm or pr_dbm < self.efficiency_points[0][0]:
            return 0.0
        return self.scale * float(np.interp(pr_dbm, self._dbm, self._eta))

    def harvested_power_w(self, pr_dbm: float) -> float:
        # nan would give a nan power and +inf an infinite one; -inf harvests nothing
        if not pr_dbm < math.inf:
            raise ConfigurationError(f"incident power pr_dbm must be finite or -inf, got {pr_dbm}")
        return self.efficiency(pr_dbm) * dbm_to_w(pr_dbm)


@dataclass(frozen=True)
class LeakageCurve:
    """Board leakage power vs capacitor voltage, log-linear between anchors.

    ``without_startup`` is the raw board including the always-on regulator
    path; ``with_startup`` adds the startup gate that isolates the load until
    the supervisor releases it, collapsing sub-threshold leakage.
    """

    points: tuple[tuple[float, float], ...]
    # knot table built once, since the charge loops step through it: knot
    # voltages, log powers, powers exp(log power) and segment slopes
    _volts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _log_powers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _powers: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        """exp of ``np.interp(v_volts, knot volts, log powers)``, bit for bit:
        one knot gives its value (NaN included), else NaN gives NaN and the
        knot segment holding v_volts decides."""
        if v_volts != v_volts and len(self._volts) > 1:
            return float(np.exp(v_volts))  # np.exp quiets a signalling NaN
        lo, _, rule = self._segment(v_volts)
        return _segment_power(v_volts, lo, *rule)

    def _segment(self, v_volts: float) -> tuple[float, float, tuple]:
        """(lo, hi, (p, slope, y)): the knot segment lo <= v_volts < hi and
        its _segment_power rule.  Past the end knots (everywhere for one knot)
        slope is None; between knots, lo is the lower one and p, y its power
        and log power."""
        xs, ps = self._volts, self._powers
        j = bisect.bisect_right(xs, v_volts) - 1 if len(xs) > 1 else 0
        if j < 0:
            return -math.inf, xs[0], (ps[0], None, 0.0)
        if j == len(xs) - 1:
            return xs[-1] if j else -math.inf, math.inf, (ps[-1], None, 0.0)
        return xs[j], xs[j + 1], (ps[j], self._slopes[j], self._log_powers[j])


def _segment_power(v, lo, p, slope, y):
    """Leakage power at v on a knot segment: p where it is flat or at its
    knot lo, else exp of the interpolated log power, by np.exp, since
    math.exp differs from it in the last bit for some inputs."""
    return p if slope is None or v == lo else float(np.exp(slope * (v - lo) + y))


def _grid(x, a, b):
    """(m, k, u, n): the running sum x <- (x + a) - b, a and b >= 0, adds
    exactly k ulps u on each of its next n steps (n inf for k = 0), with
    x = m*u; None where that is not shown.

    Inside x's binade, adding a rounds to the whole number of ulps nearest
    a/u, and at a tie (a/u half an integer) to the even sum; subtracting b
    likewise.  So the first step, taken in floats, repeats while no exact sum
    leaves the binade, if it met no tie or added an even k (which keeps every
    parity).  None for a zero or subnormal x, a falling sum, a first step
    that leaves the binade, or an odd k after a tie.
    """
    if not x >= _NORMAL:
        return None
    u = math.ulp(x)
    s = x + a
    y = s - b
    m, ka, k = x / u, (s - x) / u, (y - x) / u
    if k < 0 or m + ka > _M_HI or (b and m + k < _M_LO):
        return None
    if k % 2 and 0.5 * u in (abs(a - (s - x)), abs(b - (s - y))):
        return None
    return m, k, u, (_M_HI - ka - m) // k + 1 if k else math.inf


def _last(ok, hi, guess):
    """Largest j in [0, hi] with ok(j), ok holding for 1..j and failing above:
    a bisection whose first probes bracket the guess."""
    lo, g = 0, int(min(hi, max(0.0, guess)))
    for j in (g, g + 1, g - 1, g + 2):
        if lo < j <= hi:
            lo, hi = (j, hi) if ok(j) else (lo, j - 1)
    while lo < hi:
        j = (lo + hi + 1) // 2
        lo, hi = (j, hi) if ok(j) else (lo, j - 1)
    return lo


def _run(x, a, n, stop=math.inf):
    """(x, j) after j <= n steps of x <- x + a (a >= 0), stopping before a
    step that would start at or above stop.  The steps inside a binade land
    at once (_grid), their count below stop exact in integers, since stop/u
    is one from 2^52 up; the others run in floats, as does the step after a
    binade's last, which leaves it."""
    j = 0
    while j < n and x < stop:
        g = _grid(x, a, 0.0)
        if g:
            m, k, u, room = g
            s = stop / u
            below = -((m - s) // k) if k and s < 2.0**53 else math.inf
            take = int(min(n - j, room, below))
            x = (m + take * k) * u
            j += take
            if not (j < n and x < stop):
                break
        x += a
        j += 1
    return x, j


def _coast(e, t, p_in_w, p_out_w, dt_s, cap, v_stop, t_stop, harvested, consumed):
    """Take euler_step's steps at constant powers while each starts before t_stop,
    gains energy (so nothing clamps or stalls) and ends below v_stop.  Returns
    (e, v, t, harvested, consumed) after them, the two ledgers summed.

    The energy (e + h) - c grows by a fixed number of ulps a step inside its
    binade (_grid).  The voltage test is monotone in the step, so its last
    pass is bisected on the float expression the step would test; the clock,
    which stops the steps at t_stop, follows in _run.  Other steps run as
    euler_step.  No step clamps, so each adds h and c to the ledgers, which
    take all of them in one _run at the end.
    """
    h, c = p_in_w * dt_s, p_out_w * dt_s
    taken = 0
    while True:
        g = _grid(e, h, c)
        if g and g[1]:
            me, ke, ue, room = g
            steps = int(room)
            if not math.sqrt(2.0 * ((me + steps * ke) * ue) / cap) < v_stop:
                steps = _last(
                    lambda j: math.sqrt(2.0 * ((me + j * ke) * ue) / cap) < v_stop,
                    steps,
                    (0.5 * cap * v_stop * v_stop / ue - me) / ke,
                )
            t, steps = _run(t, dt_s, steps, t_stop)
            e = (me + steps * ke) * ue
            taken += steps
            if steps < room:
                break
        e1 = euler_step(e, p_in_w, p_out_w, dt_s)[0]
        if not (t < t_stop and e < e1 and math.sqrt(2.0 * e1 / cap) < v_stop):
            break
        e, t = e1, t + dt_s
        taken += 1
    harvested, consumed = _run(harvested, h, taken)[0], _run(consumed, c, taken)[0]
    return e, math.sqrt(2.0 * e / cap), t, harvested, consumed


def _charge(e, t, p_in, leak, dt, cap, v_stop, t_stop, harvested, consumed, stall=False):
    """Euler-step the stored energy e from time t at harvest p_in under leak
    until the voltage reaches v_stop or a step would start at t_stop or later,
    taking at least one step.  Returns (e, v, t, harvested, consumed), the two
    ledgers summed.  With stall, t is inf when a step leaves the energy
    unchanged (every later step repeats it) or STALL_STEPS steps in a row gain
    nothing.  Where the leakage is flat, _coast takes the steps that gain and
    end below v_stop."""
    euler, sqrt, inf = euler_step, math.sqrt, math.inf
    v = sqrt(2.0 * e / cap)  # as Capacitor.v_volts
    lo = hi = math.nan  # the knot segment of v, looked up again when v leaves it
    stalled = 0
    while t < t_stop:
        if not lo <= v < hi:
            lo, hi, (p, slope, y) = leak._segment(v)
        p_out = _segment_power(v, lo, p, slope, y)
        if hi == inf:
            e0 = e
            e, v, t, harvested, consumed = _coast(
                e, t, p_in, p_out, dt, cap, v_stop, t_stop, harvested, consumed
            )
            if e != e0:
                stalled = 0
            if not t < t_stop:
                break
        e_next, got, used = euler(e, p_in, p_out, dt)
        if stall:
            stalled = stalled + 1 if e_next <= e else 0
            if e_next == e or stalled >= STALL_STEPS:
                return e, v, inf, harvested, consumed
        e = e_next
        v = sqrt(2.0 * e / cap)
        t += dt
        harvested += got
        consumed += used
        if v >= v_stop:
            break
    return e, v, t, harvested, consumed


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
    step repeats it, so that run is bound to come.
    """
    if not 0 < dt_s <= 1e-3:
        raise ConfigurationError("dt must lie in (0, 1e-3] s")
    if c.v_volts >= V_MIN:
        return 0.0
    p_in = harvester.harvested_power_w(pr_dbm)
    return _charge(
        c.energy_j, 0.0, p_in, leakage, dt_s, c.capacitance_f, V_MIN, math.inf, 0.0, 0.0, stall=True
    )[2]


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
    sleep steps last FSM_DT_S and run in _charge, packet steps
    fsm.PACKET_TIME_S.  A run that ends inside a transmit burst ends with the
    last packet that fits before duration_s, which must be finite and >= 0.
    """
    if not 0 <= duration_s < math.inf:
        raise ConfigurationError(f"duration_s must be finite and >= 0, got {duration_s}")
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
    leak_w, euler, sqrt = leak.power_w, euler_step, math.sqrt

    # e is the stored energy and v = sqrt(2e/C) its voltage, as Capacitor.v_volts
    while t < duration_s:
        if state != TRANSMITTING:
            e, v, t, harvested, consumed = _charge(
                e, t, p_in, leak, dt, cap, v_up, duration_s, harvested, consumed
            )
            if v < v_up:
                break  # the run ended first
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
            continue
        p_out = leak_w(v)
        drain = p_out * pt + e_packet
        if e + pin_tx * pt - drain >= e_sleep:
            if t + pt > duration_s:
                break  # the budget allows the packet, the run's end does not
            p_step, p_out, step, event = pin_tx, drain / pt, pt, "packet"
            trace.packets_sent += 1
        else:
            # the first recharge step comes before the log, so every event
            # timestamp is strictly later than the last packet's
            p_step, step, event, state = p_in, dt, "sleep", SLEEPING
        e, got, used = euler(e, p_step, p_out, step)
        v = sqrt(2.0 * e / cap)
        harvested += got
        consumed += used
        t += step
        trace.log(t, event, v)

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

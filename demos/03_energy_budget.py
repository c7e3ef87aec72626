"""Energy subsystem walkthrough: cold-start charging, the wake/transmit/sleep
state machine, and the passive-mode duty-cycle budget.

Run with:  python3 demos/03_energy_budget.py
"""

from rfsn import powersim

# --- Cold start: how long until the boost converter can start? -------------
h = powersim.HarvesterModel.default_active()
leak = powersim.LeakageCurve.default_without_startup()
p_min = powersim.min_startup_incident_power(leak, h)
print("minimum incident power for cold start: %.2f dBm" % p_min)

cap = powersim.Capacitor(powersim.DEFAULT_ACTIVE_CAP_F)
t = powersim.time_to_voltage(cap, p_min + 1.0, h, leak, dt_s=1e-3)
print("charge to %.1f V at %.1f dBm: %.1f s"
      % (powersim.V_MIN, p_min + 1.0, t))

# --- Duty cycling: packets per wake window ---------------------------------
# Above 3.2 V the node boots, transmits 177 uJ packets down to 2.3 V, then
# sleeps until the cap recovers. With no harvesting during transmit, the
# 2.6 -> 2.3 V energy window holds exactly four packets.
trace = powersim.run_active_fsm(
    powersim.ActiveNodeFSM(), powersim.Capacitor(1e-3),
    10.0, h, powersim.LeakageCurve.default_with_startup(),
    duration_s=60.0, harvest_while_transmitting=False)
sleeps = sum(1 for _, kind, _ in trace.events if kind == "sleep")
window_j = powersim.Capacitor(1e-3).energy_at(2.6) - powersim.Capacitor(1e-3).energy_at(2.3)
e_packet = powersim.ActiveNodeFSM.E_PACKET_J
print("\n2.6 -> 2.3 V window holds %.0f packets of %.0f uJ each"
      % (window_j / e_packet, e_packet * 1e6))
print("\n60 s at +10 dBm: %d packets (%d bytes) in %d wake windows"
      % (trace.packets_sent, trace.bytes_sent, sleeps))
print("energy ledger residual: %.2e J (conservation check)"
      % trace.energy_residual_j())

# --- Passive mode: no boot, just a duty-cycled LC receiver ------------------
st = powersim.passive_steady_state(
    fosc_hz=32768.0, vdd_volts=1.8, pr_dbm=-6.0,
    h=powersim.HarvesterModel.default_passive())
print("\npassive node at -6 dBm, 32.768 kHz clock, 1.8 V:")
print("  harvested %.2f uW vs %.2f uW active draw -> duty cycle %.1f%%"
      % (st.p_harvest_w * 1e6, st.p_op_w * 1e6, st.duty_cycle * 100))
print("  sustainable:", st.sustainable)

"""Why bandwidth choice is an interference question, not just a rate question.

Wideband bursts (~3 ms every ~0.5 s) wipe out any symbol they overlap. A
4 kHz chirp spends 31 ms per symbol and eats a burst almost every window; a
250 kHz chirp ducks between them. This compares the closed-form overlap rate
with a Monte-Carlo run through the burst injector.

Run with:  python3 demos/04_bandwidth_vs_bursts.py   (a few seconds)
"""

from rfsn import channel, chirp, harness

cfg = harness.ExperimentConfig(
    sf=7,
    template="complex",
    sweep_axis="bandwidth_hz",
    sweep_values=[4096.0, 125e3, 250e3],
    eirp_dbm=23.6,
    depth_cm=13.5,
    composite_gain_db=0.0,
    n0_w_per_hz=1e-12,       # quiet channel: bursts are the only impairment
    n_symbols=100_000,
    bursts_enabled=True,
)

burst = channel.WBurstModel()
print("burst model: %.0f ms every %.1f s, amplitude x%.0f"
      % (burst.duration_s * 1e3, burst.mean_interval_s, burst.amplitude_scale))
print(f"\n{'bw_kHz':>7} {'ds_ms':>7} {'closed_form_es':>14} {'sim_ser':>9} {'sim_ber':>9}")
rows = harness.run_ber_sweep(cfg)
for row in rows:
    p = chirp.ChirpParams(sf=cfg.sf, bw_hz=row.axis_value,
                          fosc_hz=8 * row.axis_value, fs_hz=8 * row.axis_value)
    print(f"{row.axis_value / 1e3:>7.1f} {p.ds_s * 1e3:>7.2f} "
          f"{row.interference_es:>14.4f} {row.ser:>9.4f} {row.ber:>9.4f}")

print("\nThe simulated symbol error rate tracks the closed form; halving the")
print("symbol time roughly halves the loss until the 3 ms burst width floors it.")

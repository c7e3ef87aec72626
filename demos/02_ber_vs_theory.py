"""Monte-Carlo bit error rate against the noncoherent closed form.

Sweeps signal power over AWGN for the ideal complex chain and prints the
simulated BER next to the theory curve at the same post-dechirp SNR.

Run with:  python3 demos/02_ber_vs_theory.py   (a few seconds)
"""

from rfsn import chirp, harness, rxdsp

p = chirp.derive_params(sf=7, fosc_hz=1e6)
eng = harness.BerEngine(p, kind="complex")
frac = eng.detection_fraction()
n0 = 1e-3
n_symbols = 50_000

print("sf=%d  bw=%.0f kHz  capture fraction=%.3f  n=%d symbols/point"
      % (p.sf, p.bw_hz / 1e3, frac, n_symbols))
print(f"{'snr_db':>7} {'theory_pb':>10} {'sim_ber':>10} {'wilson95':>9}")
for snr_db in (-13, -12, -11, -10, -9):
    snr = 10 ** (snr_db / 10)
    ps = snr * p.bw_hz * n0 / frac          # invert SNR = frac*Ps/(Bw*N0)
    res = eng.run(ps_w=ps, n0_w_per_hz=n0, n_symbols=n_symbols,
                  seed=1000 + snr_db)
    pb = rxdsp.ber_theory(snr, p.sf)
    print(f"{snr_db:>7} {pb:>10.4f} {res.ber:>10.4f} {res.wilson_95_halfwidth:>9.4f}")

print("\nThe closed form is a Gaussian tail approximation: it overshoots a")
print("little at high error rates and converges onto the simulation as the")
print("BER falls. The square-envelope chain runs ~1.5 dB to the right of")
print("this curve (swap kind='square-quantized' above to see it).")

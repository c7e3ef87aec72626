"""Walk through square-chirp synthesis: derive the symbol parameters from an
oscillator clock, render an ideal and a clock-quantized waveform, and look at
where the spectral energy lands.

Run with:  python3 demos/01_modulation_and_spectrum.py
"""

import numpy as np

from rfsn import chirp, harness

# A 1 MHz oscillator supports a 125 kHz chirp (the toggle generator needs
# eight clock cycles per carrier period at the band edge).
p = chirp.derive_params(sf=7, fosc_hz=1e6)
print("spreading factor   :", p.sf)
print("bandwidth          : %.1f kHz" % (p.bw_hz / 1e3))
print("symbol time        : %.3f ms" % (p.ds_s * 1e3))
print("data rate          : %.1f bit/s" % p.rd_bps)
print("symbols per alphabet:", p.n_bins)

# An ideal binary chirp for symbol 42: a square wave whose frequency ramps
# from 42 * bw / 2^sf up to bw, wraps to zero, and ramps back to the start.
w = chirp.modulate_ideal([42], p)
print("\nideal waveform: %d samples at %.0f kHz, levels %s"
      % (len(w.samples), w.fs_hz / 1e3, sorted(set(np.unique(w.samples)))))

# The same symbol through the clocked toggle generator: every edge lands on
# the 4-cycle oscillator grid, which costs a little spectral purity.
wq = chirp.modulate_quantized([42], p)
mismatch = np.mean(w.samples != wq.samples)
print("quantized-vs-ideal sample mismatch: %.3f" % mismatch)

# Power accounting: the dechirp correlator only captures the part of the
# square wave that projects onto the complex chirp template. Around 40% of
# the power is in-band for the ideal envelope; clock quantization costs more.
frac_ideal = harness.BerEngine(p, "square-ideal").detection_fraction()
print("\nmean dechirp capture fraction (ideal square): %.3f" % frac_ideal)

ps = chirp.spectrum(w)
total = np.sum(ps.psd)
inband = np.sum(ps.psd[(np.abs(ps.freqs_hz) <= p.bw_hz)])
print("fraction of PSD within +-bw of DC: %.3f" % (inband / total))
print("Parseval check: sum(psd) = %.6f, mean square = %.6f"
      % (total, np.mean(np.square(w.samples))))

"""Time-domain reference for burst placement, kept apart from the package.

``add_w_bursts`` adds the bursts to one contiguous block of a sample stream,
found by arrival time.  The engine places bursts on symbol rows through
``channel._burst_rows`` instead; the tests hold the two to the same samples.
"""

import numpy as np

from rfsn import channel


def add_w_bursts(
    x: np.ndarray, arrivals_s: np.ndarray, t_start_s: float, fs_hz: float, rms: float
) -> None:
    """Add the bursts in place to the 1-D sample block x starting at t_start_s.

    ``arrivals_s`` are sorted burst arrival times, as drawn by
    ``WBurstModel.arrival_times`` over the whole stream.  Each burst is placed
    on the global sample grid, so a burst that starts before the block adds
    its tail, one running past the block's end is cut off there, and blocks
    laid end to end receive every burst exactly once.  Burst amplitude is
    ``WBurstModel.AMPLITUDE_SCALE * rms``.
    """
    bursts = channel.WBurstModel
    b0 = int(round(t_start_s * fs_hz))
    pad = bursts.DURATION_S + 2.0 / fs_hz  # covers the rounding of both ends
    lo, hi = np.searchsorted(arrivals_s, [t_start_s - pad, t_start_s + len(x) / fs_hz + pad])
    first = np.round(np.asarray(arrivals_s[lo:hi], dtype=np.float64) * fs_hz).astype(np.int64)
    n_burst = max(1, int(round(bursts.DURATION_S * fs_hz)))
    template = bursts.AMPLITUDE_SCALE * rms * channel.burst_template(n_burst)
    for i in first - b0:
        a, b = max(i, 0), min(i + n_burst, len(x))
        if a < b:
            x[a:b] += template[a - i : b - i]

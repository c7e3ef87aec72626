"""Which public entry points of each rfsn layer are traced, and the per-layer metrics.

Only public names that later refactors are expected to keep are wrapped
(``dechirp_bins``, ``NoiseModel.add``, ``LeakageCurve.power_w``,
``time_to_voltage``, ``run_active_fsm``, ...).  Internal helpers such as
``_step_ledger``/``step_capacitor`` are deliberately not wrapped, so their
cost lands in the self time of the public caller.  If a target disappears,
the metrics built on it are dropped from the output and named on stderr.

Every metric describes one job: the workload's set-up plus one timed pass
(sums over pass spans are divided by the number of passes).
"""

from __future__ import annotations

import math

from tracing import Summary, Tracer


def n_symbols_counter(args, kwargs, out):
    return float(kwargs.get("n_symbols", args[3] if len(args) > 3 else 0))


def _dechirp_rows(args, kwargs, out):
    p = args[1]
    m = p.samples_per_symbol
    rows = out.size // p.n_bins
    return float(rows), rows * 5.0 * m * math.log2(m) / 1e9


def _csv_mb(args, kwargs, out):
    f = args[1] if len(args) > 1 else kwargs.get("path_or_file")
    return f.tell() / 1e6 if hasattr(f, "tell") else 0.0


def install(tr: Tracer) -> None:
    """Wrap the public entry points of every layer; missing ones are recorded."""
    from rfsn import channel, chirp, harness, powersim, rxdsp, waveform

    wraps = [
        # harness
        (harness.BerEngine, "__init__", "harness.engine_build", None),
        (harness.BerEngine, "run", "harness.engine_run", n_symbols_counter),
        (harness, "calibrate_composite_gain", "harness.calibrate", None),
        (harness, "run_ber_sweep", "harness.run_ber_sweep", None),
        (harness, "run_charge_sweep", "harness.run_charge_sweep", None),
        (harness, "fit_passive_efficiency_scale", "harness.fit_efficiency_scale", None),
        # channel
        (channel.NoiseModel, "add", "channel.noise_add", lambda a, k, out: out.nbytes / 1e6),
        (channel, "burst_template", "channel.burst_template", None),
        (channel.WBurstModel, "arrival_times", "channel.arrival_times", lambda a, k, out: float(len(out))),
        # rxdsp
        (rxdsp, "dechirp_bins", "rxdsp.dechirp_bins", _dechirp_rows),
        (rxdsp, "demodulate_stream", "rxdsp.demodulate_stream", None),
        (rxdsp, "bit_errors", "rxdsp.bit_errors", None),
        # chirp
        (chirp, "modulate_ideal", "chirp.modulate_ideal", lambda a, k, out: float(len(out.toggle_instants))),
        (chirp, "quantize_toggles", "chirp.quantize_toggles", None),
        # powersim
        (powersim, "time_to_voltage", "powersim.time_to_voltage", None),
        (powersim, "run_active_fsm", "powersim.run_active_fsm", lambda a, k, out: float(out.packets_sent)),
        (powersim, "min_startup_incident_power", "powersim.min_startup_incident_power", None),
        (powersim.LeakageCurve, "power_w", "powersim.leak_power_w", None),
        # waveform
        (waveform.Waveform, "to_bytes", "waveform.to_bytes", lambda a, k, out: len(out) / 1e6),
        (waveform.Waveform, "to_csv", "waveform.to_csv", _csv_mb),
        (waveform.Waveform, "from_bytes", "waveform.from_bytes", None),
        (waveform.Waveform, "from_csv", "waveform.from_csv", None),
    ]
    for owner, attr, name, counter in wraps:
        tr.wrap(owner, attr, name, counter)


# (metric, spans it needs, value(summary), end-to-end metric it should move); units are in BENCHMARK.json
PER_LAYER = [
    ("harness.engine_run.self_s", ["harness.engine_run"],
     lambda s: s.self_s("harness.engine_run"), "throughput on mc_awgn and mc_bursts"),
    ("harness.engine_run.calls", ["harness.engine_run"],
     lambda s: s.count("harness.engine_run"), "throughput on mc_*"),
    ("harness.mc_symbols", ["harness.engine_run"],
     lambda s: s.value("harness.engine_run"), "none (defines the mc_* job)"),
    ("harness.engine_build.s", ["harness.engine_build"],
     lambda s: s.total("harness.engine_build"), "setup_s on mc_*, throughput on synth_demod"),
    ("harness.calibrate.s", ["harness.calibrate"],
     lambda s: s.total("harness.calibrate"), "wall_s on mc_awgn"),
    ("harness.calibrate.engine_runs", ["harness.calibrate", "harness.engine_run"],
     lambda s: s.count_under("harness.engine_run", "harness.calibrate"), "wall_s on mc_awgn"),
    ("channel.noise_add.s", ["channel.noise_add"],
     lambda s: s.total("channel.noise_add"), "throughput on mc_awgn"),
    ("channel.noise_add.calls", ["channel.noise_add"],
     lambda s: s.count("channel.noise_add"), "throughput on mc_awgn"),
    ("channel.noise.mb_computed", ["channel.noise_add"],
     lambda s: s.value("channel.noise_add"), "throughput on mc_awgn"),
    ("channel.bursts.s", ["channel.burst_template", "channel.arrival_times"],
     lambda s: s.total("channel.burst_template") + s.total("channel.arrival_times"),
     "throughput on mc_bursts; ~0 on mc_awgn"),
    ("channel.bursts.arrivals", ["channel.arrival_times"],
     lambda s: s.value("channel.arrival_times"), "none (statistic of the mc_bursts job)"),
    ("rxdsp.dechirp_bins.s", ["rxdsp.dechirp_bins"],
     lambda s: s.total("rxdsp.dechirp_bins"), "throughput on mc_*"),
    ("rxdsp.dechirp_bins.rows", ["rxdsp.dechirp_bins"],
     lambda s: s.value("rxdsp.dechirp_bins"), "throughput on mc_*"),
    ("rxdsp.fft.gflop_computed", ["rxdsp.dechirp_bins"],
     lambda s: s.value("rxdsp.dechirp_bins", 1), "throughput on mc_*"),
    ("rxdsp.demodulate_stream.s", ["rxdsp.demodulate_stream"],
     lambda s: s.total("rxdsp.demodulate_stream"), "throughput on synth_demod"),
    ("rxdsp.bit_errors.s", ["rxdsp.bit_errors"],
     lambda s: s.total("rxdsp.bit_errors"), "throughput on mc_*"),
    ("chirp.modulate_ideal.s", ["chirp.modulate_ideal"],
     lambda s: s.total("chirp.modulate_ideal"), "throughput on synth_demod, setup_s on mc_awgn"),
    ("chirp.quantize_toggles.s", ["chirp.quantize_toggles"],
     lambda s: s.total("chirp.quantize_toggles"), "throughput on synth_demod, setup_s on mc_awgn"),
    ("chirp.toggles", ["chirp.modulate_ideal"],
     lambda s: s.value("chirp.modulate_ideal"), "none (exact count, must stay identical)"),
    ("powersim.time_to_voltage.self_s", ["powersim.time_to_voltage"],
     lambda s: s.self_s("powersim.time_to_voltage"), "throughput on energy"),
    ("powersim.run_active_fsm.self_s", ["powersim.run_active_fsm"],
     lambda s: s.self_s("powersim.run_active_fsm"), "throughput on energy"),
    ("powersim.leak_evals", ["powersim.leak_power_w"],
     lambda s: s.count("powersim.leak_power_w"), "throughput on energy"),
    ("powersim.leak_power_w.s", ["powersim.leak_power_w"],
     lambda s: s.total("powersim.leak_power_w"), "throughput on energy"),
    ("powersim.fsm.packets", ["powersim.run_active_fsm"],
     lambda s: s.value("powersim.run_active_fsm"), "none (simulated statistic, must stay identical)"),
    ("waveform.encode.s", ["waveform.to_bytes", "waveform.to_csv"],
     lambda s: s.total("waveform.to_bytes") + s.total("waveform.to_csv"), "throughput on synth_demod"),
    ("waveform.decode.s", ["waveform.from_bytes", "waveform.from_csv"],
     lambda s: s.total("waveform.from_bytes") + s.total("waveform.from_csv"), "throughput on synth_demod"),
    ("waveform.mb", ["waveform.to_bytes", "waveform.to_csv"],
     lambda s: s.value("waveform.to_bytes") + s.value("waveform.to_csv"), "none (defines the synth_demod job)"),
    ("trace.unattributed_frac", [],
     lambda s: s.root_self_frac(), "none (share of traced wall outside every wrapped layer)"),
]

# Filled in by the parent from the untraced and traced runs, not from spans.
OVERHEAD = ("trace.overhead_frac", "none (traced / untraced pass wall - 1)")


def per_layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-job values of every metric whose wrap targets were all installed."""
    s = Summary(tr, passes)
    return {
        name: float(fn(s))
        for name, needs, fn, _moves in PER_LAYER
        if all(n in tr.installed for n in needs)
    }

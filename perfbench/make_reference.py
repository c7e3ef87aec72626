"""Write perfbench/reference.json: the values the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Deterministic outputs (charge times, fitted scale, startup threshold, every
FSM run on the power grid, closed-form burst rates) are stored exactly.  For
Monte-Carlo outputs the script runs the workload's own pass on N_SEEDS
seeds (1000, 1001, ...) and stores the band mean +- K sd of each output
(the calibrated gain is taken over the calibration's own base seed):
the seed-to-seed spread, which stays honest when bursts cluster errors or
when the realised values move with internal batching.  Rerun it only when
the simulator's behaviour is meant to change.
"""

from __future__ import annotations

import dataclasses
import json
import statistics

from workloads import FSM_POWERS_DBM, REFERENCE, Energy, McAwgn, McBursts, events_digest, fsm_key

BAND_SD = 5.0
FIRST_SEED = 1000
N_SEEDS = 30


def band(values) -> list[float]:
    mean, sd = statistics.fmean(values), statistics.stdev(values)
    return [max(0.0, mean - BAND_SD * sd), mean + BAND_SD * sd]


def seed_outputs(cls, seeds):
    outs = []
    for seed in seeds:
        wl = cls()
        wl.setup(seed)
        outs.append(wl.run_pass()[0])
        print(f"{cls.name} seed {seed} done", flush=True)
    return outs


def main() -> None:
    seeds = range(FIRST_SEED, FIRST_SEED + N_SEEDS)

    energy = Energy()
    energy.setup(0)
    out, _ = energy.run_pass()
    fsm = {}
    for pr in FSM_POWERS_DBM:
        for hv in (True, False):
            tr = energy.run_fsm(pr, hv)
            fsm[fsm_key(pr, hv)] = {
                "packets": tr.packets_sent, "bytes": tr.bytes_sent,
                "events": len(tr.events), "events_sha256": events_digest(tr.events),
            }

    awgn = seed_outputs(McAwgn, seeds)
    wl = McAwgn()
    wl.setup(0)
    gains = [wl.harness.calibrate_composite_gain(dataclasses.replace(wl.cal_cfg, base_seed=s)).composite_gain_db for s in seeds]
    bursts = seed_outputs(McBursts, seeds)
    n_rows = len(bursts[0]["rows"])
    ref = {
        "charge_s": {rows[0].variant: {repr(r.pr_dbm): r.time_s for r in rows} for rows in out["charge"]},
        "efficiency_scale": out["scale"],
        "min_startup_dbm": out["p_min"],
        "fsm": fsm,
        "interference_es": [r.interference_es for r in bursts[0]["rows"]],
        "bands": {
            "method": f"mean +- {BAND_SD:g} sd over seeds {seeds.start}..{seeds.stop - 1}",
            "mc_awgn": {
                "gain_db": band(gains),
                "anchor_ber": band([o["rows"][0].ber for o in awgn]),
                "ladder_ratio": [band([o["ladder_ratio"][i] for o in awgn]) for i in range(len(awgn[0]["ladder_ratio"]))],
            },
            "mc_bursts": {"ber": [band([o["rows"][i].ber for o in bursts]) for i in range(n_rows)]},
        },
    }
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()

"""One workload in one fresh process: set up, run timed passes, check, print JSON.

Started by ``run.py``; not meant to be run by hand.  The last stdout line is
a JSON object with the measurements of this process.
"""

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

import layers
from tracing import Tracer
from workloads import ROOT, WORKLOADS, load_reference

OUT_DIR = Path(__file__).resolve().parent / "out"
MAX_ERRORS_SHOWN = 5
SETUPS_PER_PASS = 3
PRELOADED = set(sys.modules)  # the interpreter, numpy and the benchmark itself


def fresh_setup(name: str, seed: int):
    """Set the workload up on a fresh import of rfsn; returns (workload, seconds).

    Every module loaded since start-up that is not in the standard library
    (rfsn and anything it may come to import) is dropped first, so the time
    covers importing the program, parsing configs and building engines and
    tables.  Interpreter start-up and the numpy import are fixed costs of the
    environment and are left out: timed in fresh processes they swung by 2x
    on a shared host.  The dropped modules are collected before timing, so
    that neither the time nor peak_rss_mb depends on when the garbage
    collector happens to run.
    """
    for mod in [m for m in sys.modules if m not in PRELOADED and m.split(".")[0] not in sys.stdlib_module_names]:
        del sys.modules[mod]
    gc.collect()
    wl = WORKLOADS[name]()
    t = time.perf_counter()
    wl.setup(seed)
    return wl, time.perf_counter() - t


def engine_meter() -> Tracer:
    """Tracer on ``BerEngine.run`` alone: MC symbols and seconds, even untraced."""
    from rfsn import harness

    meter = Tracer()
    meter.wrap(harness.BerEngine, "run", "harness.engine_run", layers.n_symbols_counter)
    return meter


def measure(setup, ref, seconds, tracer=None) -> dict:
    """Set up with ``setup()`` and repeat ``wl.run_pass`` until the next pass would end past ``seconds``.

    ``setup()`` returns ``(workload, seconds)``.  Untraced, it is called
    SETUPS_PER_PASS times before every pass, so the set-up times sample the
    whole run, as the pass times do, not a few seconds at its start; the
    pass runs on the last set-up.  Traced, it is called once.  Every check
    counts as one attempt; an exception in set-up or in a pass counts as one
    failed attempt and ends the measurement.
    """
    res = {"setups": [], "walls": [], "cores": [], "work": 0.0, "attempted": 0, "failed": 0, "errors": []}
    deadline = time.perf_counter() + seconds
    wl = meter = None
    while True:
        t0 = time.perf_counter()
        stage = "set-up"
        try:
            for _ in range(SETUPS_PER_PASS if tracer is None else 1 if wl is None else 0):
                wl, dt = setup()
                res["setups"].append(dt)
            if tracer is None and wl.metered:
                meter = engine_meter()  # on the BerEngine class of the last fresh import
            stage = "pass"
            t = time.perf_counter()
            with tracer.span("bench.pass") if tracer is not None else contextlib.nullcontext():
                out, work = wl.run_pass()
            dt = time.perf_counter() - t
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            res["attempted"] += 1
            res["failed"] += 1
            res["errors"].append(f"{stage} raised {type(exc).__name__}: {exc}")
            break
        core = dt
        if meter is not None:
            a = meter.arrays()
            core = float((a["end"] - a["start"]).sum())
            work = float(a["value"][:, 0].sum())
        res["cores"].append(core)
        res["walls"].append(dt)
        res["work"] = work
        try:
            checks = wl.check(out, ref)
        except Exception as exc:
            checks = [("checker", False, f"raised {type(exc).__name__}: {exc}")]
        del out  # so peak_rss_mb covers one pass, not this pass's outputs plus the next pass
        res["attempted"] += len(checks)
        bad = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
        res["failed"] += len(bad)
        res["errors"] += bad
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # the next set-ups and pass would end past it
            break
    res["errors"] = res["errors"][:MAX_ERRORS_SHOWN]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import rfsn

    src = (ROOT / "src").resolve()
    if src not in Path(rfsn.__file__).resolve().parents:
        print(f"rfsn imported from {rfsn.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

        def setup():
            wl = WORKLOADS[args.workload]()
            t = time.perf_counter()
            with tracer.span("bench.setup"):
                wl.setup(args.seed)
            return wl, time.perf_counter() - t
    else:
        def setup():
            return fresh_setup(args.workload, args.seed)

    result = measure(setup, load_reference(), args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        if result["walls"]:
            result["per_layer"] = layers.per_layer_metrics(tracer, len(result["walls"]))
        result["missing_wraps"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

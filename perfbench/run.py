"""rfsn benchmark: one workload per invocation, each measured in fresh processes.

    python3 perfbench/run.py --workload mc_awgn --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` times set-up and the timed
passes in one fresh process and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` runs the workload untraced and then
traced (half the time each), prints a per-layer table, writes the spans to
``perfbench/out/`` and reports the per-layer metrics.  The last stdout line is
the JSON result; the exit code is 0 whenever a result was printed, including
when checks failed or the set-up or a pass raised (``correct`` is then false,
and metrics that could not be timed are left out).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A worker ends within one pass of its --seconds; this margin covers set-up
# and a pass that has become much slower, and is only reached by a hung one.
CHILD_MARGIN_S = 60


class BenchError(Exception):
    pass


def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Set-up imports rfsn from bytecode, as an installed package is imported,
    # whatever the caller's setting: compiling the sources took up to half of
    # setup_s, so a .pyc file left by an earlier import changed it by 2x.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    timeout = seconds + CHILD_MARGIN_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Metrics of one untraced worker; those it could not time (set-up or pass raised) are left out."""
    run = child(workload, seed, seconds, 0)
    metrics = {"peak_rss_mb": run["peak_rss_mb"]}
    if run["setups"]:
        metrics["setup_s"] = statistics.median(run["setups"])
    if run["walls"]:
        metrics["wall_s"] = statistics.median(run["walls"])
        metrics["throughput"] = run["work"] / statistics.median(run["cores"])
    return metrics, run


def per_layer(workload: str, seed: int, seconds: float, units: dict) -> tuple[dict, list]:
    plain = child(workload, seed, seconds / 2, 0)
    traced = child(workload, seed, seconds / 2, 1)
    metrics = dict(traced.get("per_layer", {}))
    name, moves = layers.OVERHEAD
    if plain["walls"] and traced["walls"]:
        metrics[name] = statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1.0
    predicted = {m[0]: m[3] for m in layers.PER_LAYER}
    predicted[name] = moves
    print(f"per-layer metrics for {workload} (seed {seed}; one set-up plus one pass; "
          f"{len(traced['walls'])} traced passes)")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':6s} should move")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g}  {units[key]:6s} {predicted[key]}")
    for target in traced["missing_wraps"]:
        print(f"missing wrap target: {target} (its metrics are left out)", file=sys.stderr)
    return metrics, [plain, traced]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rfsn" / "__init__.py").is_file():
        print(f"no rfsn sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            specs = bench["per_layer"]
            values, runs = per_layer(args.workload, args.seed, args.seconds, {m["name"]: m["unit"] for m in specs})
        else:
            values, run = end_to_end(args.workload, args.seed, args.seconds)
            runs = [run]
            specs = bench["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs if m["name"] in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

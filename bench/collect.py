"""Run the benchmark over several seeds and summarise it per workload.

    python3 bench/collect.py --seeds 1-10 [--workloads volume certify] \
        [--traced] [--out bench/baseline.json]

Each run is a fresh ``bench/run.py`` process with ``run_seconds`` from
BENCHMARK.json.  For every end-to-end and workload-specific metric the
summary gives the median, the quartiles (``statistics.quantiles``, n=4)
and the spread (q3 - q1) / median, next to the metric's bound.
``--traced`` adds one traced run per workload (its per-layer table).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarise(values: list, bound: float | None = None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in seeds:
            r = run_once(wl, seed, spec["run_seconds"], 0)
            runs.append(r)
            res = r["result"]
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {
            "correct": [r["result"]["correct"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "failures": [r["detail"]["failures"] for r in runs],
            "rounds": [r["detail"]["rounds"] for r in runs],
            "ops_per_round": runs[0]["detail"]["ops_per_round"],
            "env": runs[0]["detail"]["env"],
            "end_to_end": {
                name: summarise([r["result"]["metrics"][name]["value"] for r in runs],
                                bounds[name])
                for name in bounds},
            "workload_metrics": {
                name: summarise([r["detail"]["workload_metrics"][name]["value"]
                                 for r in runs])
                for name in set.intersection(
                    *(set(r["detail"]["workload_metrics"]) for r in runs))},
        }
        if args.traced:
            t = run_once(wl, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = t["detail"]["per_layer"]
        summary["workloads"][wl] = entry
        for name, s in entry["end_to_end"].items():
            spread = s["spread"] if s["spread"] is not None else float("nan")
            flag = "" if spread < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{wl:8s} {name:14s} median {s['median']:.5g} spread {spread:.4f} "
                  f"bound {s['bound']}{flag}", file=sys.stderr, flush=True)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

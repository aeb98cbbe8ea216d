"""charvar benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {volume,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; charvar is imported from ``src/``.  The run

1. pins BLAS to one thread (never more than ``nproc``) before numpy loads;
2. measures set-up time (``setup_s``) as the median over fresh processes
   of ``python -m charvar.cli solve`` on the workload's first config:
   import, config load and one warm-up op;
3. warms up in-process, then repeats the workload's fixed op set (a
   round of ``charvar.cli.main`` calls) for about ``--seconds``, at least
   twice, so every payload is compared byte for byte across rounds;
4. checks every output independently of the solver (see workloads.py);
5. prints a detail line (workload-specific figures, failures, environment)
   and, last, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced rounds alternate (see tracing.py); the
metrics are the per-layer figures per traced round that every workload
exercises, plus the tracing overhead (traced minus untraced ``wall_s``).
The figures of layers idle on some workload (they read 0 there) are on
the detail line only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("volume", "certify")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SETUP_REPEATS = 5
# The workloads multiply tiny matrices; a second BLAS thread only spins and
# competes with the main thread when the machine is busy.
BLAS_THREADS = 1
MIN_ROUNDS = 2  # so every payload is compared with a repeat
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_blas(threads: int) -> int:
    """Set every BLAS thread pool to ``threads``; must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def measure_setup(op, repeats: int = SETUP_REPEATS) -> list:
    """Wall times of fresh ``python -m charvar.cli`` processes running ``op``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "charvar.cli", *op.argv()],
                              env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "charvar" / "__init__.py").is_file():
        print(f"charvar sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir, nproc, blas_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _run(args, workdir, nproc, blas_threads) -> int:
    t_start = time.perf_counter()
    import numpy
    import scipy

    import charvar
    from charvar import cli
    from tracing import RESULT_LAYER_METRICS, Tracer, layer_metrics
    from workloads import (Workload, detail_metrics, end_to_end, per_op, run_op,
                           run_round, run_rounds)

    if Path(charvar.__file__).resolve().parent != SRC / "charvar":
        print(f"imported charvar from {charvar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed, workdir)
    setup_times = measure_setup(wl.setup_probe_op())
    for op in wl.warmup_ops():
        run_op(cli, op)

    digests = {}
    t0 = time.perf_counter()
    if args.trace:
        tracer = Tracer()
        plain, traced = [], []
        # alternate, so that drifts in machine speed hit both kinds alike
        while True:
            t = time.perf_counter()
            plain.append(run_round(cli, wl, digests))
            traced.append(run_round(cli, wl, digests, tracer))
            now = time.perf_counter()
            if now + (now - t) > t0 + args.seconds:
                break
        rounds = plain + traced
    else:
        rounds = run_rounds(cli, wl, digests, t0 + args.seconds, MIN_ROUNDS)

    ops = [r for rnd in rounds for r in rnd]
    failed = sum(not r.ok for r in ops)
    if args.trace:
        e2e = end_to_end(plain, setup_times)
        layers = layer_metrics(tracer, len(traced))
        layers["trace.overhead_s"] = (
            end_to_end(traced, setup_times)["wall_s"][0] - e2e["wall_s"][0], "s")
        metrics = {k: layers[k] for k in RESULT_LAYER_METRICS}
    else:
        e2e = metrics = end_to_end(rounds, setup_times)
        layers = {}

    failures = {}
    for r in ops:
        if not r.ok:
            k = f"{r.op.command} {r.op.config}: {r.note}"
            failures[k] = failures.get(k, 0) + 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(wl.ops),
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "failures": failures,
        "setup_times_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "failed_op_s": sum(r.seconds for r in ops if not r.ok),
        "workload_metrics": detail_metrics(args.workload, per_op(rounds)),
        "env": {
            "nproc": nproc,
            "blas_threads": blas_threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "charvar": charvar.__version__,
        },
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "elapsed_s": time.perf_counter() - t_start,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))

    bad_names = [k for k in metrics if not METRIC_NAME.fullmatch(k)]
    result = {
        "correct": not any(r.wrong for r in ops) and not bad_names,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads: configs, the fixed op set of one round, running rounds, and
the independent output checks.

Every op is one ``charvar.cli.main`` call writing its payload to a file.
Inputs (the CLI seeds of every op) are drawn from the benchmark seed; a
round is the same op list each time, so repeated rounds must reproduce
every payload byte for byte.

Why these workloads:

* ``volume`` -- the Monte Carlo pipeline (closed-form SU(2) path,
  ``project_batch`` at batch 2048, per-landing Liouville density); the
  twoform charts and the generic exp/log path stay idle.  ``z0 = I``
  because ``z0 = -I`` lands too few co-area samples at 3000 per stream.
* ``certify`` -- per seed: solve on SU(2) genus 2 with ``z0 = I`` and
  ``z0 = -I``, SU(2) genus 3 and SU(2) genus 1 with a generic boundary
  class (Gauss-Newton at batch size 1, CLI parse/emit overhead); certify
  the two genus-2 points (the closedness charts dominate); and an SU(3)
  Seifert scan.  Volume stays idle.  Genus-3 certify (about 0.5 s each) is
  left out so that a round stays short and every op repeats often.

Two workloads, so that each run can be long: run-to-run speed on a small
shared machine drifts by tens of percent over minutes, and a longer run
is more likely to see the machine at its usual speed.

Every op of these workloads succeeds at the time of writing.  Configs with
a known defect are left out, because one failing op makes the whole run
count as failed: SU(3) surface solves (about 1 % exit 0 with a relator
equal to a non-trivial central element), SL(2,C) solves (a few in a
thousand do not converge) and certify at a generic boundary class (the
boundary term of the two-form is wrong there).  So the per-matrix scipy
exp/log path runs only in the Seifert scan.

An op fails when it exits non-zero, when its output fails an independent
check or differs from an earlier round, or (volume) when the estimators
disagree beyond 3 sigma.  An output that claims success but fails a check,
or changes between rounds, is also *wrong*, which makes the run incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from charvar import presentation as pres
from charvar import variety as vy
from charvar.cli import DEFAULT_TOLERANCES
from charvar.liegroup import GroupSpec, matrix_from_json
from charvar.volume import MIN_LANDINGS

TOL_FLAT = DEFAULT_TOLERANCES["tol_flat"]

VOLUME_SAMPLES = 3000
CERTIFY_SEEDS = 5       # per round: each seed solves every config, certifies some, scans


def _diag_json(*phases):
    """JSON for diag(exp(i*phase_k)) in the CLI's [re, im] row encoding."""
    r = len(phases)
    return [[[math.cos(p), math.sin(p)] if j == k else [0.0, 0.0]
             for k in range(r)] for j, p in enumerate(phases)]


def _surface(family, rank, genus, **problem):
    return {"group": {"family": family, "rank": rank},
            "problem": {"type": "surface", "genus": genus, **problem}}


GENERIC_CLASS = {"boundary_count": 1,
                 "classes": {"representatives": [_diag_json(0.3, -0.3)]}}

CONFIGS = {
    "su2": _surface("SU", 2, 2),
    "su2_minus": _surface("SU", 2, 2, classes={"target": [[[-1.0, 0.0], [0.0, 0.0]],
                                                          [[0.0, 0.0], [-1.0, 0.0]]]}),
    "su2_g3": _surface("SU", 2, 3),
    "su2b": _surface("SU", 2, 1, **GENERIC_CLASS),
    "su3_seifert": {"group": {"family": "SU", "rank": 3},
                    "problem": {"type": "seifert", "genus": 2, "euler": 1}},
    "su2_volume": {**_surface("SU", 2, 2), "volume": {"n_samples": VOLUME_SAMPLES}},
}

SOLVE_CONFIGS = ("su2", "su2_minus", "su2_g3", "su2b")
CERTIFY_CONFIGS = ("su2", "su2_minus")
SCAN_COMPONENTS = 3


@dataclass(frozen=True)
class Op:
    """One CLI call of a round; ``key`` identifies it across rounds."""

    command: str
    config: str
    seed: int
    out: Path
    point: Path | None = None

    @property
    def key(self) -> tuple:
        return (self.command, self.config, self.seed)

    def argv(self) -> list:
        argv = [self.command, "--config", str(self.out.parent / f"{self.config}.json"),
                "--seed", str(self.seed), "--out", str(self.out), "--quiet"]
        if self.point is not None:
            argv += ["--point", str(self.point)]
        return argv


@dataclass
class OpResult:
    op: Op
    seconds: float
    rc: int | None
    payload: bytes | None
    ok: bool = True       # the op did its job (exit 0, checks and verdicts pass)
    wrong: bool = False   # an output contradicts an independent check
    note: str = ""


def _seeds(rng, n):
    return [int(s) for s in rng.choice(1_000_000, size=n, replace=False)]


class Workload:
    """Builds the op list of one round from the benchmark seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        w = workdir
        if name == "volume":
            self.configs = ["su2_volume"]
            (s,) = _seeds(rng, 1)
            self.ops = [Op("volume", "su2_volume", s, w / "volume.json")]
        elif name == "certify":
            self.configs = list(SOLVE_CONFIGS) + ["su3_seifert"]
            self.ops = []
            for s in _seeds(rng, CERTIFY_SEEDS):
                for c in SOLVE_CONFIGS:
                    pt = w / f"{c}.point.json"
                    self.ops.append(Op("solve", c, s, pt))
                    if c in CERTIFY_CONFIGS:
                        self.ops.append(Op("certify", c, s, w / f"{c}.report.json", pt))
                self.ops.append(Op("seifert-scan", "su3_seifert", s, w / "scan.json"))
        else:
            raise ValueError(f"unknown workload {name!r}")
        for c in self.configs:
            (w / f"{c}.json").write_text(json.dumps(CONFIGS[c]))

    def warmup_ops(self) -> list:
        """One solve per config, plus one certify on the certify workload."""
        w = self.workdir
        ops = [Op("solve", c, 0, w / f"warmup.{c}.point.json")
               for c in self.configs if c != "su3_seifert"]
        if self.name == "certify":
            ops.append(Op("certify", "su2", 0, w / "warmup.report.json",
                          w / "warmup.su2.point.json"))
        return ops

    def setup_probe_op(self) -> Op:
        """The op a fresh process runs to measure set-up time."""
        return Op("solve", self.configs[0], 0, self.workdir / "setup.point.json")


# ---------------------------------------------------------------------------
# running rounds
# ---------------------------------------------------------------------------

def run_op(cli, op: Op) -> OpResult:
    """One timed ``cli.main`` call; the payload is read after the clock stops."""
    op.out.unlink(missing_ok=True)
    argv = op.argv()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as e:  # a crash is a wrong output, reported not raised
        print(f"op {op.key} raised {e!r}", file=sys.stderr)
        rc = None
    dt = time.perf_counter() - t0
    payload = op.out.read_bytes() if op.out.exists() else None
    return OpResult(op, dt, rc, payload)


def run_round(cli, wl, digests, tracer=None) -> list:
    """Run the op set once (traced if a tracer is given), then check it."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        results = [run_op(cli, op) for op in wl.ops]
    finally:
        if tracer is not None:
            tracer.uninstall()
    _check_round(results, digests)
    return results


def run_rounds(cli, wl, digests, until: float, min_rounds: int) -> list:
    """Rounds until the next one would end after ``until`` (perf_counter time)."""
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(cli, wl, digests))
        took = time.perf_counter() - t0
        if len(rounds) >= min_rounds and time.perf_counter() + took > until:
            return rounds


def _check_round(results, digests):
    """Independent checks, plus byte-for-byte agreement with earlier rounds."""
    points = {}
    for res in results:
        check(res, points)
        if res.payload is not None:
            d = hashlib.sha256(res.payload).hexdigest()
            if digests.setdefault(res.op.key, d) != d:
                res.ok, res.wrong = False, True
                res.note = "payload differs from an earlier round"


def end_to_end(rounds, setup_times) -> dict:
    """The end-to-end metrics of a list of rounds.

    ``wall_s`` is the CLI time of one round's op set, counting the ops that
    succeeded, each at its fastest repeat: on a shared machine, repeats
    differ by the interference they met.  Failed ops are counted in
    ``ok_frac`` instead.
    """
    ops = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(r.seconds for r in per_op(rounds) if r.ok), "s"),
        "ok_frac": (sum(r.ok for r in ops) / len(ops), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def _spec_and_target(config: str):
    data = CONFIGS[config]
    spec = GroupSpec.from_json(data["group"])
    classes = data["problem"].get("classes", {})
    target = (matrix_from_json(classes["target"]) if "target" in classes
              else np.eye(spec.rank))
    reps = [matrix_from_json(m) for m in classes.get("representatives", [])]
    return spec, target, reps


def check_point(config: str, seed: int, payload: dict) -> str:
    """Recompute the relator and class distances of a solved point.

    Returns an empty string when the point is on the variety to tol_flat.
    """
    spec, target, reps = _spec_and_target(config)
    if payload.get("seed") != seed:
        return "seed not echoed"
    t = pres.GeneratorTuple.from_json(spec, payload["point"])
    defect = float(np.linalg.norm(pres.evaluate_relator(t) - target))
    if not defect <= TOL_FLAT:
        return f"relator off target by {defect:.3e}"
    for k, rep in enumerate(reps):
        dist = vy.class_distance(spec, t.c(k), rep)
        if not dist <= TOL_FLAT:
            return f"boundary {k} off its class by {dist:.3e}"
    if not payload["point"]["residual"] <= TOL_FLAT:
        return "reported residual above tol_flat"
    return ""


def _check_report(report: dict) -> str:
    for c in report["checks"]:
        if not {"check", "value", "tolerance", "pass"} <= set(c):
            return "malformed check entry"
    if report["passed"] != all(c["pass"] for c in report["checks"]):
        return "passed flag disagrees with the checks"
    return ""


def check(res: OpResult, point_payloads: dict):
    """Set ``ok``/``wrong``/``note`` on one op result.

    ``point_payloads`` maps a config to the last solve payload of it, so a
    certify result can be matched against the point it certified.
    """
    op = res.op
    if res.rc is None:
        res.ok, res.wrong, res.note = False, True, "raised"
        return
    if res.payload is None:
        res.ok, res.note = False, f"exit {res.rc}, no payload"
        return
    data = json.loads(res.payload)
    if op.command == "solve":
        note = check_point(op.config, op.seed, data)
        res.wrong = bool(note)
        res.ok = res.rc == 0 and not note
        res.note = note or ("" if res.rc == 0 else f"exit {res.rc}")
        point_payloads[op.config] = data
    elif op.command == "certify":
        note = _check_report(data)
        solved = point_payloads.get(op.config)
        if solved is None or data["residual"] != solved["point"]["residual"]:
            note = note or "report is not about the solved point"
        if (res.rc == 0) != data["passed"]:
            note = note or "exit code disagrees with the verdict"
        res.wrong = bool(note)
        res.ok = res.rc == 0 and not note
        failed = [c["check"] for c in data["checks"] if not c["pass"]]
        res.note = note or ("failed checks: " + ",".join(failed) if failed else "")
    elif op.command == "volume":
        est = [data["coarea"], data["tube"]]
        if not all(e["value"] > 0 and e["stderr"] > 0 and e["samples"] == VOLUME_SAMPLES
                   and e["landings"] >= MIN_LANDINGS for e in est):
            res.wrong, res.note = True, "estimate malformed"
        elif not data["agree_3sigma"]:
            res.note = "estimators disagree beyond 3 sigma"
        res.ok = res.rc == 0 and not res.note
    elif op.command == "seifert-scan":
        comps = data["components"]
        bad = [c for c in comps
               if not (c["solve"]["converged"] and c["solve"]["residual"] <= TOL_FLAT)]
        if data["count"] != SCAN_COMPONENTS or len(comps) != SCAN_COMPONENTS or bad:
            res.wrong, res.note = True, "scan components malformed or off the variety"
        elif not all(c["certify"]["passed"] for c in comps):
            res.note = "a component failed certification"
        res.ok = res.rc == 0 and not res.note


# ---------------------------------------------------------------------------
# workload-specific figures (printed on the detail line)
# ---------------------------------------------------------------------------

def per_op(rounds: list) -> list:
    """One result per op: its fastest repeat, ok only if every repeat was."""
    reps = {}
    for rnd in rounds:
        for r in rnd:
            reps.setdefault(r.op.key, []).append(r)
    return [OpResult(rs[0].op, min(r.seconds for r in rs), rs[0].rc, rs[0].payload,
                     all(r.ok for r in rs), any(r.wrong for r in rs))
            for rs in reps.values()]


def percentile(values, q: float, beyond: int = 10):
    """Nearest-rank q-quantile, or None unless >= ``beyond`` samples lie above it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    k = max(math.ceil(q * n) - 1, 0)
    if n - 1 - k < beyond:
        return None
    return xs[k]


def detail_metrics(name: str, results: list) -> dict:
    """Workload-specific figures from ``per_op`` results.

    Returns name -> {"value", "unit"[, "n"]}; ``n`` is the sample count.
    """
    out = {}

    def put(key, value, unit, n=None):
        if value is not None:
            out[key] = {"value": value, "unit": unit} | ({"n": n} if n else {})

    if name == "volume":
        vols = [r for r in results if r.ok]
        if vols:
            secs = statistics.median(r.seconds for r in vols)
            sps = 2 * VOLUME_SAMPLES / secs
            put("volume.samples_per_s", sps, "1/s", len(vols))
            for est in ("tube", "coarea"):
                s5 = []
                for r in vols:
                    e = json.loads(r.payload)[est]
                    s5.append(e["samples"] / sps * (e["stderr"] / e["value"] / 0.05) ** 2)
                put(f"volume.{est}.s_to_5pct", statistics.median(s5), "s", len(s5))
    elif name == "certify":
        # 20 solves a round: the median is the highest percentile with ten
        # samples beyond it
        solves = [1e3 * r.seconds for r in results if r.op.command == "solve"]
        put("solve.p50_ms", percentile(solves, 0.5), "ms", len(solves))
        secs = {}
        for r in results:
            if r.op.config not in CERTIFY_CONFIGS:
                continue
            tot = secs.setdefault(r.op.config, [0.0, 0])
            tot[0] += r.seconds
            tot[1] += r.op.command == "certify"
        for c, (s, n) in secs.items():
            put(f"certify.{c}.points_per_s", n / s, "1/s", n)
        scans = [1e3 * r.seconds for r in results if r.op.command == "seifert-scan"]
        put("certify.scan_ms", statistics.median(scans), "ms", len(scans))
    return out

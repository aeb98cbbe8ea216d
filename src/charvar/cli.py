"""Command-line front end: solve / certify / volume / seifert-scan.

Configuration is JSON only (one parser, one schema), every command emits
RFC 8259 JSON (no NaN or Infinity), and files are written atomically (temp
+ rename).
Exit codes: 0 success, 1 configuration error, 2 numerical failure
(no convergence, too few samples, a saturated volume gate), 3 certification
failure, 4 an internal error (any other exception inside a command).
Commands raise; :func:`main` maps each exception class to one error kind
and exit code (``_FAILURES``) and writes one JSON error record to stderr.

Determinism contract: identical config + seed produce byte-identical
output files; nothing time- or path-dependent goes into the payloads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import liegroup as lg
from . import seifert as sf
from . import twoform as tf
from . import variety as vy
from . import volume as vol
from .errors import (
    CharvarError,
    ConfigError,
    DimensionMismatchError,
    InsufficientSamplesError,
    NoConvergenceError,
    OutsideDomainError,
)
from .liegroup import GroupSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CERTIFY = 3
EXIT_INTERNAL = 4

DEFAULT_TOLERANCES = {
    "tol_flat": vy.TOL_FLAT,
    "gap_tol": vy.GAP_TOL,
}
# (exception classes, error kind, exit code), first match wins; any other
# exception is an internal error
_FAILURES = (
    ((ConfigError, DimensionMismatchError), "config", EXIT_CONFIG),
    ((NoConvergenceError, OutsideDomainError), "no_convergence", EXIT_NUMERICAL),
    ((InsufficientSamplesError,), "insufficient_samples", EXIT_NUMERICAL),
)


def _object(val, where: str, keys) -> dict:
    """``val`` when it is a JSON object whose keys are among ``keys``."""
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be a JSON object with keys among "
                          f"{', '.join(keys)}")
    unknown = sorted(set(val) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} "
                          f"(known: {', '.join(keys)})")
    return val


def _positive(section: dict, key: str, default, kind: type, where: str):
    """``section[key]`` (or ``default``) as a positive finite ``kind``; JSON
    true/false are not numbers here, and an integer ``kind`` takes no float."""
    val = section.get(key, default)
    ok = type(val) is int or (kind is float and type(val) is float)
    if not (ok and 0 < val < float("inf")):
        what = "integer" if kind is int else "number"
        raise ConfigError(f"{where}{key} must be a positive {what}")
    return kind(val)


def _integer(section: dict, key: str, default, where: str) -> int:
    """``section[key]`` (or ``default``) when it is a JSON integer: a float is
    not truncated and true/false are not 0/1."""
    val = section.get(key, default)
    if type(val) is not int:
        raise ConfigError(f"{where}{key} must be an integer")
    return val


def _seed(val: int) -> int:
    """``val`` when it can seed a generator: a non-negative integer."""
    if val < 0:
        raise ConfigError(f"seed must be a non-negative integer, not {val}")
    return val


@dataclass
class RunConfig:
    """Run configuration, typed and validated once when it is loaded."""

    problem: vy.VarietyProblem
    seifert: sf.SeifertData | None  # set by a problem of type 'seifert'
    seed: int
    tolerances: dict
    max_iter: int
    n_samples: int
    gates: dict  # the volume gates the config sets; the others keep their defaults

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Every key typed and checked here; a bad one raises :class:`ConfigError`."""
        _object(data, "the config root", ("group", "problem", "seed", "tolerances",
                                          "solver", "volume"))
        group = _object(data.get("group"), "group", ("family", "rank"))
        _integer(group, "rank", None, "group.")
        try:
            group = GroupSpec.from_json(group)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad group spec: {e}") from e
        problem, seif = _problem(group, data.get("problem"))
        seed = _seed(_integer(data, "seed", 0, ""))
        given = _object(data.get("tolerances", {}), "tolerances", DEFAULT_TOLERANCES)
        tol = {name: _positive(given, name, default, float, "tolerances.")
               for name, default in DEFAULT_TOLERANCES.items()}
        solver = _object(data.get("solver", {}), "solver", ("max_iter",))
        gate_keys = ("residual_gate", "distance_gate")
        volume = _object(data.get("volume", {}), "volume", ("n_samples",) + gate_keys)
        return cls(
            problem=problem, seifert=seif, seed=seed, tolerances=tol,
            max_iter=_positive(solver, "max_iter", 200, int, "solver."),
            n_samples=_positive(volume, "n_samples", 2000, int, "volume."),
            gates={k: _positive(volume, k, None, float, "volume.")
                   for k in gate_keys if k in volume})


def _problem(group: GroupSpec, prob) -> tuple:
    """The ``problem`` section as (VarietyProblem, SeifertData or None)."""
    if not isinstance(prob, dict) or "type" not in prob:
        raise ConfigError("missing 'problem' section with a 'type'")
    if prob["type"] == "surface":
        _object(prob, "problem", ("type", "genus", "boundary_count", "classes"))
        classes = _object(prob.get("classes", {}), "problem.classes",
                          ("representatives", "target"))
        genus = _integer(prob, "genus", None, "problem.")
        m = _integer(prob, "boundary_count", 0, "problem.")
        try:
            classes = vy.ConjugacyClassSpec.from_json(group, classes)
            if m != classes.boundary_count:
                raise DimensionMismatchError(
                    f"boundary_count {m} is not the number of class representatives "
                    f"({classes.boundary_count})")
            return vy.VarietyProblem(genus, classes), None
        except (KeyError, ValueError, TypeError, DimensionMismatchError) as e:
            raise ConfigError(f"bad surface problem: {e}") from e
    if prob["type"] == "seifert":
        _object(prob, "problem", ("type", "genus", "euler", "zeta_index"))
        genus = _integer(prob, "genus", None, "problem.")
        euler = _integer(prob, "euler", None, "problem.")
        try:
            seif = sf.SeifertData(genus, euler, group)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad seifert problem: {e}") from e
        cands = sf.fiber_holonomy_candidates(seif)
        zidx = prob.get("zeta_index", 0)
        if type(zidx) is not int or not 0 <= zidx < len(cands):
            raise ConfigError(f"zeta_index must be an integer in 0..{len(cands) - 1}")
        return sf.variety_problem(seif, cands[zidx]), seif
    raise ConfigError(f"unknown problem type {prob['type']!r}")


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".charvar-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(payload: dict, out: str | None, quiet: bool, note: str = ""):
    """Write ``payload`` as RFC 8259 JSON: a non-finite number in it raises."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        atomic_write(out, text)
        if not quiet and note:
            print(note, file=sys.stderr)
    else:
        sys.stdout.write(text)


def error_record(kind: str, detail: str):
    print(json.dumps({"error": kind, "detail": detail}, sort_keys=True),
          file=sys.stderr)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, out: str | None, quiet: bool) -> int:
    prob = cfg.problem
    point = prob.solve(np.random.default_rng(cfg.seed),
                       tol_flat=cfg.tolerances["tol_flat"], max_iter=cfg.max_iter)
    irreducible = vy.is_irreducible(point.tuple)
    payload = {"group": prob.spec.to_json(),
               "point": {**point.to_json(), "irreducible": irreducible},
               "seed": cfg.seed}
    emit(payload, out, quiet,
         f"solved: residual {point.residual_norm:.3e}, irreducible={irreducible}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _subspace_sine(K: np.ndarray, B: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal column
    spans, ``||B - K (K* B)||_2``; 1 when their dimensions differ."""
    if K.shape[1] != B.shape[1]:
        return 1.0
    return float(np.linalg.norm(B - K @ (K.conj().T @ B), 2))


def certification_checks(mats: np.ndarray, targets: np.ndarray,
                         classes: vy.ConjugacyClassSpec, tolerances: dict,
                         closedness: bool) -> list[list[dict]]:
    """Run the descent / kernel / nondegeneracy battery on a stack of tuples
    ``mats`` (B, 2g + m, r, r) of one genus at the boundary classes of
    ``classes`` and their relator ``targets`` (B, r, r), and the closedness
    identity (:func:`twoform.closedness_defect`) when ``closedness`` is set.
    One residual evaluation of the stack at its targets gives the residual
    check and the partial products every later check reads.

    Returns one check list per tuple: the list of a stack of that tuple
    alone.  A residual outside the principal-log domain has no value (JSON
    null) and fails.  A tuple stops at the residual check, or at
    irreducibility: one split cuts the flat tuples at (dim g, dim g), and a
    tuple passes when that split reads ``rank(D E) == rank(E* C) == dim g``
    at it, the smooth-point rule of :func:`volume.landing_densities`.
    ``rank(E* C)`` is the rank :func:`variety.is_irreducible` reads, since
    ``E`` has orthonormal columns spanning every coboundary.  A tuple past
    irreducibility emits the rank-deficiency warnings
    :func:`variety.cohomology_at` emits at it, in stack order; those tuples
    share one form Gram over the columns [z | b | h] and one stacked SVD
    per check.
    """
    d = classes.spec.dim
    tol_flat, gap_tol = tolerances["tol_flat"], tolerances["gap_tol"]
    checks = [[] for _ in range(len(mats))]

    def add(i, name, value, tolerance, ok=None):
        ok = bool(value <= tolerance) if ok is None else bool(ok)
        checks[i].append({"check": name, "value": float(value),
                          "tolerance": float(tolerance), "pass": ok})
        return ok

    _, rnorm, f = vy._batch_residual(mats, classes, lg.group_inverse(classes.spec, targets))
    flat = [i for i in range(len(mats)) if add(i, "residual", rnorm[i], tol_flat)]
    for i in np.flatnonzero(rnorm == np.inf):  # outside the principal-log domain
        checks[i][0]["value"] = None
    if not flat:
        return checks
    lin = vy.Linearization.at(mats[flat], classes, f[flat])
    basis, own = vy.cohomology_split(lin, ranks=(d, d))
    smooth = (own[0][0] == d) & (own[1][0] == d)
    past = [j for j, i in enumerate(flat)
            if add(i, "irreducible", 0.0 if smooth[j] else 1.0, 0.5)]
    if not past:
        return checks
    at = slice(None) if len(past) == len(flat) else past  # every tuple: views, not copies
    lin = lin.take(at)
    nz, nb, nh = basis.dims()
    Z, B, gap = basis.z_coords[at], basis.b_coords[at], basis.gap_quality[at]
    # cocycle condition of the coboundaries, under the split's own differential
    cocycle = np.abs(lin.D @ B).max(axis=(-2, -1))
    # descent (both argument orders), the form on h1 and its kernel on the
    # cocycles from one Gram over the columns [z | b | h]; an empty block reads 0
    zbh = np.concatenate([Z, B, basis.h_coords[at]], axis=-1)
    G = tf.form_gram_stack(lin, zbh, zbh)
    descent = np.maximum(np.abs(G[:, nz:nz + nb, :nz]).max(axis=(-2, -1), initial=0.0),
                         np.abs(G[:, :nz, nz:nz + nb]).max(axis=(-2, -1), initial=0.0))
    omega = G[:, nz + nb:, nz + nb:]
    skew = np.abs(omega + np.swapaxes(omega, -2, -1)).max(axis=(-2, -1), initial=0.0)
    smin = np.linalg.svd(omega, compute_uv=False)[:, -1] if nh else None
    K = tf.kernel_of_form(G[:, :nz, :nz], Z)
    for k, j in enumerate(past):  # in stack order
        vy._warn_weak_gaps([tuple(a[j] for a in pair) for pair in own], gap_tol)
        i = flat[j]
        add(i, "rank_gap_quality", 1.0 / max(gap[k], 1e-300), gap_tol)
        add(i, "coboundaries_are_cocycles", cocycle[k], 1e-9)
        add(i, "descent", descent[k], 1e-9)
        add(i, "form_skew", skew[k], 1e-10)
        if nh:
            add(i, "nondegenerate_sigma_min", -smin[k], -1e-8)
        else:  # a form on the zero space is nondegenerate
            add(i, "nondegenerate_sigma_min", 0.0, -1e-8, ok=True)
        add(i, "kernel_matches_coboundaries", _subspace_sine(K[k], B[k]), 1e-7)
        if closedness:
            add(i, "closedness", tf.closedness_defect(lin.take(k)), 1e-10)
    return checks


def _not_a_number(constant: str):
    """``json.load``'s hook for NaN and Infinity, which a payload never holds."""
    raise ConfigError(f"bad point payload: {constant} is not a JSON number")


def _read_point(cfg: RunConfig, point_path: str) -> vy.RepresentationPoint:
    """The point of a solve payload; :class:`ConfigError` when the file is
    not such a payload or its genus or boundary count is not the config's."""
    try:
        with open(point_path) as fh:
            data = json.load(fh, parse_constant=_not_a_number)
    except OSError as e:
        raise ConfigError(f"cannot read point file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"point parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    try:
        point = vy.RepresentationPoint.from_json(cfg.problem.spec, data["point"])
    except (KeyError, TypeError, ValueError, CharvarError) as e:
        raise ConfigError(f"bad point payload: {e}") from e
    t, prob = point.tuple, cfg.problem
    if (t.genus, t.boundary_count) != (prob.genus, prob.boundary_count):
        raise ConfigError(
            f"point has genus {t.genus} and {t.boundary_count} boundary classes; "
            f"the config's problem has genus {prob.genus} and "
            f"{prob.boundary_count}")
    return point


def cmd_certify(cfg: RunConfig, point_path: str, out: str | None, quiet: bool) -> int:
    """Certify the point of a solve payload.  The battery evaluates its
    relator residual afresh at the config's target, in the solver's shapes
    (a batch of one tuple); the report's ``residual`` is the recorded one,
    which names the point the report is about.  Only the SU family is
    certified: on SL(r, C) the irreducibility check reads a trivial
    commutant, which is weaker than irreducibility."""
    if cfg.problem.spec.family != "SU":
        raise ConfigError("certify runs on the SU family only: on SL(r, C) the "
                          "irreducibility check is not a Burnside test")
    point = _read_point(cfg, point_path)
    classes = cfg.problem.classes
    (checks,) = certification_checks(point.tuple.mats[None], classes.target[None],
                                     classes, cfg.tolerances, True)
    passed = all(c["pass"] for c in checks)
    payload = {"checks": checks, "passed": passed, "seed": cfg.seed,
               "residual": point.residual_norm}
    emit(payload, out, quiet,
         "certify: " + ("all checks passed" if passed else "FAILED"))
    return EXIT_OK if passed else EXIT_CERTIFY


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def cmd_volume(cfg: RunConfig, out: str | None, fmt: str, quiet: bool) -> int:
    result = vol.cross_check(cfg.problem, cfg.n_samples, cfg.seed, **cfg.gates)
    payload = {
        "coarea": result["coarea"].to_json(),
        "tube": result["tube"].to_json(),
        "difference": result["difference"],
        "combined_stderr": result["combined_stderr"],
        "agree_3sigma": result["agree_3sigma"],
        "seed": cfg.seed,
    }
    if fmt == "csv":
        csv_path = _csv_path(out)
        _write_sample_csv(csv_path, result["coarea_records"])
        payload["samples_csv"] = os.path.basename(csv_path)
    emit(payload, out, quiet,
         f"volume: coarea {result['coarea'].value:.4g} "
         f"tube {result['tube'].value:.4g} "
         f"(3-sigma agree: {result['agree_3sigma']})")
    return EXIT_OK


def _csv_path(out: str) -> str:
    """The samples CSV written beside the ``--out`` JSON."""
    return os.path.splitext(out)[0] + ".csv"


def _write_sample_csv(path: str, rec: vol.SampleRecords):
    """One row per co-area sample.  ``converged`` and ``displacement`` are
    blank on the rows the stream did not project (outside the co-area gate);
    ``irreducible``, ``density`` and ``jacobian`` on the rows it did not
    evaluate (unconverged, or not projected)."""
    buf = []
    header = ["converged", "irreducible", "initial_residual",
              "displacement", "density", "jacobian"]
    buf.append(",".join(header))
    for i in range(rec.n):
        pj, ev = rec.projected[i], rec.evaluated[i]
        buf.append(",".join([
            str(int(rec.converged[i])) if pj else "",
            str(int(rec.irreducible[i])) if ev else "",
            repr(float(rec.initial_residual[i])),
            repr(float(rec.displacement[i])) if pj else "",
            repr(float(rec.density[i])) if ev else "",
            repr(float(rec.jacobian[i])) if ev else "",
        ]))
    atomic_write(path, "\n".join(buf) + "\n")


# ---------------------------------------------------------------------------
# seifert-scan
# ---------------------------------------------------------------------------

def cmd_seifert_scan(cfg: RunConfig, out: str | None, quiet: bool) -> int:
    """Solve and certify one component per fiber holonomy zeta.

    Component k starts from the draw of ``default_rng(seed + k)``; every
    start is flattened onto its own target ``zeta^n I`` by one batched
    Gauss-Newton solve.  Its branch-cut nudges (if any) continue component
    0's generator, as ``solve``'s continue its own, so they are drawn for
    the whole batch from one generator.  One battery certifies the
    converged components as a stack at their targets: the components share
    their genus and differ only in their target.
    """
    if cfg.seifert is None:
        raise ConfigError("seifert-scan needs a problem of type 'seifert'")
    cands = sf.fiber_holonomy_candidates(cfg.seifert)
    rngs = [np.random.default_rng(cfg.seed + cand.index) for cand in cands]
    # the components are closed-surface problems that differ only in their
    # target, and a closed draw does not read the target: every start is a
    # draw of the config's problem, solved to its component's target
    classes = cfg.problem.classes
    starts = np.stack([cfg.problem.initial_batch(rng, 1)[0] for rng in rngs])
    targets = np.stack([cand.target for cand in cands])
    mats, rnorm, iters, conv = vy.project_batch(
        starts, classes, max_iter=cfg.max_iter, rng=rngs[0], target=targets,
        tol=min(vy.SOLVE_TOL, cfg.tolerances["tol_flat"]))  # VarietyProblem.solve's stop
    done = np.flatnonzero(conv)
    batteries = dict(zip(done, certification_checks(
        mats[done], targets[done], classes, cfg.tolerances, False)))
    components = []
    worst = EXIT_OK
    for k, cand in enumerate(cands):
        entry = cand.to_json()
        components.append(entry)
        if not conv[k]:
            detail = str(NoConvergenceError(int(iters[k]), float(rnorm[k])))
            entry["solve"] = {"converged": False, "detail": detail}
            worst = max(worst, EXIT_NUMERICAL)
            continue
        checks = batteries[k]
        # a converged point passes the residual check, so the battery's
        # irreducibility check ran
        irreducible = next(c["pass"] for c in checks if c["check"] == "irreducible")
        entry["solve"] = {"converged": True, "residual": float(rnorm[k]),
                          "irreducible": irreducible}
        entry["certify"] = {"checks": checks,
                            "passed": all(c["pass"] for c in checks)}
        if not entry["certify"]["passed"]:
            worst = max(worst, EXIT_CERTIFY)
    payload = {"components": components, "seed": cfg.seed,
               "count": len(components)}
    emit(payload, out, quiet, f"seifert-scan: {len(components)} components")
    return worst


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: ``main`` may
    run many times in one process, and parsing leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="charvar",
        description="Character-variety solver, two-form certifier, and "
                    "volume estimator.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "certify", "volume", "seifert-scan"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--quiet", action="store_true",
                       help="suppress human-readable notes")
        if name == "certify":
            p.add_argument("--point", required=True, help="solved point JSON")
    return ap


def _run(args: argparse.Namespace) -> int:
    """Load the config and run the command; a failure raises."""
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = _seed(args.seed)
    if args.format == "csv" and (args.command != "volume" or args.out is None):
        raise ConfigError("csv format is only supported by 'volume' with --out "
                          "(the CSV is written beside the JSON)")
    if args.format == "csv" and _csv_path(args.out) == args.out:
        raise ConfigError(f"--out {args.out!r} is also the CSV path "
                          "(<out stem>.csv): the JSON would overwrite the CSV")
    if args.command == "solve":
        return cmd_solve(cfg, args.out, args.quiet)
    if args.command == "certify":
        return cmd_certify(cfg, args.point, args.out, args.quiet)
    if args.command == "volume":
        return cmd_volume(cfg, args.out, args.format, args.quiet)
    return cmd_seifert_scan(cfg, args.out, args.quiet)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as e:
        for classes, kind, code in _FAILURES:
            if isinstance(e, classes):
                error_record(kind, str(e))
                return code
        # a defect of the program, not of its input
        error_record("internal", f"{type(e).__name__}: {e}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

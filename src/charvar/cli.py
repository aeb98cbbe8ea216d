"""Command-line front end: solve / certify / volume / seifert-scan.

Configuration is JSON only (one parser, one schema), every command emits
machine-readable JSON, and files are written atomically (temp + rename).
Exit codes: 0 success, 1 configuration error, 2 numerical failure
(no convergence, insufficient samples), 3 certification failure.

Determinism contract: identical config + seed produce byte-identical
output files; nothing time- or path-dependent goes into the payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import presentation as pres
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
from .presentation import GeneratorTuple, SurfacePresentation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CERTIFY = 3

DEFAULT_TOLERANCES = {
    "tol_flat": 1e-9,
    "gap_tol": 1e-6,
}
CERTIFY_STEPS = (1e-3, 5e-4, 2.5e-4)  # certify's closedness sweep default


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


@dataclass
class RunConfig:
    """Run configuration, typed and validated once when it is loaded."""

    group: GroupSpec
    problem: vy.VarietyProblem
    seifert: sf.SeifertData | None  # set by a problem of type 'seifert'
    seed: int
    tolerances: dict
    initial: str
    max_iter: int
    n_samples: int
    gates: dict  # the volume gates the config sets; the others keep their defaults
    closedness_steps: tuple | None  # None: the command's default

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
        _object(data, "the config root", ("group", "problem", "seed", "initial",
                                          "tolerances", "solver", "volume", "certify"))
        group = _object(data.get("group"), "group", ("family", "rank"))
        _integer(group, "rank", None, "group.")
        try:
            group = GroupSpec.from_json(group)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad group spec: {e}") from e
        problem, seif = _problem(group, data.get("problem"))
        seed = _integer(data, "seed", 0, "")
        given = _object(data.get("tolerances", {}), "tolerances", DEFAULT_TOLERANCES)
        tol = {name: _positive(given, name, default, float, "tolerances.")
               for name, default in DEFAULT_TOLERANCES.items()}
        initial = data.get("initial", "haar")
        if initial not in ("haar", "identity"):
            raise ConfigError(f"unknown initial {initial!r} (want 'haar' or 'identity')")
        solver = _object(data.get("solver", {}), "solver", ("max_iter",))
        gate_keys = ("residual_gate", "distance_gate")
        volume = _object(data.get("volume", {}), "volume", ("n_samples",) + gate_keys)
        steps = _object(data.get("certify", {}), "certify",
                        ("closedness_steps",)).get("closedness_steps")
        if steps is not None and not (isinstance(steps, list) and all(
                type(h) in (int, float) and 0 < h < float("inf") for h in steps)
                and len(set(steps)) != 1):
            raise ConfigError("certify.closedness_steps must be empty or hold at "
                              "least two distinct positive steps (one fixes no order)")
        return cls(
            group=group, problem=problem, seifert=seif, seed=seed, tolerances=tol,
            initial=initial,
            max_iter=_positive(solver, "max_iter", 200, int, "solver."),
            n_samples=_positive(volume, "n_samples", 2000, int, "volume."),
            gates={k: _positive(volume, k, None, float, "volume.")
                   for k in gate_keys if k in volume},
            closedness_steps=None if steps is None else tuple(steps))


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
            pres_ = SurfacePresentation(genus, m)
            return vy.VarietyProblem(
                group, pres_, vy.ConjugacyClassSpec.from_json(group, classes)), None
        except (KeyError, ValueError, TypeError, DimensionMismatchError) as e:
            raise ConfigError(f"bad surface problem: {e}") from e
    if prob["type"] == "seifert":
        _object(prob, "problem", ("type", "genus", "euler", "zeta_index"))
        genus = _integer(prob, "genus", None, "problem.")
        euler = _integer(prob, "euler", None, "problem.")
        try:
            seif = sf.SeifertData(genus, euler, group.rank, group.family)
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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    rng = np.random.default_rng(cfg.seed)
    pres_ = cfg.problem.presentation
    initial = (GeneratorTuple.identity(cfg.group, pres_.genus, pres_.boundary_count)
               if cfg.initial == "identity" else cfg.problem.random_initial(rng))
    try:
        point = vy.project_to_variety(
            initial, cfg.problem.classes,
            tol_flat=cfg.tolerances["tol_flat"],
            max_iter=cfg.max_iter,
            rng=rng,
        )
    except (NoConvergenceError, OutsideDomainError) as e:
        error_record("no_convergence", str(e))
        return EXIT_NUMERICAL
    point = point.with_irreducible(vy.is_irreducible(point))
    payload = {"group": cfg.group.to_json(), "point": point.to_json(),
               "seed": cfg.seed}
    emit(payload, out, quiet,
         f"solved: residual {point.residual_norm:.3e}, "
         f"irreducible={point.irreducible}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _subspace_sine(K: np.ndarray, B: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal column
    spans, ``||B - K (K* B)||_2``; 1 when their dimensions differ."""
    if K.shape[1] != B.shape[1]:
        return 1.0
    if B.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(B - K @ (K.conj().T @ B), 2))


def certification_checks(point: vy.RepresentationPoint, classes: vy.ConjugacyClassSpec,
                         tolerances: dict, steps) -> list[dict]:
    """Run the descent / closedness / kernel / nondegeneracy battery; an
    empty ``steps`` skips closedness."""
    checks = []
    tol_flat = tolerances["tol_flat"]
    gap_tol = tolerances["gap_tol"]

    def add(name, value, tolerance, ok=None):
        ok = bool(value <= tolerance) if ok is None else bool(ok)
        checks.append({"check": name, "value": float(value),
                       "tolerance": float(tolerance), "pass": ok})
        return ok

    if not add("residual", point.residual_norm, tol_flat):
        return checks
    if not add("irreducible", 0.0 if vy.is_irreducible(point) else 1.0, 0.5):
        return checks
    basis = vy.cohomology_at(point, classes, gap_tol=gap_tol, tol_flat=tol_flat)
    nz, nb, nh = basis.dims()
    add("coboundary_rank", abs(nb - point.spec.dim), 0.5)
    add("rank_gap_quality", 1.0 / max(basis.gap_quality, 1e-300), gap_tol)
    # cocycle condition of the coboundaries
    D = pres.relator_differential_matrix(
        point.spec, point.tuple.mats, point.tuple.genus, point.tuple.boundary_count)
    cocycle_defect = float(np.abs(D @ basis.b_coords).max()) if nb else 0.0
    add("coboundaries_are_cocycles", cocycle_defect, 1e-9)
    # descent, both argument orders
    if nb and nz:
        G1 = tf.form_gram_coords(point, classes, basis.b_coords, basis.z_coords)
        G2 = tf.form_gram_coords(point, classes, basis.z_coords, basis.b_coords)
        descent = max(np.abs(G1).max(), np.abs(G2).max())
    else:
        descent = 0.0
    add("descent", descent, 1e-9)
    omega = tf.form_on_cohomology(point, classes, basis)
    add("form_skew", np.abs(omega + omega.T).max(), 1e-10)
    svals = np.linalg.svd(omega, compute_uv=False)
    smin = float(svals[-1]) if len(svals) else 0.0
    add("nondegenerate_sigma_min", -smin, -1e-8)
    K = tf.kernel_of_form(point, classes, basis)
    add("kernel_matches_coboundaries", _subspace_sine(K, basis.b_coords), 1e-7)
    if steps and nh < 3:
        # no triple of chart directions: every dOmega coefficient is zero
        add("closedness_value", 0.0, 1e-4)
    elif steps:
        vals = tf.closedness_sweep(point, classes, steps, basis)
        add("closedness_value", vals[0], 1e-4)
        order = tf.observed_order(steps, vals)
        add("closedness_order", -order, -1.8)
    return checks


def cmd_certify(cfg: RunConfig, point_path: str, out: str | None, quiet: bool) -> int:
    try:
        with open(point_path) as fh:
            data = json.load(fh)
    except OSError as e:
        error_record("config", f"cannot read point file: {e}")
        return EXIT_CONFIG
    except json.JSONDecodeError as e:
        error_record("config",
                     f"point parse error at line {e.lineno}, column {e.colno}: {e.msg}")
        return EXIT_CONFIG
    try:
        point = vy.RepresentationPoint.from_json(cfg.group, data["point"])
    except (KeyError, CharvarError) as e:
        error_record("config", f"bad point payload: {e}")
        return EXIT_CONFIG
    steps = CERTIFY_STEPS if cfg.closedness_steps is None else cfg.closedness_steps
    checks = certification_checks(point, cfg.problem.classes, cfg.tolerances, steps)
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
    try:
        result = vol.cross_check(cfg.problem, cfg.n_samples, cfg.seed, **cfg.gates)
    except InsufficientSamplesError as e:
        error_record("insufficient_samples", str(e))
        return EXIT_NUMERICAL
    payload = {
        "coarea": result["coarea"].to_json(),
        "tube": result["tube"].to_json(),
        "difference": result["difference"],
        "combined_stderr": result["combined_stderr"],
        "agree_3sigma": result["agree_3sigma"],
        "seed": cfg.seed,
    }
    if fmt == "csv" and out:
        csv_path = os.path.splitext(out)[0] + ".csv"
        _write_sample_csv(csv_path, result["coarea_records"])
        payload["samples_csv"] = os.path.basename(csv_path)
    emit(payload, out, quiet,
         f"volume: coarea {result['coarea'].value:.4g} "
         f"tube {result['tube'].value:.4g} "
         f"(3-sigma agree: {result['agree_3sigma']})")
    return EXIT_OK


def _write_sample_csv(path: str, rec: vol.SampleRecords):
    buf = []
    header = ["converged", "irreducible", "initial_residual",
              "displacement", "density", "jacobian"]
    buf.append(",".join(header))
    for i in range(rec.n):
        buf.append(",".join([
            str(int(rec.converged[i])), str(int(rec.irreducible[i])),
            repr(float(rec.initial_residual[i])), repr(float(rec.displacement[i])),
            repr(float(rec.density[i])), repr(float(rec.jacobian[i])),
        ]))
    atomic_write(path, "\n".join(buf) + "\n")


# ---------------------------------------------------------------------------
# seifert-scan
# ---------------------------------------------------------------------------

def cmd_seifert_scan(cfg: RunConfig, out: str | None, quiet: bool) -> int:
    if cfg.seifert is None:
        error_record("config", "seifert-scan needs a problem of type 'seifert'")
        return EXIT_CONFIG
    steps = cfg.closedness_steps or ()  # the scan runs no closedness by default
    components = []
    worst = EXIT_OK
    for cand in sf.fiber_holonomy_candidates(cfg.seifert):
        problem = sf.variety_problem(cfg.seifert, cand)
        rng = np.random.default_rng(cfg.seed + cand.index)
        entry = cand.to_json()
        try:
            point = problem.solve(rng, tol_flat=cfg.tolerances["tol_flat"])
        except (NoConvergenceError, OutsideDomainError) as e:
            entry["solve"] = {"converged": False, "detail": str(e)}
            components.append(entry)
            worst = max(worst, EXIT_NUMERICAL)
            continue
        point = point.with_irreducible(vy.is_irreducible(point))
        entry["solve"] = {"converged": True,
                          "residual": point.residual_norm,
                          "irreducible": point.irreducible}
        checks = certification_checks(point, problem.classes, cfg.tolerances, steps)
        entry["certify"] = {"checks": checks,
                            "passed": all(c["pass"] for c in checks)}
        if not entry["certify"]["passed"]:
            worst = max(worst, EXIT_CERTIFY)
        components.append(entry)
    payload = {"components": components, "seed": cfg.seed,
               "count": len(components)}
    emit(payload, out, quiet, f"seifert-scan: {len(components)} components")
    return worst


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
    except ConfigError as e:
        error_record("config", str(e))
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format == "csv" and args.command != "volume":
        error_record("config", "csv format is only supported by 'volume'")
        return EXIT_CONFIG
    try:
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.quiet)
        if args.command == "certify":
            return cmd_certify(cfg, args.point, args.out, args.quiet)
        if args.command == "volume":
            return cmd_volume(cfg, args.out, args.format, args.quiet)
        if args.command == "seifert-scan":
            return cmd_seifert_scan(cfg, args.out, args.quiet)
    except DimensionMismatchError as e:
        error_record("config", str(e))
        return EXIT_CONFIG
    except (NoConvergenceError, OutsideDomainError, InsufficientSamplesError) as e:
        error_record("numerical", str(e))
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

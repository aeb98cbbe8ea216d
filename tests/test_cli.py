"""Command-line interface: exit codes, determinism, report schema."""

import functools
import json
import warnings

import numpy as np
import pytest

from charvar import cli
from charvar import liegroup as lg
from charvar import seifert as sf
from charvar import variety as vy
from charvar.errors import NoConvergenceError, RankDeficiencyWarning
from charvar.liegroup import GroupSpec
from charvar.presentation import GeneratorTuple, evaluate_relator
from charvar.variety import ConjugacyClassSpec, RepresentationPoint, cohomology_at
from conftest import certify_point, identity_tuple


def _not_json(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


# every payload and error record is read as RFC 8259 JSON: NaN and Infinity fail
loads = functools.partial(json.loads, parse_constant=_not_json)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "group": {"family": "SU", "rank": 2},
        "problem": {"type": "surface", "genus": 2},
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def validate_report_schema(data):
    """Hand-rolled check of the published report schema."""
    assert isinstance(data, dict)
    assert isinstance(data["passed"], bool)
    assert isinstance(data["checks"], list)
    for entry in data["checks"]:
        assert set(entry) >= {"check", "value", "tolerance", "pass"}
        assert isinstance(entry["check"], str)
        assert isinstance(entry["value"], float)
        assert isinstance(entry["tolerance"], float)
        assert isinstance(entry["pass"], bool)


def test_solve_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parser_is_reused_across_calls(tmp_path, capsys):
    """One parser serves every ``main`` call of a process: a call that
    argparse rejects leaves it unchanged, so the next ``solve`` writes the
    bytes a fresh process writes."""
    import subprocess
    import sys

    assert cli.build_parser() is cli.build_parser()
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--out", str(tmp_path / "never.json")])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    after, alone = tmp_path / "after.json", tmp_path / "alone.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(after), "--quiet"]) == 0
    subprocess.run([sys.executable, "-m", "charvar.cli", "solve", "--config", cfg,
                    "--out", str(alone), "--quiet"], check=True)
    assert not (tmp_path / "never.json").exists()
    assert after.read_bytes() == alone.read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["solve", "--config", cfg, "--out", str(out1), "--quiet"])
    cli.main(["solve", "--config", cfg, "--seed", "99", "--out", str(out2),
              "--quiet"])
    assert out1.read_bytes() != out2.read_bytes()
    assert loads(out2.read_text())["seed"] == 99


def test_malformed_config_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group": {"family": "SU", "rank": 2}\n  "problem": }')
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == 1
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "line" in err["detail"] and "column" in err["detail"]
    # the closedness steps are a constant: a certify section is unknown
    cfg = write_config(tmp_path, certify={"closedness_steps": [1e-3, 5e-4]})
    assert cli.main(["certify", "--config", cfg, "--point", "unread.json"]) == 1
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": "unknown key 'certify' in the "
                   "config root (known: group, problem, seed, tolerances, solver, "
                   "volume)"}
    # every solve starts from the problem's Haar draw: a start key is unknown
    cfg = write_config(tmp_path, initial="identity")
    assert cli.main(["solve", "--config", cfg]) == 1
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "config", "detail": "unknown key 'initial' in the "
                   "config root (known: group, problem, seed, tolerances, solver, "
                   "volume)"}


SEIFERT = {"type": "seifert", "genus": 2, "euler": 1}


@pytest.mark.parametrize("bad", [
    {"problem": {"type": "orbifold"}},
    {"problem": {"type": "surface", "genus": 2, "boundary_count": 1}},
    {"volume": {"n_samples": "many"}},
    {"solver": {"max_iter": "x"}},
    {"volume": {"residual_gate": "x"}},
    {"problem": {**SEIFERT, "zeta_index": "a"}},
    {"tolerances": [1]},
    {"solver": [1]},
    {"tolerances": {"tol_group": 1e-3}},
    {"group": {"family": "SU", "rank": 2.9}},
    {"problem": {"type": "surface", "genus": 2.7}},
    {"problem": {"type": "surface", "genus": 2, "boundary_count": 0.5}},
    {"problem": {**SEIFERT, "euler": 1.5}},
    {"seed": True},
    {"seed": 11.0},
    {"seed": -1},
    {"problem": {"type": "surface", "genus": 0}},
    {"problem": {"type": "surface", "genus": 2, "boundary_count": -1}},
    {"problem": {"type": "surface", "genus": 2, "boundary_count": 2,
                 "classes": {"representatives": [[[[1.0, 0.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [1.0, 0.0]]]]}}},
], ids=["orbifold", "boundary-without-classes", "n-samples-string",
        "max-iter-string", "gate-string", "zeta-index-string",
        "tolerances-not-object", "solver-not-object", "unknown-tolerance",
        "rank-float", "genus-float", "boundary-count-float", "euler-float",
        "seed-bool", "seed-float", "seed-negative", "genus-zero",
        "boundary-count-negative", "boundary-count-disagrees"])
@pytest.mark.parametrize("command", ["solve", "volume"])
def test_bad_problem_type_exit_1(tmp_path, capsys, bad, command):
    """A malformed config is rejected when it is loaded, whichever command
    reads it: exit 1 and one JSON config record on stderr.  An integer
    boundary count that is not the number of class representatives is
    named with both numbers."""
    cfg = write_config(tmp_path, **bad)
    assert cli.main([command, "--config", cfg]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = loads(lines[0])
    assert err["error"] == "config"
    m = bad["problem"].get("boundary_count") if "problem" in bad else None
    if type(m) is int:
        k = len(bad["problem"].get("classes", {}).get("representatives", []))
        assert err["detail"] == (f"bad surface problem: boundary_count {m} is not "
                                 f"the number of class representatives ({k})")


@pytest.mark.parametrize("command", ["solve", "seifert-scan"])
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, command):
    """``--seed -1`` seeds no generator: exit 1 and one JSON config record,
    not argparse's usage exit or an internal error."""
    cfg = write_config(tmp_path, problem=SEIFERT)
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", cfg, "--seed", "-1",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert loads(lines[0]) == {
        "error": "config", "detail": "seed must be a non-negative integer, not -1"}
    assert not out.exists()


def test_csv_rejected_outside_volume(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["solve", "--config", cfg, "--format", "csv"]) == 1


def test_volume_csv_without_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    """The CSV is written beside ``--out``: without it, exit 1 and one config
    record, before any stream runs."""
    def no_run(*args, **kwargs):
        raise AssertionError("a volume stream ran")

    monkeypatch.setattr(cli.vol, "cross_check", no_run)
    cfg = write_config(tmp_path)
    assert cli.main(["volume", "--config", cfg, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert loads(lines[0])["error"] == "config"
    assert not list(tmp_path.glob("*.csv"))


def test_volume_csv_named_like_its_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    """``--out v.csv --format csv`` names the CSV and the JSON alike, and the
    JSON would overwrite the CSV: exit 1 and one config record, before any
    stream runs."""
    def no_run(*args, **kwargs):
        raise AssertionError("a volume stream ran")

    monkeypatch.setattr(cli.vol, "cross_check", no_run)
    cfg = write_config(tmp_path)
    out = tmp_path / "v.csv"
    assert cli.main(["volume", "--config", cfg, "--out", str(out),
                     "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert loads(lines[0])["error"] == "config"
    assert not out.exists()


def test_solve_then_certify_passes(tmp_path):
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point),
                     "--quiet"]) == 0
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    assert rc == 0
    data = loads(report.read_text())
    validate_report_schema(data)
    assert data["passed"]
    names = {c["check"] for c in data["checks"]}
    assert {"residual", "descent", "form_skew", "kernel_matches_coboundaries",
            "closedness"} <= names
    checks = {c["check"]: c for c in data["checks"]}
    assert checks["kernel_matches_coboundaries"]["value"] <= 1e-13
    assert checks["closedness"]["value"] <= 1e-12


def test_subspace_sine_known_angle():
    """Planes at principal angles 0.3 and 0.1, rotated together: the sine
    of the largest angle is sin 0.3; a dimension mismatch reads 1."""
    e = np.eye(4)
    K = e[:, :2]
    B = np.stack([np.cos(0.3) * e[0] + np.sin(0.3) * e[2],
                  np.cos(0.1) * e[1] + np.sin(0.1) * e[3]], axis=1)
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    assert abs(cli._subspace_sine(Q @ K, Q @ B) - np.sin(0.3)) < 1e-14
    assert abs(cli._subspace_sine(Q @ B, Q @ K) - np.sin(0.3)) < 1e-14
    c, s = np.cos(1.2), np.sin(1.2)
    assert cli._subspace_sine(Q @ K, Q @ K @ np.array([[c, -s], [s, c]])) < 1e-15
    assert cli._subspace_sine(K, B[:, :1]) == 1.0


def _diag_json(*phases):
    return [[[float(np.cos(p)), float(np.sin(p))] if j == k else [0.0, 0.0]
             for k in range(len(phases))] for j, p in enumerate(phases)]


def _solve_and_certify(tmp_path, cfg, seed):
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--seed", str(seed),
                     "--out", str(point), "--quiet"]) == 0
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    return rc, loads(report.read_text())


def test_certify_generic_boundary_class_passes(tmp_path):
    """Genus 2 with one boundary at diag(e^{0.3i}, e^{-0.3i}): the boundary
    term is nonzero and every check, closedness included, passes."""
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 2, "boundary_count": 1,
        "classes": {"representatives": [_diag_json(0.3, -0.3)]}})
    rc, data = _solve_and_certify(tmp_path, cfg, 3)
    assert rc == 0, data
    validate_report_schema(data)
    checks = {c["check"]: c for c in data["checks"]}
    assert {"descent", "form_skew", "kernel_matches_coboundaries",
            "closedness"} <= set(checks)
    assert checks["closedness"]["value"] <= 1e-12


def test_certify_closedness_at_two_h1_directions(tmp_path):
    """Genus 1 with one boundary: dim h1 = 2 leaves no reduced dOmega
    coefficient, but the ambient frame has triples, so the closedness
    identity reads at rounding level, not 0."""
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 1, "boundary_count": 1,
        "classes": {"representatives": [_diag_json(0.3, -0.3)]}})
    rc, data = _solve_and_certify(tmp_path, cfg, 3)
    assert rc == 0, data
    checks = {c["check"]: c for c in data["checks"]}
    assert 0.0 < checks["closedness"]["value"] <= 1e-12


def test_certify_slc_is_a_structured_config_error(tmp_path):
    """certify runs on the SU family only (on SL(2, C) the irreducibility
    check is not a Burnside test): on an SL(2, C) point it ends in the JSON
    error record with the config exit code, not in a traceback, and runs no
    battery."""
    import subprocess
    import sys

    cfg = write_config(tmp_path, group={"family": "SLC", "rank": 2}, seed=3)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "certify", "--config", cfg,
         "--point", str(point), "--out", str(tmp_path / "report.json"), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    err = loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "SU family only" in err["detail"]
    assert not (tmp_path / "report.json").exists()


def test_volume_slc_is_a_structured_config_error(tmp_path):
    """Volume estimation is defined on the SU family only: on an SL(2, C)
    config it ends in the JSON error record with the config exit code."""
    import subprocess
    import sys

    cfg = write_config(tmp_path, group={"family": "SLC", "rank": 2},
                       volume={"n_samples": 100})
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "volume", "--config", cfg,
         "--out", str(tmp_path / "volume.json"), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    err = loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "SU family only" in err["detail"]
    assert not (tmp_path / "volume.json").exists()


def test_certify_determinism(tmp_path):
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--out", str(r1), "--quiet"]) == 0
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--out", str(r2), "--quiet"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_certify_perturbed_point_exit_3(tmp_path):
    """A residual of about 1e-3 must trip the precondition gate."""
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"])
    data = loads(point.read_text())
    mat = np.array(data["point"]["a"][0], dtype=float)
    mat[0][0][0] += 1e-3
    data["point"]["a"][0] = mat.tolist()
    data["point"]["residual"] = 1e-3
    point.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    assert rc == 3
    rep = loads(report.read_text())
    assert not rep["passed"]
    assert rep["checks"][0]["check"] == "residual"
    assert not rep["checks"][0]["pass"]


GENUS_1_CLASS = {"type": "surface", "genus": 1, "boundary_count": 1,
                 "classes": {"representatives": [_diag_json(0.3, -0.3)]}}


def test_certify_reevaluates_a_stale_residual(tmp_path):
    """A solved point moved by 1e-7 and saved with its old residual: the
    battery reads the residual of the tuple in the file, which fails the
    residual check (exit 3); the report's residual is the recorded one."""
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0
    data = loads(point.read_text())
    mat = np.array(data["point"]["a"][0], dtype=float)
    mat[0][0][0] += 1e-7
    data["point"]["a"][0] = mat.tolist()
    point.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    assert rc == cli.EXIT_CERTIFY
    rep = loads(report.read_text())
    assert rep["residual"] == data["point"]["residual"] < 1e-12
    assert [c["check"] for c in rep["checks"]] == ["residual"]
    assert 1e-8 < rep["checks"][0]["value"] < 1e-6
    assert not rep["checks"][0]["pass"]


def test_certify_reads_the_solved_residual(tmp_path):
    """On a solved point the battery's residual is the recorded one, bit
    for bit: the solver's last evaluation, in the same shapes."""
    for problem in ({"type": "surface", "genus": 2}, GENUS_1_CLASS):
        cfg = write_config(tmp_path, problem=problem)
        rc, data = _solve_and_certify(tmp_path, cfg, 3)
        assert rc == 0, data
        assert data["checks"][0]["check"] == "residual"
        assert data["checks"][0]["value"] == data["residual"]


def test_battery_evaluates_one_residual_at_its_targets(tmp_path, monkeypatch):
    """Each battery call evaluates the relator once, for its whole stack, at
    the stacked targets it is given: the config's target on ``certify``,
    the converged components' targets on ``seifert-scan``."""
    inside, battery, evaluate = [False], cli.certification_checks, vy._batch_residual
    calls = []

    def flagged(*args):
        inside[0] = True
        try:
            return battery(*args)
        finally:
            inside[0] = False

    def spied(mats, classes, z0i):
        if inside[0]:
            calls.append((mats.shape, np.array(z0i)))
        return evaluate(mats, classes, z0i)

    monkeypatch.setattr(cli, "certification_checks", flagged)
    monkeypatch.setattr(vy, "_batch_residual", spied)
    minus = {"type": "surface", "genus": 2,
             "classes": {"target": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}}
    rc, _ = _solve_and_certify(tmp_path, write_config(tmp_path, problem=minus), 3)
    assert rc == 0
    [(shape, z0i)] = calls
    assert shape == (1, 4, 2, 2)
    assert np.array_equal(z0i, -np.eye(2)[None])
    calls.clear()
    cfg = write_config(tmp_path, group={"family": "SU", "rank": 3}, problem=SEIFERT)
    assert cli.main(["seifert-scan", "--config", cfg, "--out",
                     str(tmp_path / "scan.json"), "--quiet"]) == 0
    targets = np.stack([c.target for c in sf.fiber_holonomy_candidates(
        cli.RunConfig.from_file(cfg).seifert)])
    [(shape, z0i)] = calls
    assert shape == (3, 4, 3, 3)
    assert np.array_equal(z0i, lg.group_inverse(GroupSpec("SU", 3), targets))


def test_battery_reads_each_tuple_at_its_own_target(solved_points, su2):
    """A stack of points solved at I and at -I passes at its own targets;
    a tuple given the other's target fails its residual check and stops
    there, and its neighbour keeps its list."""
    minus = vy.VarietyProblem(2, ConjugacyClassSpec(su2, target=-np.eye(2)))
    mats = np.stack([solved_points[0].tuple.mats,
                     minus.solve(np.random.default_rng(3)).tuple.mats])
    targets = np.stack([np.eye(2), -np.eye(2)])
    classes = ConjugacyClassSpec(su2)
    right = cli.certification_checks(mats, targets, classes, cli.DEFAULT_TOLERANCES, False)
    assert all(c["pass"] for checks in right for c in checks)
    for k in (0, 1):
        swapped = targets.copy()
        swapped[k] = targets[1 - k]
        got = cli.certification_checks(mats, swapped, classes, cli.DEFAULT_TOLERANCES, False)
        assert [c["check"] for c in got[k]] == ["residual"]
        assert not got[k][0]["pass"]
        assert got[1 - k] == right[1 - k]


def test_certify_outside_the_log_domain_writes_a_null_residual(tmp_path):
    """A point solved at z0 = -I and certified at z0 = I: its relator sits at
    -I, outside the principal-log domain of the residual.  The report fails
    with exit 3 and is RFC 8259 JSON: the residual's value is null."""
    minus = {"type": "surface", "genus": 2,
             "classes": {"target": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}}
    point, report = tmp_path / "point.json", tmp_path / "report.json"
    assert cli.main(["solve", "--config", write_config(tmp_path, "minus.json", problem=minus),
                     "--seed", "3", "--out", str(point), "--quiet"]) == 0
    assert cli.main(["certify", "--config", write_config(tmp_path), "--point", str(point),
                     "--out", str(report), "--quiet"]) == cli.EXIT_CERTIFY
    data = loads(report.read_text())
    assert data["checks"] == [{"check": "residual", "value": None, "pass": False,
                               "tolerance": cli.DEFAULT_TOLERANCES["tol_flat"]}]
    assert data["passed"] is False


def test_a_non_finite_payload_value_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A payload is never written with NaN or Infinity: a check value that is
    not finite ends in the internal error record, exit 4, and no report."""
    cfg = write_config(tmp_path)
    point, report = tmp_path / "point.json", tmp_path / "report.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0
    monkeypatch.setattr(cli, "certification_checks", lambda *args: [[
        {"check": "descent", "value": float("nan"), "tolerance": 1e-9, "pass": False}]])
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--out", str(report), "--quiet"]) == cli.EXIT_INTERNAL
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "internal"
    assert err["detail"].startswith("ValueError: Out of range float values")
    assert not report.exists()


@pytest.mark.parametrize("solved, certified", [
    (GENUS_1_CLASS, {"type": "surface", "genus": 2}),
    ({"type": "surface", "genus": 2}, {"type": "surface", "genus": 3}),
    ({"type": "surface", "genus": 2}, GENUS_1_CLASS),
], ids=["g1-class-point-closed-g2-config", "g2-point-g3-config",
        "g2-point-g1-class-config"])
def test_certify_point_of_another_problem_is_a_config_error(
        tmp_path, capsys, solved, certified):
    """A point whose genus or boundary count is not the config's problem's
    is bad input: exit 1 and one config record, and no report."""
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", write_config(tmp_path, "s.json", problem=solved),
                     "--seed", "3", "--out", str(point), "--quiet"]) == 0
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", write_config(tmp_path, problem=certified),
                   "--point", str(point), "--out", str(report), "--quiet"])
    assert rc == cli.EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = loads(lines[0])
    assert err["error"] == "config" and err["detail"].startswith("point has genus")
    assert not report.exists()


def test_certify_numerical_failure_is_no_convergence(tmp_path, capsys, monkeypatch):
    """A numerical failure inside the certify battery ends the run with the
    solver's kind, ``no_convergence``, and exit 2."""
    def stalled(*args):
        raise NoConvergenceError(60, 1e-3, "chart re-solve did not converge")

    monkeypatch.setattr(cli.tf, "closedness_defect", stalled)
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--quiet"]) == cli.EXIT_NUMERICAL
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "no_convergence",
                   "detail": "chart re-solve did not converge"}


def test_volume_insufficient_samples_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, volume={"n_samples": 100})
    rc = cli.main(["volume", "--config", cfg])
    assert rc == 2
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "insufficient_samples"


def test_volume_closed_torus_is_insufficient_samples_not_internal(tmp_path, capsys):
    """SU(2) genus 1 over z0 = I lands on commuting pairs, where a damped
    normal system can be singular: the solve takes a least-squares step
    there, and the run ends in exit 2 because the surface has no
    irreducible point, not in an internal error."""
    cfg = write_config(tmp_path, problem={"type": "surface", "genus": 1},
                       volume={"n_samples": 3000})
    with pytest.warns(UserWarning, match="closed genus-1 surface"):
        rc = cli.main(["volume", "--config", cfg, "--seed", "1", "--quiet"])
    assert rc == cli.EXIT_NUMERICAL == 2
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "insufficient_samples"


def test_unmapped_exception_exit_4(tmp_path, capsys, monkeypatch):
    """An exception no handler names is an internal error, not a config one."""
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", crash)
    rc = cli.main(["solve", "--config", write_config(tmp_path)])
    assert rc == cli.EXIT_INTERNAL == 4
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert loads(lines[0]) == {"error": "internal", "detail": "RuntimeError: boom"}


def test_volume_run_and_csv(tmp_path):
    cfg = write_config(tmp_path, volume={"n_samples": 1500}, seed=75)
    out = tmp_path / "vol.json"
    rc = cli.main(["volume", "--config", cfg, "--out", str(out),
                   "--format", "csv", "--quiet"])
    assert rc == 0
    data = loads(out.read_text())
    assert data["agree_3sigma"] is True
    assert data["coarea"]["value"] > 0 and data["tube"]["value"] > 0
    assert data["coarea"]["convention"] == (
        "relative symplectic volume; Haar-probability ambient baseline; "
        "-trace(XY) pairing metric; coarea(residual_gate=0.6)")
    csv_path = tmp_path / "vol.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["converged", "irreducible", "initial_residual",
                      "displacement", "density", "jacobian"]
    # the CSV holds the co-area stream: its gate count is the payload's
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 1500
    landed = sum(1 for r in rows
                 if r[0] == "1" and r[1] == "1" and float(r[2]) <= 0.6)
    assert landed == data["coarea"]["landings"]
    # the stream projects exactly the rows inside the co-area gate: the
    # converged and displacement fields of the others are blank; every
    # converged row is evaluated and filled, the irreducible, density and
    # jacobian fields of the other rows are blank, and every converged row
    # carries a finite screened distance
    for r in rows:
        projected = float(r[2]) <= 0.6
        assert (r[0] != "" and r[3] != "") if projected else r[0] == r[3] == ""
        evaluated = r[0] == "1"
        assert all(r) if evaluated else r[1] == r[4] == r[5] == ""
        if projected:
            assert np.isfinite(float(r[3])) == evaluated
    assert any(r[0] == "" for r in rows) and any(r[0] == "1" for r in rows)


def test_volume_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, volume={"n_samples": 1500}, seed=75)
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "vol.json"
        assert cli.main(["volume", "--config", cfg, "--out", str(out),
                         "--format", "csv", "--quiet"]) == 0
        runs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert runs[0] == runs[1]


def test_seifert_scan_two_components(tmp_path):
    cfg = write_config(
        tmp_path,
        problem={"type": "seifert", "genus": 2, "euler": 1},
    )
    out = tmp_path / "scan.json"
    rc = cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                   "--quiet"])
    assert rc == 0
    data = loads(out.read_text())
    assert data["count"] == 2
    for comp in data["components"]:
        assert comp["solve"]["converged"]
        assert comp["solve"]["irreducible"]
        assert comp["certify"]["passed"]


def test_seifert_scan_runs_no_closedness_by_default(tmp_path):
    """The scan certifies every component but runs no closedness sweep."""
    cfg = write_config(tmp_path, problem=SEIFERT)
    out = tmp_path / "scan.json"
    assert cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    comps = loads(out.read_text())["components"]
    names = {c["check"] for comp in comps for c in comp["certify"]["checks"]}
    assert "descent" in names
    assert not any(n.startswith("closedness") for n in names)


def test_seifert_scan_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, group={"family": "SU", "rank": 3}, problem=SEIFERT)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _no_nudges(*args, **kwargs):
    raise AssertionError("unexpected branch-cut nudge")


def test_seifert_scan_honours_max_iter(tmp_path, monkeypatch):
    """At ``solver.max_iter = 1`` no component converges: each reports the
    NoConvergenceError a one-iteration ``solve`` of it raises, and the scan
    exits 2."""
    monkeypatch.setattr(lg, "random_algebra", _no_nudges)
    cfg = write_config(tmp_path, problem=SEIFERT, solver={"max_iter": 1})
    out = tmp_path / "scan.json"
    assert cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                     "--quiet"]) == cli.EXIT_NUMERICAL
    comps = loads(out.read_text())["components"]
    data = sf.SeifertData(2, 1, GroupSpec("SU", 2))
    assert len(comps) == 2
    for cand, comp in zip(sf.fiber_holonomy_candidates(data), comps):
        with pytest.raises(NoConvergenceError) as err:
            sf.variety_problem(data, cand).solve(
                np.random.default_rng(11 + cand.index), max_iter=1)
        assert comp["solve"] == {"converged": False, "detail": str(err.value)}
        assert "certify" not in comp


def _per_component_scan(cfg: cli.RunConfig) -> dict:
    """The scan payload solved one component at a time: ``problem.solve``
    from ``default_rng(seed + k)``, then ``is_irreducible``, then the
    battery on a stack of that one point."""
    comps = []
    for cand in sf.fiber_holonomy_candidates(cfg.seifert):
        problem = sf.variety_problem(cfg.seifert, cand)
        point = problem.solve(np.random.default_rng(cfg.seed + cand.index),
                              tol_flat=cfg.tolerances["tol_flat"], max_iter=cfg.max_iter)
        point = point.with_irreducible(vy.is_irreducible(point))
        checks = certify_point(point, problem.classes, cfg.tolerances)
        comps.append({**cand.to_json(),
                      "solve": {"converged": True, "residual": point.residual_norm,
                                "irreducible": point.irreducible},
                      "certify": {"checks": checks,
                                  "passed": all(c["pass"] for c in checks)}})
    return {"components": comps, "seed": cfg.seed, "count": len(comps)}


@pytest.mark.parametrize("rank, seeds", [(2, (11, 12)), (3, (0,))])
def test_seifert_scan_matches_per_component_solves(tmp_path, monkeypatch, rank, seeds):
    """On seeds that draw no branch-cut nudge, the batched scan writes the
    bytes of the per-component path."""
    monkeypatch.setattr(lg, "random_algebra", _no_nudges)
    cfg = write_config(tmp_path, group={"family": "SU", "rank": rank}, problem=SEIFERT)
    for seed in seeds:
        out = tmp_path / f"scan{seed}.json"
        assert cli.main(["seifert-scan", "--config", cfg, "--seed", str(seed),
                         "--out", str(out), "--quiet"]) == 0
        run = cli.RunConfig.from_file(cfg)
        run.seed = seed
        want = json.dumps(_per_component_scan(run), indent=2, sort_keys=True) + "\n"
        assert out.read_text() == want


@pytest.mark.parametrize("rank", [2, 3])
def test_seifert_scan_certifies_its_own_residuals(tmp_path, monkeypatch, rank):
    """Each component's residual check is the battery's own evaluation at
    its target: the solver's residual bit for bit, and unchanged when the
    solver writes back zero residuals."""
    cfg = write_config(tmp_path, group={"family": "SU", "rank": rank}, problem=SEIFERT)

    def scan(seed):
        out = tmp_path / f"scan{seed}.json"
        rc = cli.main(["seifert-scan", "--config", cfg, "--seed", str(seed),
                       "--out", str(out), "--quiet"])
        return rc, [c for c in loads(out.read_text())["components"]
                    if c["solve"]["converged"]]

    scans = {seed: scan(seed) for seed in (1, 2, 3)}
    values = [c["certify"]["checks"][0]["value"] for _, comps in scans.values()
              for c in comps]
    assert values == [c["solve"]["residual"] for _, comps in scans.values() for c in comps]
    assert any(values)
    project = vy.project_batch

    def zeroed(*args, **kwargs):
        mats, rnorm, iters, conv = project(*args, **kwargs)
        return mats, np.zeros_like(rnorm), iters, conv

    monkeypatch.setattr(vy, "project_batch", zeroed)
    for seed, (rc, comps) in scans.items():
        rc0, comps0 = scan(seed)
        assert rc0 == rc
        assert [c["certify"] for c in comps0] == [c["certify"] for c in comps]
        assert all(c["solve"]["residual"] == 0.0 for c in comps0)


def test_battery_builds_one_differential_and_one_irreducibility(
        solved_points, closed_problem, tmp_path, monkeypatch):
    """The cocycle check reads the split's differential, and irreducibility
    is read off the split's coboundary SVD: neither the battery nor the
    scan, whose irreducibility flag is the battery's, calls
    ``is_irreducible``."""
    from collections import Counter

    from charvar import presentation

    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(presentation, "relator_differential_matrix")
    counted(vy, "is_irreducible")
    certify_point(solved_points[0], closed_problem.classes)
    assert calls == {"relator_differential_matrix": 1}
    calls.clear()
    cfg = write_config(tmp_path, problem=SEIFERT)
    assert cli.main(["seifert-scan", "--config", cfg, "--out",
                     str(tmp_path / "scan.json"), "--quiet"]) == 0
    assert calls["is_irreducible"] == 0


def test_certify_runs_one_cohomology_split(solved_points, closed_problem, monkeypatch):
    """The closedness check reads the linearization of the battery's split."""
    from charvar import variety

    calls, split = [], variety.cohomology_split

    def counted(*args, **kwargs):
        calls.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(variety, "cohomology_split", counted)
    checks = certify_point(solved_points[0], closed_problem.classes, closedness=True)
    assert "closedness" in {c["check"] for c in checks}
    assert len(calls) == 1


def test_certify_evaluates_each_relator_word_once(tmp_path, monkeypatch):
    """A certify op builds partial products once, for the point: its
    residual re-evaluation makes them, and the battery's linearization
    reads them for the split, the cocycle check, the form and the
    closedness identity.  That is 1 tuple row, where the Newton chart of
    the closedness sweep made 74; no chart is built."""
    from charvar import presentation, twoform

    cfg = write_config(tmp_path)
    point, report = tmp_path / "point.json", tmp_path / "report.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0

    rows, charts = [], []
    products, chart_init = presentation.partial_products, twoform._Chart.__init__

    def counted(spec, mats, g, m):
        rows.append(int(np.prod(mats.shape[:-3])))
        return products(spec, mats, g, m)

    def counted_chart(self, *args, **kwargs):
        charts.append(1)
        chart_init(self, *args, **kwargs)

    monkeypatch.setattr(presentation, "partial_products", counted)
    monkeypatch.setattr(twoform._Chart, "__init__", counted_chart)
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--out", str(report), "--quiet"]) == 0
    assert "closedness" in {c["check"] for c in loads(report.read_text())["checks"]}
    assert rows == [1]
    assert charts == []


def _stack_battery(points, classes, tolerances=cli.DEFAULT_TOLERANCES, closedness=False):
    """The battery on the stack of ``points``, each at the target of ``classes``."""
    return cli.certification_checks(np.stack([p.tuple.mats for p in points]),
                                    np.stack([classes.target] * len(points)),
                                    classes, tolerances, closedness)


def _mixed_stack(solved_points):
    """SU(2) genus-2 points at z0 = I: a solved one, a solved one moved by
    1e-7, the identity (reducible) and another solved one.  The battery
    evaluates their residuals: the recorded ones are not read."""
    t = solved_points[2].tuple
    moved = t.mats.copy()
    moved[0, 0, 0] += 1e-7
    return [solved_points[0], RepresentationPoint(t.replace_mats(moved), np.nan),
            RepresentationPoint(identity_tuple(t.spec, 2), 0.0),
            solved_points[1]]


@pytest.mark.parametrize("closedness", [False, True])
def test_battery_on_a_mixed_stack_is_the_per_point_battery(
        solved_points, closed_problem, closedness):
    """Each tuple of a stack reads the check list of a stack of that tuple
    alone: the moved point stops at its residual, the identity at
    irreducibility, and the solved points pass every check."""
    points = _mixed_stack(solved_points)
    got = _stack_battery(points, closed_problem.classes, closedness=closedness)
    assert got == [certify_point(p, closed_problem.classes, closedness=closedness)
                   for p in points]
    assert [[c["check"] for c in checks] for checks in got[1:3]] == [
        ["residual"], ["residual", "irreducible"]]
    assert not got[1][-1]["pass"] and not got[2][-1]["pass"]
    assert all(c["pass"] for c in got[0] + got[3])
    assert ("closedness" in {c["check"] for c in got[0]}) == closedness


def test_battery_cuts_each_tuple_at_its_own_rank(solved_points, closed_problem,
                                                 monkeypatch):
    """A tuple whose own ``rank(D E)`` reads below dim g (planted: the rank
    the split reports for it is lowered by one) is split again at that rank,
    and its neighbours keep the cut at (dim g, dim g): every list is still
    the one of a stack of that tuple alone."""
    points = _mixed_stack(solved_points)
    odd = points[3].tuple.mats
    unplanted = certify_point(points[3], closed_problem.classes)
    split, d = vy.cohomology_split, closed_problem.spec.dim

    def planted(lin, ranks=None):
        basis, own = split(lin, ranks)
        if ranks == (d, d):
            own[0][0][(lin.mats == odd).all(axis=(-3, -2, -1))] = d - 1
        return basis, own

    monkeypatch.setattr(vy, "cohomology_split", planted)
    got = _stack_battery(points, closed_problem.classes)
    assert got == [certify_point(p, closed_problem.classes) for p in points]
    assert got[3] != unplanted
    assert not all(c["pass"] for c in got[3])


def _messages(record) -> list:
    assert all(issubclass(w.category, RankDeficiencyWarning) for w in record)
    return [str(w.message) for w in record]


def test_battery_warns_for_each_tuple_past_irreducibility(solved_points,
                                                          closed_problem):
    """At gap_tol = 1e-16 every gap is weak: each tuple past irreducibility
    emits the warnings ``cohomology_at`` emits at it, in stack order, and
    the moved point and the identity emit none."""
    tol = {**cli.DEFAULT_TOLERANCES, "gap_tol": 1e-16}
    points = _mixed_stack(solved_points)
    want = []
    for p in (points[0], points[3]):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cohomology_at(p, closed_problem.classes, gap_tol=1e-16)
        assert record
        want += _messages(record)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        _stack_battery(points, closed_problem.classes, tol)
    assert _messages(record) == want


def test_seifert_scan_warns_for_each_component(tmp_path, monkeypatch):
    """The scan's one battery warns as ``cohomology_at`` does at each
    component, in component order."""
    monkeypatch.setattr(lg, "random_algebra", _no_nudges)
    cfg = write_config(tmp_path, group={"family": "SU", "rank": 3}, problem=SEIFERT,
                       tolerances={"gap_tol": 1e-16}, seed=0)
    run = cli.RunConfig.from_file(cfg)
    want = []
    for cand in sf.fiber_holonomy_candidates(run.seifert):
        problem = sf.variety_problem(run.seifert, cand)
        point = problem.solve(np.random.default_rng(cand.index), max_iter=run.max_iter)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            cohomology_at(point, problem.classes, gap_tol=1e-16)
        assert record
        want += _messages(record)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        # the gaps fail the rank_gap_quality check too
        assert cli.main(["seifert-scan", "--config", cfg, "--out",
                         str(tmp_path / "scan.json"), "--quiet"]) == cli.EXIT_CERTIFY
    assert _messages(record) == want


def _counted(monkeypatch, calls, owner, name, inside=None):
    """Count the calls of ``owner.name`` in ``calls[name]``; only while
    ``inside[0]`` is set when ``inside`` is given."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if inside is None or inside[0]:
            calls[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_battery_takes_each_svd_once(tmp_path, monkeypatch):
    """A certify op takes 5 SVDs (the split's three, the form on h1 and its
    kernel on the cocycles) and calls no ``is_irreducible``.  The battery of
    an SU(3) genus-2 scan certifies its three components with one
    linearization, one split and the same 5 SVDs."""
    from collections import Counter

    calls = Counter()
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point), "--quiet"]) == 0
    _counted(monkeypatch, calls, np.linalg, "svd")
    _counted(monkeypatch, calls, vy, "is_irreducible")
    assert cli.main(["certify", "--config", cfg, "--point", str(point),
                     "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
    assert calls == {"svd": 5}

    monkeypatch.undo()
    calls.clear()
    inside, battery = [False], cli.certification_checks
    sizes = []

    def flagged(mats, *args):
        sizes.append(len(mats))
        inside[0] = True
        try:
            return battery(mats, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(cli, "certification_checks", flagged)
    for owner, name in ((np.linalg, "svd"), (vy, "is_irreducible"),
                        (vy, "cohomology_split"), (vy.Linearization, "at")):
        _counted(monkeypatch, calls, owner, name, inside)
    cfg = write_config(tmp_path, group={"family": "SU", "rank": 3}, problem=SEIFERT)
    assert cli.main(["seifert-scan", "--config", cfg, "--out",
                     str(tmp_path / "scan.json"), "--quiet"]) == 0
    assert sizes == [3]
    assert calls == {"svd": 5, "cohomology_split": 1, "at": 1}


def test_certify_evaluates_the_form_once(solved_points, closed_problem, monkeypatch):
    """Descent, the form on h1 and its kernel on the cocycles all come from
    one Gram over the columns [z | b | h]."""
    from charvar import twoform

    calls, form = [], twoform.form_gram_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return form(*args, **kwargs)

    monkeypatch.setattr(twoform, "form_gram_stack", counted)
    checks = certify_point(solved_points[0], closed_problem.classes)
    assert all(c["pass"] for c in checks), checks
    assert len(calls) == 1


def _isolated_point():
    """SU(2) genus 1 with one boundary at the central class -I: with
    a = diag(i, -i) and b = [[0, 1], [-1, 0]], b^-1 a^-1 b a = -I, so the
    relator is exactly I.  The pair has a trivial commutant and
    dim H1 = 0: an isolated irreducible point."""
    su2 = GroupSpec("SU", 2)
    c = -np.eye(2, dtype=complex)
    t = GeneratorTuple.from_parts(su2, [np.diag([1j, -1j])],
                                  [np.array([[0, 1], [-1, 0]], dtype=complex)], [c])
    assert np.array_equal(evaluate_relator(t), np.eye(2))
    return RepresentationPoint(t, 0.0, True), ConjugacyClassSpec(su2, (c,))


def test_certify_isolated_irreducible_point():
    """At dim H1 = 0 the form lives on the zero space: it reads skew 0 and is
    nondegenerate.  The ambient frame still has triples, so closedness reads
    at rounding level, not 0."""
    point, classes = _isolated_point()
    assert cohomology_at(point, classes).dims() == (3, 3, 0)
    checks = certify_point(point, classes, closedness=True)
    assert all(c["pass"] for c in checks), checks
    values = {c["check"]: c["value"] for c in checks}
    assert values["form_skew"] == 0.0
    assert values["nondegenerate_sigma_min"] == 0.0
    assert 0.0 < values["closedness"] <= 1e-12


def test_certify_isolated_irreducible_point_cli(tmp_path):
    """The same point through the CLI: exit 0 and every check passes."""
    import subprocess
    import sys

    point, classes = _isolated_point()
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 1, "boundary_count": 1,
        "classes": classes.to_json()})
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps({"point": point.to_json()}))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "certify", "--config", cfg,
         "--point", str(point_path), "--out", str(report), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    data = loads(report.read_text())
    validate_report_schema(data)
    assert data["passed"] and all(c["pass"] for c in data["checks"])


def _malformed_point(kind):
    """A point file that parses as JSON but not as a point."""
    if kind == "list":
        return [1, 2]
    data = _isolated_point()[0].to_json()
    if kind == "a_number":
        data["a"] = 5
    else:
        data["residual"] = {"residual_string": "x", "residual_null": None,
                            "residual_nan": float("nan")}[kind]
    return {"point": data}


@pytest.mark.parametrize("kind", ["list", "a_number", "residual_string",
                                  "residual_null", "residual_nan"])
def test_certify_malformed_point_is_a_config_error(tmp_path, kind):
    """A point file of the wrong shape or type, or one that is not RFC 8259
    JSON (a NaN), is bad input: the JSON config record and exit 1, not an
    internal error."""
    import subprocess
    import sys

    _, classes = _isolated_point()
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 1, "boundary_count": 1,
        "classes": classes.to_json()})
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps(_malformed_point(kind)))
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "certify", "--config", cfg,
         "--point", str(point_path), "--out", str(tmp_path / "report.json"),
         "--quiet"], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    err = loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["detail"].startswith("bad point payload")
    assert not (tmp_path / "report.json").exists()


def test_seifert_scan_component_count_stable_across_seeds(tmp_path):
    cfg = write_config(
        tmp_path,
        problem={"type": "seifert", "genus": 2, "euler": 1},
    )
    counts = []
    for seed in ("5", "6"):
        out = tmp_path / f"scan{seed}.json"
        assert cli.main(["seifert-scan", "--config", cfg, "--seed", seed,
                         "--out", str(out), "--quiet"]) == 0
        counts.append(loads(out.read_text())["count"])
    assert counts == [2, 2]


def test_quiet_suppresses_notes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "p.json"
    cli.main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert capsys.readouterr().err == ""
    cli.main(["solve", "--config", cfg, "--out", str(out)])
    assert "solved" in capsys.readouterr().err


def test_stdout_payload_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["solve", "--config", cfg, "--quiet"])
    assert rc == 0
    data = loads(capsys.readouterr().out)
    assert data["point"]["residual"] <= cli.DEFAULT_TOLERANCES["tol_flat"]


def test_console_script_installed(tmp_path):
    """The charvar entry point works end to end in a subprocess."""
    import subprocess
    import sys

    cfg = write_config(tmp_path)
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "solve", "--config", cfg,
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert loads(out.read_text())["point"]["residual"] <= cli.DEFAULT_TOLERANCES["tol_flat"]


def test_volume_saturated_gate_is_a_numerical_failure(tmp_path, capsys):
    """At gates 3.0/5.0 the tube stream accepts every one of its 3000 samples
    (its weight reads the same at each, a stderr of 5e-17): exit 2 with a
    structured record that names the saturated gate, and no payload."""
    cfg = write_config(tmp_path, volume={"n_samples": 3000, "residual_gate": 3.0,
                                         "distance_gate": 5.0})
    out = tmp_path / "vol.json"
    rc = cli.main(["volume", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == cli.EXIT_NUMERICAL == 2
    err = loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "insufficient_samples"
    assert "tube stream's distance_gate=5.0 took all 3000 samples" in err["detail"]
    assert not out.exists()

"""Command-line interface: exit codes, determinism, report schema."""

import json

import numpy as np
import pytest

from charvar import cli


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


def test_solve_trivial_identity(tmp_path):
    cfg = write_config(tmp_path, initial="identity")
    out = tmp_path / "point.json"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["point"]["residual"] == 0.0
    assert data["point"]["irreducible"] is False


def test_solve_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["solve", "--config", cfg, "--out", str(out1), "--quiet"])
    cli.main(["solve", "--config", cfg, "--seed", "99", "--out", str(out2),
              "--quiet"])
    assert out1.read_bytes() != out2.read_bytes()
    assert json.loads(out2.read_text())["seed"] == 99


def test_malformed_config_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"group": {"family": "SU", "rank": 2}\n  "problem": }')
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "line" in err["detail"] and "column" in err["detail"]


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
], ids=["orbifold", "boundary-without-classes", "n-samples-string",
        "max-iter-string", "gate-string", "zeta-index-string",
        "tolerances-not-object", "solver-not-object", "unknown-tolerance",
        "rank-float", "genus-float", "boundary-count-float", "euler-float",
        "seed-bool", "seed-float"])
@pytest.mark.parametrize("command", ["solve", "volume"])
def test_bad_problem_type_exit_1(tmp_path, capsys, bad, command):
    """A malformed config is rejected when it is loaded, whichever command
    reads it: exit 1 and one JSON config record on stderr."""
    cfg = write_config(tmp_path, **bad)
    assert cli.main([command, "--config", cfg]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


def test_csv_rejected_outside_volume(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["solve", "--config", cfg, "--format", "csv"]) == 1


def test_solve_then_certify_passes(tmp_path):
    cfg = write_config(tmp_path)
    point = tmp_path / "point.json"
    assert cli.main(["solve", "--config", cfg, "--out", str(point),
                     "--quiet"]) == 0
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    assert rc == 0
    data = json.loads(report.read_text())
    validate_report_schema(data)
    assert data["passed"]
    names = {c["check"] for c in data["checks"]}
    assert {"residual", "descent", "form_skew", "kernel_matches_coboundaries",
            "closedness_value", "closedness_order"} <= names
    kernel = next(c for c in data["checks"]
                  if c["check"] == "kernel_matches_coboundaries")
    assert kernel["value"] <= 1e-13


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
    return rc, json.loads(report.read_text())


def test_certify_generic_boundary_class_passes(tmp_path):
    """Genus 2 with one boundary at diag(e^{0.3i}, e^{-0.3i}): the boundary
    term is nonzero and every check, closedness order included, passes."""
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 2, "boundary_count": 1,
        "classes": {"representatives": [_diag_json(0.3, -0.3)]}})
    rc, data = _solve_and_certify(tmp_path, cfg, 3)
    assert rc == 0, data
    validate_report_schema(data)
    names = {c["check"] for c in data["checks"]}
    assert {"descent", "form_skew", "kernel_matches_coboundaries",
            "closedness_value", "closedness_order"} <= names


def test_certify_two_dimensional_chart_skips_order(tmp_path):
    """Genus 1 with one boundary: dim h1 = 2 leaves no dOmega coefficient,
    so closedness reads 0 and no order is fitted."""
    cfg = write_config(tmp_path, problem={
        "type": "surface", "genus": 1, "boundary_count": 1,
        "classes": {"representatives": [_diag_json(0.3, -0.3)]}})
    rc, data = _solve_and_certify(tmp_path, cfg, 3)
    assert rc == 0, data
    checks = {c["check"]: c for c in data["checks"]}
    assert checks["closedness_value"]["value"] == 0.0
    assert "closedness_order" not in checks


@pytest.mark.parametrize("certify", [
    {"closedness_steps": [1e-3]}, {"closedness_steps": [1e-3, 1e-3]},
    {"closedness_steps": [1e-3, 0.0]}, {"closedness_steps": [1e-3, -5e-4]},
    {"closedness_steps": [1e-3, "5e-4"]}, {"closedness_steps": 1e-3},
    [1e-3, 5e-4]], ids=["one", "repeated", "zero", "negative", "string",
                        "scalar", "section-not-object"])
def test_closedness_steps_need_two_distinct_positive(tmp_path, capsys, certify):
    """One step (or one repeated) fixes no convergence order, and a step
    that is not a positive number fixes no difference quotient."""
    cfg = write_config(tmp_path, certify=certify)
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "closedness_steps" in err["detail"]


def test_certify_slc_is_a_structured_config_error(tmp_path):
    """The closedness chart takes real (SU) coordinates: certify on an
    SL(2, C) point ends in the JSON error record with the config exit code,
    not in a traceback."""
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
    err = json.loads(proc.stderr.strip().splitlines()[-1])
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
    err = json.loads(proc.stderr.strip().splitlines()[-1])
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
    data = json.loads(point.read_text())
    mat = np.array(data["point"]["a"][0], dtype=float)
    mat[0][0][0] += 1e-3
    data["point"]["a"][0] = mat.tolist()
    data["point"]["residual"] = 1e-3
    point.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    rc = cli.main(["certify", "--config", cfg, "--point", str(point),
                   "--out", str(report), "--quiet"])
    assert rc == 3
    rep = json.loads(report.read_text())
    assert not rep["passed"]
    assert rep["checks"][0]["check"] == "residual"
    assert not rep["checks"][0]["pass"]


def test_volume_insufficient_samples_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, volume={"n_samples": 100})
    rc = cli.main(["volume", "--config", cfg])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "insufficient_samples"


def test_volume_run_and_csv(tmp_path):
    cfg = write_config(tmp_path, volume={"n_samples": 1500}, seed=75)
    out = tmp_path / "vol.json"
    rc = cli.main(["volume", "--config", cfg, "--out", str(out),
                   "--format", "csv", "--quiet"])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["agree_3sigma"] is True
    assert data["coarea"]["value"] > 0 and data["tube"]["value"] > 0
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
        certify={"closedness_steps": []},
    )
    out = tmp_path / "scan.json"
    rc = cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                   "--quiet"])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["count"] == 2
    for comp in data["components"]:
        assert comp["solve"]["converged"]
        assert comp["solve"]["irreducible"]
        assert comp["certify"]["passed"]


def test_seifert_scan_runs_no_closedness_by_default(tmp_path):
    """Without a certify section the scan certifies every component but
    runs no closedness sweep."""
    cfg = write_config(tmp_path, problem=SEIFERT)
    out = tmp_path / "scan.json"
    assert cli.main(["seifert-scan", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    comps = json.loads(out.read_text())["components"]
    names = {c["check"] for comp in comps for c in comp["certify"]["checks"]}
    assert "descent" in names
    assert not any(n.startswith("closedness") for n in names)


def test_certify_runs_one_cohomology_split(solved_points, closed_problem, monkeypatch):
    """The closedness chart reuses the split the battery already made."""
    from charvar import variety

    calls, split = [], variety.cohomology_split

    def counted(*args, **kwargs):
        calls.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(variety, "cohomology_split", counted)
    checks = cli.certification_checks(solved_points[0], closed_problem.classes,
                                      cli.DEFAULT_TOLERANCES, cli.CERTIFY_STEPS)
    assert "closedness_order" in {c["check"] for c in checks}
    assert len(calls) == 1


def test_seifert_scan_component_count_stable_across_seeds(tmp_path):
    cfg = write_config(
        tmp_path,
        problem={"type": "seifert", "genus": 2, "euler": 1},
        certify={"closedness_steps": []},
    )
    counts = []
    for seed in ("5", "6"):
        out = tmp_path / f"scan{seed}.json"
        assert cli.main(["seifert-scan", "--config", cfg, "--seed", seed,
                         "--out", str(out), "--quiet"]) == 0
        counts.append(json.loads(out.read_text())["count"])
    assert counts == [2, 2]


def test_quiet_suppresses_notes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "p.json"
    cli.main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert capsys.readouterr().err == ""
    cli.main(["solve", "--config", cfg, "--out", str(out)])
    assert "solved" in capsys.readouterr().err


def test_stdout_payload_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path, initial="identity")
    rc = cli.main(["solve", "--config", cfg, "--quiet"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["point"]["residual"] == 0.0


def test_console_script_installed(tmp_path):
    """The charvar entry point works end to end in a subprocess."""
    import subprocess
    import sys

    cfg = write_config(tmp_path, initial="identity")
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "charvar.cli", "solve", "--config", cfg,
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["point"]["residual"] == 0.0

"""The public API of ``charvar``: adding or dropping a name is deliberate,
and so is a module that a fresh interpreter loads."""

import json
import subprocess
import sys

PUBLIC_NAMES = [
    "CharvarError", "CohomologyBasis", "ConfigError", "ConjugacyClassSpec",
    "DimensionMismatchError", "FiberHolonomy", "GeneratorTuple", "GroupSpec",
    "InsufficientSamplesError", "NoConvergenceError", "NotClassTangentError",
    "OddDimensionError", "OutsideDomainError", "RankDeficiencyWarning",
    "RepresentationPoint", "SeifertData", "VarietyProblem",
    "VolumeEstimate", "adjoint_matrix", "algebra_basis", "algebra_coords",
    "cohomology_at", "coords_to_algebra", "cross_check",
    "errors", "estimate_relative_volume", "evaluate_relator", "exp",
    "fiber_holonomy_candidates", "haar_sample",
    "is_irreducible", "kernel_of_form", "liegroup", "log_near_identity",
    "pairing", "presentation", "project_to_variety", "random_algebra",
    "seifert", "twoform", "variety", "variety_problem", "volume",
]


def test_public_names_snapshot():
    """``dir(charvar)`` after a fresh import, in a new interpreter: importing a
    submodule elsewhere in the session (``charvar.cli``) would bind it too."""
    proc = subprocess.run(
        [sys.executable, "-c", "import charvar, json; print(json.dumps("
         "sorted(n for n in dir(charvar) if not n.startswith('_'))))"],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == sorted(PUBLIC_NAMES)


STARTUP_SCRIPT = r"""
import json, math, os, sys
import numpy as np
from charvar import cli
from charvar import liegroup as lg
from charvar.variety import class_distance, project_to_class

work = sys.argv[1]


def config(name, family, rank, **problem):
    path = os.path.join(work, name + ".json")
    with open(path, "w") as fh:
        json.dump({"group": {"family": family, "rank": rank}, "problem": problem,
                   "seed": 11, "volume": {"n_samples": 1500}}, fh)
    return path


def run(command, cfg, *argv):
    out = os.path.join(work, f"{command}.{os.path.basename(cfg)}")
    return cli.main([command, "--config", cfg, "--out", out, "--quiet", *argv])


c, s = math.cos(0.3), math.sin(0.3)
closed = config("closed", "SU", 2, type="surface", genus=2)
boundary = config("boundary", "SU", 2, type="surface", genus=1, boundary_count=1,
                  classes={"representatives": [[[[c, s], [0, 0]], [[0, 0], [c, -s]]]]})
codes = [
    run("solve", closed),
    run("certify", closed, "--point", os.path.join(work, "solve.closed.json")),
    run("volume", closed),
    run("solve", boundary),
    run("seifert-scan", config("seifert", "SU", 3, type="seifert", genus=2, euler=1)),
]
print(json.dumps({"codes": codes, "loaded": "scipy.linalg" in sys.modules}),
      flush=True)
code = run("solve", config("slc", "SLC", 2, type="surface", genus=2))
print(json.dumps({"codes": [code], "loaded": "scipy.linalg" in sys.modules}),
      flush=True)

import scipy.linalg

su2, su3 = lg.GroupSpec("SU", 2), lg.GroupSpec("SU", 3)
rng = np.random.default_rng(5)
X = lg.random_algebra(su3, rng, scale=0.4, size=4)
g = lg.exp(su3, X)
L, bad = lg.principal_log(su3, g)
rep = np.diag(np.exp([0.3j, -0.3j]))
h = lg.haar_sample(su2, rng)
M = lg.exp(su2, lg.random_algebra(su2, rng, scale=1e-3)) @ h @ rep @ h.conj().T
snapped = project_to_class(su2, M, rep)
print(json.dumps({
    "exp": float(np.abs(g - lg.project_to_group(su3, scipy.linalg.expm(X))).max()),
    "log": float(np.abs(L - lg.project_to_algebra(
        su3, np.array([scipy.linalg.logm(x) for x in g]))).max()),
    "bad": bool(bad.any()),
    "class": [class_distance(su2, snapped, rep), float(np.abs(snapped - M).max())],
}))
"""


def test_su2_cli_runs_never_load_scipy(tmp_path):
    """Every SU op of the benchmark's ``certify`` list -- closed SU(2)
    ``solve``, ``certify`` and ``volume``, an SU(2) boundary-class ``solve``
    and an SU(3) ``seifert-scan`` -- runs on numpy alone, so a fresh
    interpreter never pays the ``scipy.linalg`` import for them; an SL(2, C)
    ``solve`` loads it on first use.  scipy then serves as the oracle of the
    SU(3) exp and log."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    assert json.loads(lines[0]) == {"codes": [0, 0, 0, 0, 0], "loaded": False}
    assert json.loads(lines[1]) == {"codes": [0], "loaded": True}
    assert proc.returncode == 0, proc.stderr
    out = json.loads(lines[2])
    assert out["exp"] < 1e-13 and out["log"] < 1e-13
    assert not out["bad"]
    assert out["class"][0] < 1e-12 and out["class"][1] < 1e-2

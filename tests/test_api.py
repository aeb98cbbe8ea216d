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
    "RepresentationPoint", "SeifertData", "SurfacePresentation", "VarietyProblem",
    "VolumeEstimate", "adjoint", "adjoint_matrix", "algebra_basis", "algebra_coords",
    "closedness_sweep", "cohomology_at", "coords_to_algebra", "cross_check",
    "errors", "estimate_relative_volume", "evaluate_relator", "exp",
    "fiber_holonomy_candidates", "form_on_cohomology", "haar_sample",
    "is_irreducible", "kernel_of_form", "liegroup", "log_near_identity",
    "observed_order", "pairing", "presentation", "project_to_variety",
    "random_algebra", "seifert", "to_surface_problem", "twoform", "variety",
    "variety_problem", "volume",
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
import json, os, sys
import numpy as np
from charvar import cli
from charvar import liegroup as lg
from charvar.variety import class_distance, project_to_class

work = sys.argv[1]
cfg = os.path.join(work, "config.json")
with open(cfg, "w") as fh:
    json.dump({"group": {"family": "SU", "rank": 2},
               "problem": {"type": "surface", "genus": 2}, "seed": 11,
               "volume": {"n_samples": 1500}}, fh)
point = os.path.join(work, "point.json")
codes = [
    cli.main(["solve", "--config", cfg, "--out", point, "--quiet"]),
    cli.main(["certify", "--config", cfg, "--point", point,
              "--out", os.path.join(work, "report.json"), "--quiet"]),
    cli.main(["volume", "--config", cfg,
              "--out", os.path.join(work, "volume.json"), "--quiet"]),
]
print(json.dumps({"codes": codes, "loaded": "scipy.linalg" in sys.modules}),
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
    "exp": bool(np.array_equal(g, lg.project_to_group(su3, scipy.linalg.expm(X)))),
    "log": bool(not bad.any() and np.abs(L - X).max() < 1e-12),
    "schur": bool(all(np.array_equal(a, b) for a, b in
                      zip(lg.schur(M), scipy.linalg.schur(M, output="complex")))),
    "class": [class_distance(su2, snapped, rep), float(np.abs(snapped - M).max())],
    "loaded": "scipy.linalg" in sys.modules,
}))
"""


def test_su2_cli_runs_never_load_scipy(tmp_path):
    """SU(2) ``solve``, ``certify`` and ``volume`` without a boundary class
    use closed forms only, so a fresh interpreter never pays the
    ``scipy.linalg`` import for them.  The paths that do need scipy (SU(3)
    exp and log, the Schur form behind ``project_to_class``) load it on
    first use and compute what scipy computes directly."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    assert json.loads(lines[0]) == {"codes": [0, 0, 0], "loaded": False}
    assert proc.returncode == 0, proc.stderr
    out = json.loads(lines[1])
    assert out["exp"] and out["log"] and out["schur"]
    assert out["class"][0] < 1e-12 and out["class"][1] < 1e-2
    assert out["loaded"] is True

"""The public API of ``charvar``: adding or dropping a name is deliberate."""

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

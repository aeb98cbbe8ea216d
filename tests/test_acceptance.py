"""Acceptance battery: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every tolerance here is pinned; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

import charvar as cv
from charvar import cli
from charvar import liegroup as lg
from charvar import twoform

from conftest import adjoint, form_gram_coords, form_on_cohomology, group_defect
from test_presentation import coords
from test_seifert import on_holonomy_target, perturb_point
from test_twoform import (brute_force_theta, closed_theta, form_kernel, random_coords,
                          theta)
from test_volume import estimate


def report(num, desc, passed):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: {desc}"


def solve_batch(problem, n, seed0):
    pts = []
    for k in range(n):
        p = problem.solve(np.random.default_rng(seed0 + k))
        pts.append(p.with_irreducible(cv.is_irreducible(p)))
    return pts


def test_criterion_1_tangent_dimensions(closed_problem):
    """dim z1 = 9, b1 = 3, h1 = 6 at 20 fresh points, gap >= 1e6, <= 1 min."""
    t0 = time.time()
    pts = solve_batch(closed_problem, 20, 91000)
    ok = True
    for p in pts:
        basis = cv.cohomology_at(p, closed_problem.classes)
        ok &= p.irreducible is True
        ok &= basis.dims() == (9, 3, 6)
        ok &= basis.gap_quality >= 1e6
    elapsed = time.time() - t0
    ok &= elapsed <= 60.0
    report(1, f"tangent dims 9/3/6 with 1e6 gaps at 20 points "
              f"({elapsed:.1f}s)", ok)


@pytest.fixture(scope="module")
def criterion_points(closed_problem):
    return solve_batch(closed_problem, 20, 91000)


def test_criterion_2_descent(criterion_points, closed_problem):
    """|form(b, z)| <= 1e-9 ||b|| ||z|| over full bases, both orders."""
    worst = 0.0
    for p in criterion_points:
        basis = cv.cohomology_at(p, closed_problem.classes)
        G1 = form_gram_coords(p, closed_problem.classes, basis.b_coords, basis.z_coords)
        G2 = form_gram_coords(p, closed_problem.classes, basis.z_coords, basis.b_coords)
        worst = max(worst, np.abs(G1).max(), np.abs(G2).max())
    report(2, f"descent max |form(b, z)| = {worst:.2e} <= 1e-9",
           worst <= 1e-9)


def test_criterion_3_closedness(criterion_points, closed_problem):
    """Order >= 1.8 over h in {1e-3, 5e-4, 2.5e-4}; <= 1e-4 at h = 1e-3;
    at >= 5 points; <= 10 min."""
    t0 = time.time()
    assert twoform._CLOSEDNESS_STEPS == (1e-3, 5e-4, 2.5e-4)
    ok = True
    worst_val, worst_order = 0.0, np.inf
    for p in criterion_points[:5]:
        value, order = twoform.closedness_sweep(p, closed_problem.classes)
        worst_val = max(worst_val, value)
        worst_order = min(worst_order, order)
        ok &= value <= 1e-4 and order >= 1.8
    elapsed = time.time() - t0
    ok &= elapsed <= 600.0
    report(3, f"closedness: max d-coefficient {worst_val:.2e} at h=1e-3, "
              f"min order {worst_order:.2f} ({elapsed:.1f}s)", ok)


def test_criterion_4_nondegeneracy(criterion_points, closed_problem,
                                   minus_problem):
    """sigma_min > 0 and kernel = coboundaries to 1e-7 principal angles,
    on the trivial component and on the zeta = -1 circle-bundle component."""
    def component_ok(points, classes):
        for p in points:
            basis = cv.cohomology_at(p, classes)
            omega = form_on_cohomology(p, classes, basis)
            if np.linalg.svd(omega, compute_uv=False)[-1] <= 0:
                return False
            K = form_kernel(p, classes, basis)
            if K.shape[1] != basis.b_coords.shape[1]:
                return False
            cosines = np.linalg.svd(K.T @ basis.b_coords, compute_uv=False)
            if np.arccos(np.clip(cosines, -1, 1)).max() > 1e-7:
                return False
        return True

    ok = component_ok(criterion_points, closed_problem.classes)
    minus_points = solve_batch(minus_problem, 5, 92000)
    ok &= component_ok(minus_points, minus_problem.classes)
    report(4, "nondegenerate on h1, kernel = coboundaries to 1e-7 "
              "(targets +I and -I)", ok)


def test_criterion_5_rigidity():
    """10/10 twenty-step perturb-reproject walks keep the fiber holonomy."""
    d = cv.SeifertData(2, 1, cv.GroupSpec("SU", 2))
    ok = True
    for cand in cv.fiber_holonomy_candidates(d):
        problem = cv.variety_problem(d, cand)
        for walk in range(5):
            rng = np.random.default_rng(93000 + 100 * cand.index + walk)
            path = [problem.solve(rng)]
            for _ in range(20):
                path.append(perturb_point(path[-1], problem.classes, rng, scale=0.15))
            ok &= all(on_holonomy_target(q, cand) for q in path)
    report(5, "rigidity: 10/10 walks (5 per component), 20 steps each", ok)


def test_criterion_6_formula_fidelity(criterion_points, closed_problem, su2):
    """Boundary form at m=0 equals the closed form to 1e-13 on 1000 random
    triples; the sign convention and letter order match a brute-force
    double-sum oracle on genus-1 tuples."""
    rng = np.random.default_rng(94000)
    worst_eq = 0.0
    for i in range(1000):
        p = criterion_points[i % len(criterion_points)]
        u = random_coords(p.tuple, rng)
        v = random_coords(p.tuple, rng)
        worst_eq = max(worst_eq, abs(closed_theta(p, u, v)
                                     - theta(p, closed_problem.classes, u, v)))
    worst_oracle = 0.0
    for _ in range(50):
        t = cv.GeneratorTuple(su2, 1, 0, lg.haar_sample(su2, rng, size=2))
        p = cv.RepresentationPoint(t, 0.0)
        u = lg.random_algebra(su2, rng, size=t.n_generators)
        v = lg.random_algebra(su2, rng, size=t.n_generators)
        worst_oracle = max(worst_oracle,
                           abs(theta(p, cv.ConjugacyClassSpec(su2),
                                     coords(su2, u), coords(su2, v))
                               - brute_force_theta(t, u, v)))
    ok = worst_eq < 1e-13 and worst_oracle < 1e-13
    report(6, f"formula fidelity: m=0 equality {worst_eq:.1e}, "
              f"brute-force gap {worst_oracle:.1e}", ok)


def test_criterion_7_lie_core_oracles(su2, su3):
    """exp/log roundtrip 1e-10; Ad-invariance 1e-12; Haar stats 5 sigma."""
    rng = np.random.default_rng(95000)
    worst_rt = 0.0
    for _ in range(1000):
        X = cv.random_algebra(su2, rng, scale=0.2)
        nrm = np.linalg.norm(X)
        if nrm > 0.5:
            X = X * (0.5 / nrm)
        worst_rt = max(worst_rt, np.abs(
            lg.principal_log(su2, cv.exp(su2, X))[0] - X).max())
    worst_ad = 0.0
    for spec in (su2, su3):
        for _ in range(200):
            g = cv.haar_sample(spec, rng)
            X = cv.random_algebra(spec, rng)
            Y = cv.random_algebra(spec, rng)
            worst_ad = max(worst_ad, abs(
                cv.pairing(spec, adjoint(spec, g, X), adjoint(spec, g, Y))
                - cv.pairing(spec, X, Y)))
    n = 100_000
    g = cv.haar_sample(su2, rng, size=n)
    sigma_mean = math.sqrt(1.0 / (2 * 2 * n))
    mean_ok = np.abs(g.mean(axis=0)).max() < 5 * sigma_mean
    sq = np.abs(g) ** 2
    sigma_emp = sq.std(axis=0, ddof=1) / math.sqrt(n)
    second_ok = np.all(np.abs(sq.mean(axis=0) - 0.5) < 5 * sigma_emp)
    det_ok = group_defect(su2, g[:1000]).max() < lg.TOL_GROUP
    ok = worst_rt < 1e-10 and worst_ad < 1e-12 and mean_ok and second_ok and det_ok
    report(7, f"lie core: roundtrip {worst_rt:.1e}, Ad-invariance "
              f"{worst_ad:.1e}, Haar within 5 sigma", ok)


def test_criterion_8_volume_consistency(closed_problem, minus_problem):
    """Tube and co-area estimators agree within 3 combined stderr on both
    components; stderr ratio in [1.2, 1.6] under doubling; <= 30 min."""
    t0 = time.time()
    ok = True
    for problem, seed in ((closed_problem, 96000), (minus_problem, 97000)):
        res = cv.cross_check(problem, 3000, seed)
        ok &= res["agree_3sigma"]
        ok &= res["coarea"].value > 0 and res["tube"].value > 0
        ok &= math.isfinite(res["coarea"].value)
    a = estimate(closed_problem, 3000, 98000, "tube")
    b = estimate(closed_problem, 6000, 98001, "tube")
    ratio = a.stderr / b.stderr
    ok &= 1.2 <= ratio <= 1.6
    elapsed = time.time() - t0
    ok &= elapsed <= 1800.0
    report(8, f"volume: 3-sigma cross-agreement on both components, "
              f"doubling ratio {ratio:.2f} ({elapsed:.0f}s)", ok)


def test_criterion_9_determinism(tmp_path):
    """solve + certify replay with a fixed seed is bit-identical."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "group": {"family": "SU", "rank": 2},
        "problem": {"type": "surface", "genus": 2},
        "seed": 4242,
    }))
    outs = []
    for tag in ("one", "two"):
        point = tmp_path / f"point-{tag}.json"
        rep = tmp_path / f"report-{tag}.json"
        rc1 = cli.main(["solve", "--config", str(cfg_path), "--out",
                        str(point), "--quiet"])
        rc2 = cli.main(["certify", "--config", str(cfg_path), "--point",
                        str(point), "--out", str(rep), "--quiet"])
        outs.append((rc1, rc2, point.read_bytes(), rep.read_bytes()))
    ok = outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1] == 0
    report(9, "determinism: solve + certify replay bit-identical", ok)

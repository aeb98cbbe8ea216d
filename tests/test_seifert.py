"""Circle-bundle group reduction and fiber-holonomy rigidity."""

import numpy as np
import pytest

import charvar as cv
from charvar import liegroup as lg


def perturb_point(p, classes, rng, scale):
    """Kick the interior generators and re-project: one random-walk step."""
    t = p.tuple
    g = t.genus
    mats = t.mats.copy()
    kick = lg.exp(t.spec, lg.random_algebra(t.spec, rng, scale=scale, size=2 * g))
    mats[:2 * g] = kick @ mats[:2 * g]
    return cv.project_to_variety(t.replace_mats(mats), classes, rng=rng)


def on_holonomy_target(p, cand):
    """The relator at p is zeta^n I, to max(100 TOL_GROUP, 10 residual)."""
    defect = np.abs(cv.evaluate_relator(p.tuple) - cand.target).max()
    return defect <= max(100 * lg.TOL_GROUP, 10 * p.residual_norm)


def test_candidates_r2():
    d = cv.SeifertData(2, 1, cv.GroupSpec("SU", 2))
    zetas = sorted(c.zeta.real for c in cv.fiber_holonomy_candidates(d))
    assert len(zetas) == 2
    assert abs(zetas[0] + 1) < 1e-15 and abs(zetas[1] - 1) < 1e-15


def test_candidates_r3_euler3_collapse():
    """n a multiple of r: every candidate induces the trivial target."""
    d = cv.SeifertData(2, 3, cv.GroupSpec("SU", 3))
    for cand in cv.fiber_holonomy_candidates(d):
        assert np.abs(cand.target - np.eye(3)).max() < 1e-14
    assert len(cv.fiber_holonomy_candidates(d)) == 3


def test_candidate_targets_r2_n1():
    d = cv.SeifertData(2, 1, cv.GroupSpec("SU", 2))
    targets = [c.target for c in cv.fiber_holonomy_candidates(d)]
    assert np.abs(targets[0] - np.eye(2)).max() < 1e-15
    assert np.abs(targets[1] + np.eye(2)).max() < 1e-15


def test_targets_are_central_roots_of_unity():
    d = cv.SeifertData(3, 2, cv.GroupSpec("SU", 4))
    for cand in cv.fiber_holonomy_candidates(d):
        zeta = cand.zeta
        assert abs(zeta**4 - 1) < 1e-12
        lam = np.trace(cand.target) / 4
        assert np.abs(cand.target - lam * np.eye(4)).max() < 1e-14


def test_to_surface_problem_trivial_target():
    """zeta = 1 reduces to the closed genus-g surface over the target I."""
    d = cv.SeifertData(2, 5, cv.GroupSpec("SU", 2))
    cand = cv.fiber_holonomy_candidates(d)[0]
    assert cand.zeta == 1.0
    problem = cv.variety_problem(d, cand)
    assert problem.genus == 2 and problem.boundary_count == 0
    assert np.abs(problem.classes.target - np.eye(2)).max() < 1e-14


def test_both_components_solvable_r2_n1(su2):
    """Both fiber holonomies give solvable, irreducible components for g = 2."""
    d = cv.SeifertData(2, 1, su2)
    for cand in cv.fiber_holonomy_candidates(d):
        prob = cv.variety_problem(d, cand)
        p = prob.solve(np.random.default_rng(40 + cand.index))
        assert p.residual_norm < 1e-10
        assert cv.is_irreducible(p)
        basis = cv.cohomology_at(p, prob.classes)
        assert basis.dims()[2] == 6  # central target leaves 6g - 6 intact
        # pulled back to the bundle group, the defining relation holds
        P = cv.evaluate_relator(p.tuple)
        assert np.abs(P - cand.target).max() < 1e-9


def test_rigidity_random_walk(su2):
    """Twenty perturb-reproject steps never change the fiber holonomy."""
    d = cv.SeifertData(2, 1, su2)
    cand = cv.fiber_holonomy_candidates(d)[1]
    prob = cv.variety_problem(d, cand)
    rng = np.random.default_rng(50)
    p = prob.solve(rng)
    path = [p]
    for _ in range(20):
        path.append(perturb_point(path[-1], prob.classes, rng, scale=0.15))
    for q in path:
        assert on_holonomy_target(q, cand)
        assert q.residual_norm < 1e-9


def test_seifert_data_validation(su2):
    """Genus 1 is refused; the rank is :class:`GroupSpec`'s to check."""
    with pytest.raises(ValueError):
        cv.SeifertData(1, 1, su2)


def test_candidate_json():
    d = cv.SeifertData(2, 1, cv.GroupSpec("SU", 2))
    cand = cv.fiber_holonomy_candidates(d)[1]
    data = cand.to_json()
    assert data["target_power"] == 1
    assert abs(data["zeta"][0] + 1) < 1e-14

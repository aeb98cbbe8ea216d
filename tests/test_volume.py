"""Liouville density and the two Monte Carlo volume estimators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charvar as cv
from charvar.errors import (
    DimensionMismatchError,
    InsufficientSamplesError,
    OddDimensionError,
)
from charvar.twoform import form_gram_coords
from charvar.variety import project_batch, split_rank
from charvar.volume import (
    SampleRecords,
    ball_volume,
    landing_densities,
    pfaffian_abs,
    sample_stream,
)

from test_variety import commutant_dimension, conjugate_point


def liouville_density(p, classes, basis=None):
    """The per-point Liouville density: |Pf| of the form over the h1 basis."""
    return pfaffian_abs(cv.form_on_cohomology(p, classes, basis))


def test_pfaffian_single_block():
    for w in (0.7, -2.3):
        omega = np.array([[0.0, w], [-w, 0.0]])
        assert pfaffian_abs(omega) == pytest.approx(abs(w))


def test_pfaffian_odd_dimension_raises():
    with pytest.raises(OddDimensionError):
        pfaffian_abs(np.zeros((3, 3)))


def test_pfaffian_over_leading_axes():
    """A (2, 3) stack of 4x4 block matrices: |Pf| = |w1 w2| per slice."""
    rng = np.random.default_rng(3)
    w = rng.uniform(-2.0, 2.0, size=(2, 3, 2))
    omega = np.zeros((2, 3, 4, 4))
    omega[..., 0, 1], omega[..., 2, 3] = w[..., 0], w[..., 1]
    omega = omega - np.swapaxes(omega, -2, -1)
    got = pfaffian_abs(omega)
    assert got.shape == (2, 3)
    assert np.allclose(got, np.abs(w[..., 0] * w[..., 1]), rtol=1e-14)
    with pytest.raises(OddDimensionError):
        pfaffian_abs(np.zeros((2, 3, 3)))


def test_ball_volume():
    assert ball_volume(2, 1.0) == pytest.approx(math.pi)
    assert ball_volume(3, 2.0) == pytest.approx(4.0 / 3.0 * math.pi * 8.0)


def test_density_positive_and_rotation_invariant(solved_points, closed_problem):
    rng = np.random.default_rng(0)
    p = solved_points[0]
    basis = cv.cohomology_at(p, closed_problem.classes)
    base = liouville_density(p, closed_problem.classes, basis)
    assert base > 0
    for _ in range(50):
        Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        rot = basis.h_coords @ Q
        G = form_gram_coords(p, closed_problem.classes, rot, rot)
        assert abs(math.sqrt(max(np.linalg.det(G), 0.0)) - base) < 1e-9


def test_density_conjugation_invariant(solved_points, closed_problem, su2):
    rng = np.random.default_rng(1)
    p = solved_points[1]
    base = liouville_density(p, closed_problem.classes)
    for _ in range(3):
        q = conjugate_point(p, cv.haar_sample(su2, rng), closed_problem.classes)
        assert abs(liouville_density(q, closed_problem.classes) - base) < 1e-9


def test_density_at_boundary_point(boundary_points, boundary_problem):
    val = liouville_density(boundary_points[0], boundary_problem.classes)
    assert val > 0


def test_sample_stream_records(closed_problem):
    rec = sample_stream(closed_problem, 200, seed=5)
    assert rec.n == 200
    assert rec.converged.mean() > 0.95
    landed = rec.converged & rec.irreducible
    assert np.all(rec.density[landed] > 0)
    assert np.all(rec.jacobian[landed] > 0)
    assert np.all(np.isfinite(rec.displacement[landed]))


def test_estimators_require_su(slc2):
    prob = cv.VarietyProblem(slc2, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(slc2))
    with pytest.raises(DimensionMismatchError):
        cv.estimate_relative_volume(prob, 100, 0)


def test_insufficient_samples(closed_problem):
    with pytest.raises(InsufficientSamplesError):
        cv.estimate_relative_volume(closed_problem, 120, 6, estimator="coarea")


def test_stderr_scaling_across_three_sizes(closed_problem):
    """Monte Carlo stderr shrinks like sqrt(2) per doubling, at three nested
    sample sizes."""
    a = cv.estimate_relative_volume(closed_problem, 1600, 60, estimator="tube")
    b = cv.estimate_relative_volume(closed_problem, 3200, 61, estimator="tube")
    c = cv.estimate_relative_volume(closed_problem, 6400, 64, estimator="tube")
    assert 1.2 <= a.stderr / b.stderr <= 1.6
    assert 1.2 <= b.stderr / c.stderr <= 1.6
    d = cv.estimate_relative_volume(closed_problem, 2500, 62, estimator="coarea")
    e = cv.estimate_relative_volume(closed_problem, 5000, 63, estimator="coarea")
    assert 1.2 <= d.stderr / e.stderr <= 1.6


def test_two_seeds_agree(closed_problem):
    a = cv.estimate_relative_volume(closed_problem, 1600, 70, estimator="tube")
    b = cv.estimate_relative_volume(closed_problem, 1600, 71, estimator="tube")
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_cross_estimator_agreement(closed_problem):
    res = cv.cross_check(closed_problem, 1500, 75)
    assert res["agree_3sigma"]
    assert res["coarea"].value > 0 and res["tube"].value > 0


def test_estimate_metadata(closed_problem):
    est = cv.estimate_relative_volume(closed_problem, 1500, 80, estimator="tube")
    assert est.samples == 1500
    assert "tube" in est.convention
    data = est.to_json()
    assert set(data) == {"value", "stderr", "samples", "convention", "landings"}


def test_sample_stream_deterministic(closed_problem):
    a = sample_stream(closed_problem, 200, seed=9)
    b = sample_stream(closed_problem, 200, seed=9)
    for f in dataclasses.fields(SampleRecords):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# ---------------------------------------------------------------------------
# the batched landing density against the one-point path
# ---------------------------------------------------------------------------

def _problem(spec, genus, reps=(), target=None):
    return cv.VarietyProblem(spec, cv.SurfacePresentation(genus, len(reps)),
                             cv.ConjugacyClassSpec(spec, reps, target))


@pytest.fixture(scope="module")
def landing_sets(su2, su3):
    """Converged landings of four problems, one projected batch each."""
    theta = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    problems = {
        "su2_plus": _problem(su2, 2),
        "su2_minus": _problem(su2, 2, target=-np.eye(2)),
        "su2_g1_theta": _problem(su2, 1, (theta,)),
        "su3": _problem(su3, 2),
    }
    out = {}
    for k, (name, prob) in enumerate(problems.items()):
        rng = np.random.default_rng(500 + k)
        init = np.stack([prob.random_initial(rng).mats for _ in range(6)])
        mats, _, _, ok = project_batch(prob.spec, init, prob.presentation.genus,
                                       prob.presentation.boundary_count,
                                       prob.classes, tol=1e-11, rng=rng)
        out[name] = (prob, mats[ok])
    return out


def _diagonal_tuple(problem, rng):
    """All generators diagonal (reducible); boundary slots at their classes."""
    spec, g = problem.spec, problem.presentation.genus
    phases = rng.uniform(-np.pi, np.pi, size=(2 * g, spec.rank - 1))
    phases = np.concatenate([phases, -phases.sum(axis=1, keepdims=True)], axis=1)
    mats = [np.diag(np.exp(1j * ph)) for ph in phases]
    return np.array(mats + list(problem.classes.representatives))


def _one_point(problem, mats, ell):
    """The per-point reference: cohomology_at, liouville_density, normal_rows."""
    spec, pr = problem.spec, problem.presentation
    p = cv.RepresentationPoint(
        cv.GeneratorTuple(spec, pr.genus, pr.boundary_count, mats), 0.0)
    basis = cv.cohomology_at(p, problem.classes)
    rank, _, _ = split_rank(basis.dpi_singular_values)
    return (liouville_density(p, problem.classes, basis),
            np.prod(basis.dpi_singular_values[:rank]),
            commutant_dimension(spec, mats) == 1,
            np.linalg.norm(basis.normal_rows @ ell))


@settings(max_examples=40)
@given(name=st.sampled_from(["su2_plus", "su2_minus", "su2_g1_theta", "su3"]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_batched_density_matches_one_point_path(landing_sets, name, data, seed):
    """Batched (pf, jacobian, irreducible, normal_distance) equal the
    per-point evaluation to 1e-12; a planted reducible slice is masked and
    leaves its neighbours' values unchanged."""
    problem, mats = landing_sets[name]
    order = data.draw(st.permutations(range(len(mats))))
    k = data.draw(st.integers(1, len(mats)))
    stack = mats[list(order[:k])]
    rng = np.random.default_rng(seed)
    ell = 0.3 * rng.standard_normal((k, stack.shape[1] * problem.spec.dim))
    got = landing_densities(problem, stack, ell)
    assert got[2].all()
    for i in range(k):
        want = _one_point(problem, stack[i], ell[i])
        assert want[2]
        for a, b in zip((got[0][i], got[1][i], got[3][i]), (want[0], want[1], want[3])):
            assert abs(a - b) <= 1e-12 * abs(b)

    j = data.draw(st.integers(0, k))
    planted = np.insert(stack, j, _diagonal_tuple(problem, rng), axis=0)
    hit = landing_densities(problem, planted, np.insert(ell, j, 0.1, axis=0))
    assert (hit[0][j], hit[1][j], hit[2][j], hit[3][j]) == (0.0, 0.0, False, np.inf)
    keep = np.arange(k + 1) != j
    for a, b in zip(hit, got):
        assert np.array_equal(a[keep], b)


def test_coboundary_rank_irreducibility_matches_commutant(closed_problem, su3):
    """Known answers: diagonal SU(2) tuples and S(U(1) x U(2)) block-diagonal
    SU(3) tuples are reducible, Haar tuples irreducible; the sampler's
    coboundary-rank mask, the commutant oracle and ``is_irreducible`` agree
    on all of them."""
    rng = np.random.default_rng(13)
    for problem in (closed_problem, _problem(su3, 2)):
        spec, r = problem.spec, problem.spec.rank
        reducible = []
        for _ in range(4):
            if r == 2:
                reducible.append(_diagonal_tuple(problem, rng))
                continue
            mats = np.zeros((4, 3, 3), dtype=complex)
            psi = rng.uniform(-np.pi, np.pi, size=4)
            mats[:, 0, 0] = np.exp(-2j * psi)
            mats[:, 1:, 1:] = (np.exp(1j * psi)[:, None, None]
                               * cv.haar_sample(cv.GroupSpec("SU", 2), rng, size=4))
            reducible.append(mats)
        mats = np.concatenate([np.array(reducible),
                               cv.haar_sample(spec, rng, size=(4, 4))])
        irr = landing_densities(problem, mats, np.zeros((8, 4 * spec.dim)))[2]
        assert irr.tolist() == [False] * 4 + [True] * 4
        assert irr.tolist() == [commutant_dimension(spec, x) == 1 for x in mats]
        assert irr.tolist() == [cv.is_irreducible(cv.GeneratorTuple(spec, 2, 0, x))
                                for x in mats]

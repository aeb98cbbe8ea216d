"""Liouville density and the two Monte Carlo volume estimators."""

import collections
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
from charvar import liegroup as lg
from charvar import presentation as pres
from charvar import volume as vol
from charvar.variety import (
    Linearization,
    _batch_residual,
    project_batch,
    split_rank,
)
from charvar.volume import (
    SampleRecords,
    _estimate_from_records,
    ball_volume,
    landing_densities,
    pfaffian_abs,
    sample_stream,
)

from conftest import form_gram_coords, form_on_cohomology
from test_variety import commutant_dimension, conjugate_point


def liouville_density(p, classes, basis=None):
    """The per-point Liouville density: |Pf| of the form over the h1 basis."""
    return pfaffian_abs(form_on_cohomology(p, classes, basis)[None])[0]


def test_pfaffian_single_block():
    w = np.array([0.7, -2.3])
    omega = np.zeros((2, 2, 2))
    omega[:, 0, 1], omega[:, 1, 0] = w, -w
    assert np.allclose(pfaffian_abs(omega), np.abs(w), rtol=1e-15)


def test_pfaffian_odd_dimension_raises():
    with pytest.raises(OddDimensionError):
        pfaffian_abs(np.zeros((1, 3, 3)))


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


GATES = {"coarea": 0.6, "tube": 0.45}  # each estimator's default gate


def estimate(problem, n_samples, seed, estimator):
    """One estimator's relative volume at its default gate: its stream and
    the estimate from its records, as :func:`volume.cross_check` runs them."""
    gate = GATES[estimator]
    return _estimate_from_records(
        problem, sample_stream(problem, n_samples, seed, estimator, gate), estimator, gate)


def _gated(rec, estimator, gate):
    """The converged samples inside one estimator's gate."""
    measure = rec.initial_residual if estimator == "coarea" else rec.displacement
    return rec.converged & (measure <= gate)


def test_sample_stream_records(closed_problem):
    """The co-area stream projects exactly the samples inside its gate, the
    tube stream all of them; each stream evaluates the converged landings
    inside its own gate, and only those; every converged sample carries a
    finite screened distance."""
    for estimator, gate in GATES.items():
        rec = sample_stream(closed_problem, 200, 5, estimator, gate)
        assert rec.n == 200
        if estimator == "coarea":
            assert np.array_equal(rec.projected, rec.initial_residual <= gate)
        else:
            assert rec.projected.all()
        assert rec.projected.sum() > 0
        assert rec.converged[rec.projected].mean() > 0.95
        assert not np.any(rec.converged & ~rec.projected)
        assert np.all(np.isinf(rec.displacement[~rec.projected]))
        gated = _gated(rec, estimator, gate)
        assert np.array_equal(rec.evaluated, gated)
        assert not np.any(rec.irreducible & ~rec.evaluated)
        landed = rec.converged & rec.irreducible
        assert landed.sum() >= 0.9 * gated.sum() > 0
        assert np.all(rec.density[landed] > 0)
        assert np.all(rec.jacobian[landed] > 0)
        assert np.all(rec.density[~rec.evaluated] == 0)
        assert np.all(np.isfinite(rec.displacement[rec.converged]))


def test_estimators_require_su(slc2):
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(slc2))
    with pytest.raises(DimensionMismatchError):
        cv.cross_check(prob, 100, 0)


def test_unknown_estimator_is_rejected_before_sampling(closed_problem, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a Haar draw ran before the estimator name was checked")

    monkeypatch.setattr(lg, "haar_sample", no_draw)
    with pytest.raises(ValueError, match="unknown estimator 'nope'"):
        sample_stream(closed_problem, 100, 0, "nope", 0.6)


def test_insufficient_samples(closed_problem):
    with pytest.raises(InsufficientSamplesError):
        estimate(closed_problem, 120, 6, "coarea")


def test_stderr_scaling_across_three_sizes(closed_problem):
    """Monte Carlo stderr shrinks like sqrt(2) per doubling, at three nested
    sample sizes."""
    a = estimate(closed_problem, 1600, 60, "tube")
    b = estimate(closed_problem, 3200, 61, "tube")
    c = estimate(closed_problem, 6400, 64, "tube")
    assert 1.2 <= a.stderr / b.stderr <= 1.6
    assert 1.2 <= b.stderr / c.stderr <= 1.6
    d = estimate(closed_problem, 2500, 62, "coarea")
    e = estimate(closed_problem, 5000, 63, "coarea")
    assert 1.2 <= d.stderr / e.stderr <= 1.6


def test_two_seeds_agree(closed_problem):
    a = estimate(closed_problem, 1600, 70, "tube")
    b = estimate(closed_problem, 1600, 71, "tube")
    assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


def test_cross_estimator_agreement(closed_problem):
    res = cv.cross_check(closed_problem, 1500, 75)
    assert res["agree_3sigma"]
    assert res["coarea"].value > 0 and res["tube"].value > 0


def test_estimate_metadata(closed_problem):
    est = estimate(closed_problem, 1500, 80, "tube")
    assert est.samples == 1500
    assert "tube" in est.convention
    data = est.to_json()
    assert set(data) == {"value", "stderr", "samples", "convention", "landings"}


def test_sample_stream_deterministic(closed_problem):
    for estimator, gate in GATES.items():
        a = sample_stream(closed_problem, 200, 9, estimator, gate)
        b = sample_stream(closed_problem, 200, 9, estimator, gate)
        for f in dataclasses.fields(SampleRecords):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# ---------------------------------------------------------------------------
# the batched landing density against the one-point path
# ---------------------------------------------------------------------------

def _problem(spec, genus, reps=(), target=None):
    return cv.VarietyProblem(genus, cv.ConjugacyClassSpec(spec, reps, target))


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
        init = prob.initial_batch(rng, 6)
        mats, _, _, ok = project_batch(init, prob.classes, tol=1e-11, rng=rng)
        out[name] = (prob, mats[ok])
    return out


def _diagonal_tuple(problem, rng):
    """All generators diagonal (reducible); boundary slots at their classes."""
    spec, g = problem.spec, problem.genus
    phases = rng.uniform(-np.pi, np.pi, size=(2 * g, spec.rank - 1))
    phases = np.concatenate([phases, -phases.sum(axis=1, keepdims=True)], axis=1)
    mats = [np.diag(np.exp(1j * ph)) for ph in phases]
    return np.array(mats + list(problem.classes.representatives))


def _linearization(problem, mats):
    """``Linearization.at`` of a stack of the problem's tuples."""
    return Linearization.at(mats, problem.classes)


def _normal_distance(problem, mats, ell):
    """The per-point tube distance: ``ell`` on the rows ``Vh[:rank]`` of the
    SVD of the class-constrained relator differential ``D E``."""
    lin = _linearization(problem, mats)
    _, s, Vh = np.linalg.svd(lin.D @ lin.E)
    return np.linalg.norm(Vh[:split_rank(s)[0]] @ lin.E.conj().T @ ell)


def _one_point(problem, mats, ell):
    """The per-point reference: cohomology_at, liouville_density, the SVD
    normal distance."""
    spec = problem.spec
    p = cv.RepresentationPoint(
        cv.GeneratorTuple(spec, problem.genus, problem.boundary_count, mats), 0.0)
    basis = cv.cohomology_at(p, problem.classes)
    rank, _ = split_rank(basis.dpi_singular_values)
    return (liouville_density(p, problem.classes, basis),
            np.prod(basis.dpi_singular_values[:rank]),
            commutant_dimension(spec, mats) == 1,
            _normal_distance(problem, mats, ell))


def _batched(problem, mats, ell):
    """(pf, jacobian, irreducible, screened distance) of the stream's path."""
    lin = _linearization(problem, mats)
    return landing_densities(lin) + (vol._screened_distance(lin, ell),)


def _assert_matches_one_point(problem, stack, ell):
    got = _batched(problem, stack, ell)
    assert got[2].all()
    for i in range(len(stack)):
        want = _one_point(problem, stack[i], ell[i])
        assert want[2]
        for a, b in zip((got[0][i], got[1][i], got[3][i]), (want[0], want[1], want[3])):
            assert abs(a - b) <= 1e-12 * abs(b)
    return got


@settings(max_examples=40)
@given(name=st.sampled_from(["su2_plus", "su2_minus", "su2_g1_theta", "su3"]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_batched_density_matches_one_point_path(landing_sets, name, data, seed):
    """Batched (pf, jacobian, irreducible) and the screened distance equal
    the per-point evaluation to 1e-12; a planted reducible slice is masked
    and leaves its neighbours' values unchanged."""
    problem, mats = landing_sets[name]
    order = data.draw(st.permutations(range(len(mats))))
    k = data.draw(st.integers(1, len(mats)))
    stack = mats[list(order[:k])]
    rng = np.random.default_rng(seed)
    ell = 0.3 * rng.standard_normal((k, stack.shape[1] * problem.spec.dim))
    got = _assert_matches_one_point(problem, stack, ell)

    j = data.draw(st.integers(0, k))
    planted = np.insert(stack, j, _diagonal_tuple(problem, rng), axis=0)
    hit = _batched(problem, planted, np.insert(ell, j, 0.1, axis=0))
    assert (hit[0][j], hit[1][j], hit[2][j]) == (0.0, 0.0, False)
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
        irr = landing_densities(_linearization(problem, mats))[2]
        assert irr.tolist() == [False] * 4 + [True] * 4
        assert irr.tolist() == [commutant_dimension(spec, x) == 1 for x in mats]
        assert irr.tolist() == [cv.is_irreducible(cv.GeneratorTuple(spec, 2, 0, x))
                                for x in mats]


def test_landing_densities_on_an_empty_stack(closed_problem):
    out = landing_densities(_linearization(closed_problem,
                                           np.zeros((0, 4, 2, 2), dtype=complex)))
    assert len(out) == 3
    for a, dtype in zip(out, (float, float, bool)):
        assert a.shape == (0,) and a.dtype == dtype


@pytest.mark.parametrize("name", ["su2_plus", "su2_g1_theta"])
def test_landing_densities_build_no_partial_products(landing_sets, name, monkeypatch):
    """The density reads the letter transport, the differential and the
    boundary slots from the linearization it is given: it evaluates no
    relator word of its own."""
    problem, mats = landing_sets[name]
    lin = _linearization(problem, mats)
    calls, products = [], pres.partial_products

    def counted(*args):
        calls.append(args)
        return products(*args)

    monkeypatch.setattr(pres, "partial_products", counted)
    assert landing_densities(lin)[2].all()
    assert not calls


def test_stream_with_nothing_in_a_gate_is_insufficient(closed_problem):
    """Gates no landing passes: the co-area stream projects nothing, no
    density is evaluated, and the estimate ends in InsufficientSamplesError."""
    rec = sample_stream(closed_problem, 100, 3, "coarea", 1e-9)
    assert not rec.projected.any() and not rec.converged.any()
    assert not rec.evaluated.any()
    rec = sample_stream(closed_problem, 100, 3, "tube", 1e-9)
    assert rec.projected.all() and rec.converged.any()
    assert not rec.evaluated.any()
    with pytest.raises(InsufficientSamplesError):
        cv.cross_check(closed_problem, 100, 3, residual_gate=1e-9, distance_gate=1e-9)


def test_saturated_gate_is_read_from_the_landings_the_gate_saw(closed_problem,
                                                                monkeypatch):
    """A gate that takes every sample it sees makes no volume estimate, also
    when some samples do not land: with a Gauss-Newton budget too short for
    a few samples, the tube gate 5.0 still takes every converged landing,
    and a landing marked reducible changes nothing.  The co-area gate sees
    every draw.  The library raises InsufficientSamplesError, so
    ``cross_check`` and the CLI agree."""
    monkeypatch.setattr(vol, "LANDING_MAX_ITER", 6)
    rec = sample_stream(closed_problem, 200, 11, "tube", 5.0)
    assert 2 * vol.MIN_LANDINGS < rec.converged.sum() < rec.n
    assert np.array_equal(rec.evaluated, rec.converged)
    reducible = rec.irreducible.copy()
    reducible[np.flatnonzero(rec.evaluated)[0]] = False
    for r in (rec, dataclasses.replace(rec, irreducible=reducible)):
        with pytest.raises(InsufficientSamplesError,
                           match="tube stream's distance_gate=5.0 took all 197 samples"):
            _estimate_from_records(closed_problem, r, "tube", 5.0)
    with pytest.raises(InsufficientSamplesError, match="coarea stream's residual_gate=10.0"):
        cv.cross_check(closed_problem, 200, 11, residual_gate=10.0)
    with pytest.raises(InsufficientSamplesError, match="tube stream's distance_gate=5.0"):
        cv.cross_check(closed_problem, 200, 11, residual_gate=3.0, distance_gate=5.0)


# ---------------------------------------------------------------------------
# the screened stream against the stream that evaluates every landing
# ---------------------------------------------------------------------------

def _unscreened_stream(problem, n_samples, seed):
    """The reference loop: it projects every sample, and evaluates
    ``landing_densities`` and the screened distance at every converged
    landing."""
    spec = problem.spec
    rng = np.random.default_rng(seed)
    nudges = rng.spawn(1)[0]
    rec = SampleRecords(np.ones(n_samples, dtype=bool), np.zeros(n_samples, dtype=bool),
                        np.zeros(n_samples, dtype=bool), np.zeros(n_samples, dtype=bool),
                        np.full(n_samples, np.inf), np.full(n_samples, np.inf),
                        np.zeros(n_samples), np.zeros(n_samples))
    z0i = lg.group_inverse(spec, problem.classes.target)
    for done in range(0, n_samples, vol.SAMPLE_BATCH):
        nb = min(vol.SAMPLE_BATCH, n_samples - done)
        init = problem.initial_batch(rng, nb)
        _, rn0, _ = _batch_residual(init, problem.classes, z0i)
        mats, _, _, ok = project_batch(init, problem.classes,
                                       tol=vol.LANDING_TOL,
                                       max_iter=vol.LANDING_MAX_ITER, rng=nudges)
        rec.converged[done:done + nb] = ok
        rec.initial_residual[done:done + nb] = rn0
        ell = vol._displacement_coords(spec, mats, init)
        at = done + np.flatnonzero(ok)
        lin = _linearization(problem, mats[ok])
        rec.density[at], rec.jacobian[at], rec.irreducible[at] = landing_densities(lin)
        rec.displacement[at] = vol._screened_distance(lin, ell[ok])
    rec.evaluated[:] = rec.converged
    return rec


def _assert_screen_exact(problem, n_samples, seed, gates):
    """Each estimator reads the same bits from its gated stream as from the
    reference cut at the same gate, and the stream evaluates exactly the
    landings inside its gate; a sample the stream projects lands where the
    reference, which projects every sample, lands it."""
    ref = _unscreened_stream(problem, n_samples, seed)
    for est, gate in gates.items():
        cut = dataclasses.replace(ref, evaluated=_gated(ref, est, gate))
        want = _estimate_from_records(problem, cut, est, gate)
        assert want.landings >= 30
        rec = sample_stream(problem, n_samples, seed, est, gate)
        assert _estimate_from_records(problem, rec, est, gate) == want, est
        assert np.array_equal(rec.evaluated, cut.evaluated), est
        assert np.array_equal(rec.initial_residual, ref.initial_residual), est
        pj = rec.projected
        assert pj.all() if est == "tube" else pj.sum() < n_samples, est
        for f in ("converged", "displacement"):
            assert np.array_equal(getattr(rec, f)[pj], getattr(ref, f)[pj]), (est, f)
        ev = rec.evaluated
        for f in ("irreducible", "density", "jacobian"):
            assert np.array_equal(getattr(rec, f)[ev], getattr(ref, f)[ev]), f


SU2, SU3 = cv.GroupSpec("SU", 2), cv.GroupSpec("SU", 3)
THETA = np.diag([np.exp(0.3j), np.exp(-0.3j)])
SCREEN_CASES = {
    "su2_g2_plus": (_problem(SU2, 2), 1500, 11, GATES),
    "su2_g2_minus": (_problem(SU2, 2, target=-np.eye(2)), 3000, 11, GATES),
    "su2_g1_theta": (_problem(SU2, 1, (THETA,)), 1500, 11, GATES),
    # wide gates land 30 or more of 500 SU(3) samples in each
    "su3_g2": (_problem(SU3, 2), 500, 11, {"coarea": 2.1, "tube": 0.8}),
}


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_screened_stream_matches_unscreened(name):
    _assert_screen_exact(*SCREEN_CASES[name])


def test_coarea_stream_projects_only_its_gated_samples(closed_problem, monkeypatch):
    """Counted at ``project_batch``: the co-area stream sends exactly the
    samples with ``initial_residual <= gate``, the tube stream all of them."""
    sent = []

    def counting(mats, *args, **kwargs):
        sent.append(len(mats))
        return project_batch(mats, *args, **kwargs)

    monkeypatch.setattr(vol, "project_batch", counting)
    monkeypatch.setattr(vol, "SAMPLE_BATCH", 150)
    for est, gate in GATES.items():
        sent.clear()
        rec = sample_stream(closed_problem, 400, 21, est, gate)
        assert len(sent) == 3, est  # one call per batch
        assert sum(sent) == rec.projected.sum(), est
        if est == "coarea":
            assert 0 < sum(sent) == np.sum(rec.initial_residual <= gate) < 400
        else:
            assert sum(sent) == 400


@pytest.mark.parametrize("est", GATES)
def test_stream_builds_each_initial_partial_product_once(closed_problem, monkeypatch, est):
    """The stream hands the residual it read its gate from to the solver: the
    partial products of every initial tuple are built once, whether the
    stream projects the tuple or not."""
    n, seed = 400, 21  # one batch
    init = closed_problem.initial_batch(np.random.default_rng(seed), n)
    seen, products = collections.Counter(), pres.partial_products

    def counted(spec, mats, g, m):
        seen.update(t.tobytes() for t in mats.reshape((-1,) + mats.shape[-3:]))
        return products(spec, mats, g, m)

    monkeypatch.setattr(pres, "partial_products", counted)
    rec = sample_stream(closed_problem, n, seed, est, GATES[est])
    assert rec.projected.any()
    assert [seen[t.tobytes()] for t in init] == [1] * n


def test_sample_stream_rejects_an_unknown_estimator(closed_problem, monkeypatch):
    """A misspelt estimator is an error before any draw, not the tube stream."""
    def no_draw(*args, **kwargs):
        raise AssertionError("the stream drew samples before checking its estimator")

    monkeypatch.setattr(closed_problem.__class__, "initial_batch", no_draw)
    with pytest.raises(ValueError, match="unknown estimator 'Tube'"):
        sample_stream(closed_problem, 100, 0, "Tube", 0.45)


def test_nudges_leave_the_haar_draws_alone(su3, monkeypatch):
    """Branch-cut nudges come from a child generator: the co-area and tube
    streams of one seed draw the same Haar tuples in every batch, although
    SU(3) projections draw nudges and the two streams project different
    samples."""
    monkeypatch.setattr(vol, "SAMPLE_BATCH", 100)
    problem = _problem(su3, 2)
    a = sample_stream(problem, 200, 4, "coarea", 2.1)
    b = sample_stream(problem, 200, 4, "tube", 0.8)
    assert a.projected.sum() < b.projected.sum() == 200
    assert np.array_equal(a.initial_residual, b.initial_residual)


def test_screen_without_class_constraint_fails(landing_sets, monkeypatch):
    """Planted: a screen that drops the class embedding ``E`` misreads the
    tube distance at the theta = 0.3 class, and the per-point oracle sees it."""
    def unconstrained(lin, displacement):
        Q = np.linalg.qr(np.swapaxes(lin.D, -2, -1))[0]
        return np.linalg.norm((displacement[..., None, :] @ Q)[..., 0, :], axis=-1)

    problem, mats = landing_sets["su2_g1_theta"]
    ell = 0.3 * np.random.default_rng(0).standard_normal(
        (len(mats), mats.shape[1] * problem.spec.dim))
    _assert_matches_one_point(problem, mats, ell)
    monkeypatch.setattr(vol, "_screened_distance", unconstrained)
    with pytest.raises(AssertionError):
        _assert_matches_one_point(problem, mats, ell)


def test_su2_far_test_reads_the_log_rotation_angle(su2):
    """On SU(2) the far test reads the rotation angle of the log, the norm of
    its first row: it is the largest eigen-angle ``|eigvalsh(iL)|`` to 1e-13
    at angles spread over [0, pi), near 3.0 and near pi, and a slot is parked
    at the sentinel exactly when that eigen-angle is above 3 or the log is
    outside its domain."""
    rng = np.random.default_rng(19)
    theta = np.concatenate([rng.uniform(0.0, np.pi, 2000),
                            3.0 + np.linspace(-1e-6, 1e-6, 21),
                            np.pi - np.logspace(-2, -9, 30)])
    v = rng.standard_normal((theta.size, 3))
    # the pairing reads 2 theta^2 on an element of eigen-angle theta
    v *= (np.sqrt(2.0) * theta / np.linalg.norm(v, axis=-1))[:, None]
    rel = cv.exp(su2, cv.coords_to_algebra(su2, v))
    L, bad = lg.principal_log(su2, rel)
    want = np.abs(np.linalg.eigvalsh(1j * L)).max(axis=-1)
    assert np.abs(np.linalg.norm(L[:, 0, :], axis=-1) - want).max() < 1e-13
    ell = vol._displacement_coords(su2, rel[:, None], np.eye(2, dtype=complex))
    parked = np.all(ell == 2.0 * np.pi, axis=-1)
    far = bad | (want > 3.0)
    assert 0 < far.sum() < theta.size and bad.any()
    away = np.abs(want - 3.0) > 1e-13
    assert np.array_equal(parked[away], far[away])

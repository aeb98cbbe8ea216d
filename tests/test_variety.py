"""Projection, irreducibility, cohomology splitting, conjugation."""

import numpy as np
import pytest

import charvar as cv
from charvar import liegroup as lg
from charvar.errors import NoConvergenceError, RankDeficiencyWarning
from charvar.presentation import GeneratorTuple
from charvar.variety import (
    class_distance,
    commutant_dimension,
    flat_residual,
    project_batch,
    project_to_class,
    split_rank,
)


def rank_oracle(M, rtol=1e-8):
    """Independent numerical rank (plain threshold, not the gap splitter)."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def test_project_trivial_identity(su2):
    t = GeneratorTuple.identity(su2, 2)
    p = cv.project_to_variety(t, cv.ConjugacyClassSpec(su2))
    assert p.residual_norm == 0.0
    assert np.array_equal(p.tuple.mats, t.mats)


def test_projection_benchmark_200_seeds(closed_problem):
    """>= 95% of Haar starts reach 1e-10 within 60 iterations (frozen baseline)."""
    ok = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        t = closed_problem.random_initial(rng)
        try:
            p = cv.project_to_variety(t, closed_problem.classes,
                                      solve_tol=1e-10, max_iter=60, rng=rng)
        except NoConvergenceError:
            continue
        if p.residual_norm <= 1e-10:
            ok += 1
    assert ok >= 190


def test_commutator_equals_minus_identity_oracle(su2):
    """[a, b] = -I has the explicit solution a = i sigma_x, b = i sigma_y."""
    a = np.array([[0, 1j], [1j, 0]])
    b = np.array([[0, 1], [-1, 0]], dtype=complex)
    for M in (a, b):
        assert lg.group_defect(su2, M) < 1e-15
    inv = lambda M: np.conj(M.T)
    word = inv(b) @ inv(a) @ b @ a
    assert np.abs(word + np.eye(2)).max() < 1e-15


def test_projection_genus1_minus_identity(su2):
    """The commutator equation over target -I is solvable and reached."""
    classes = cv.ConjugacyClassSpec(su2, (), -np.eye(2))
    with pytest.warns(UserWarning):
        presentation = cv.SurfacePresentation(1)
    prob = cv.VarietyProblem(su2, presentation, classes)
    p = prob.solve(np.random.default_rng(0))
    assert p.residual_norm < 1e-10
    P = cv.evaluate_relator(p.tuple)
    assert np.abs(P + np.eye(2)).max() < 1e-9


def test_projection_idempotent(solved_points, closed_problem, su2):
    """Re-projecting a solved point moves nothing and needs <= 2 iterations."""
    for p in solved_points[:5]:
        out, rnorm, iters, conv = project_batch(
            su2, p.tuple.mats, 2, 0, closed_problem.classes, tol=1e-12)
        assert bool(conv) and int(iters) <= 2
        assert np.abs(out - p.tuple.mats).max() < 1e-12


class _NoDraws:
    """An rng that fails on use: the starts below never touch the branch cut,
    so they draw no nudges and a slice cannot depend on the batch's draws."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected branch-cut nudge (rng.{name})")


def _project(problem, mats, **kw):
    g, m = problem.presentation.genus, problem.presentation.boundary_count
    return project_batch(problem.spec, mats, g, m, problem.classes, tol=1e-11,
                         max_iter=120, **kw)


def _starts(problem, rng, shape):
    flat = np.stack([problem.random_initial(rng).mats for _ in range(int(np.prod(shape)))])
    return flat.reshape(shape + flat.shape[1:])


@pytest.mark.parametrize("case", ["su2_g2", "su2_g1_theta0.3", "su3_g2", "su2_g2_2d"])
def test_project_batch_stack_matches_per_slice(case, su2, su3):
    """Every slice iterates on its own: a stack gives each tuple the bits of
    its own call (points, residuals, iteration counts, flags)."""
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    problem, shape = {
        "su2_g2": (cv.VarietyProblem(su2, cv.SurfacePresentation(2),
                                     cv.ConjugacyClassSpec(su2)), (6,)),
        "su2_g1_theta0.3": (cv.VarietyProblem(su2, cv.SurfacePresentation(1, 1),
                                              cv.ConjugacyClassSpec(su2, (rep,))), (6,)),
        "su3_g2": (cv.VarietyProblem(su3, cv.SurfacePresentation(2),
                                     cv.ConjugacyClassSpec(su3)), (4,)),
        "su2_g2_2d": (cv.VarietyProblem(su2, cv.SurfacePresentation(2),
                                        cv.ConjugacyClassSpec(su2)), (2, 3)),
    }[case]
    init = _starts(problem, np.random.default_rng(21), shape)
    # one slice starts on the variety, so the stack's slices finish apart
    first = (0,) * len(shape)
    init[first] = _project(problem, init[first], rng=_NoDraws())[0]
    stacked = _project(problem, init, rng=_NoDraws())
    assert stacked[0].shape == init.shape
    assert all(a.shape == shape for a in stacked[1:])
    assert stacked[2][first] == 0 and stacked[2].min() < stacked[2].max()
    for idx in np.ndindex(shape):
        one = _project(problem, init[idx], rng=_NoDraws())
        for got, want in zip(stacked, one):
            assert np.array_equal(got[idx], want)


def _quaternion_start(su2):
    """Genus-2 tuple with [a1, b1] = -I and a2 = b2 = I: its relator sits on
    the SU(2) branch cut (trace -2)."""
    a = np.array([[0, 1j], [1j, 0]])
    b = np.array([[0, 1], [-1, 0]], dtype=complex)
    return np.stack([a, b, np.eye(2, dtype=complex), np.eye(2, dtype=complex)])


def test_project_batch_nudges_planted_cut_slice_only(closed_problem, su2):
    planted = _quaternion_start(su2)
    t = GeneratorTuple(su2, 2, 0, planted)
    assert np.abs(cv.evaluate_relator(t) + np.eye(2)).max() < 1e-15
    init = _starts(closed_problem, np.random.default_rng(22), (5,))
    alone = _project(closed_problem, init, rng=_NoDraws())
    j = 2
    mixed = np.insert(init, j, planted, axis=0)
    rng = np.random.default_rng(0)
    out = _project(closed_problem, mixed, rng=rng)
    # nudges are drawn for the whole batch shape, as a loop over every slice would
    ref, states = np.random.default_rng(0), []
    for _ in range(3):
        lg.random_algebra(su2, ref, scale=0.2, size=(6, 4))
        states.append(ref.bit_generator.state)
    assert rng.bit_generator.state in states
    keep = np.arange(6) != j
    assert bool(out[3][j]) and out[1][j] <= 1e-11
    assert not np.array_equal(out[0][j, :2], planted[:2])  # nudged off the cut
    for got, want in zip(out, alone):
        assert np.array_equal(got[keep], want)


def test_project_batch_stuck_slice_leaves_neighbours_iterations(solved_points,
                                                                 closed_problem, su2):
    """Near-flat starts finish in a few iterations whether or not a far start
    that runs out of budget sits beside them."""
    rng = np.random.default_rng(23)
    near = np.stack([p.tuple.mats for p in solved_points[:4]])
    kick = cv.random_algebra(su2, rng, scale=1e-3, size=near.shape[:2])
    near = cv.exp(su2, kick) @ near
    far = closed_problem.random_initial(rng).mats
    kw = dict(max_iter=3, rng=_NoDraws())
    g = closed_problem.presentation.genus
    alone = project_batch(su2, near, g, 0, closed_problem.classes, tol=1e-11, **kw)
    out = project_batch(su2, np.concatenate([near, far[None]]), g, 0,
                        closed_problem.classes, tol=1e-11, **kw)
    assert not out[3][-1] and out[2][-1] == 3
    assert alone[3].all() and alone[2].max() < 3
    for got, want in zip(out, alone):
        assert np.array_equal(got[:-1], want)


def test_projection_su3(su3):
    prob = cv.VarietyProblem(su3, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(su3))
    p = prob.solve(np.random.default_rng(1))
    assert p.residual_norm < 1e-10
    assert cv.is_irreducible(p)


def test_projection_su3_lands_on_target_not_central_multiple(su3):
    """Starts whose relator drifts to omega*I (omega a cube root of unity)
    read a zero trace-projected log there; they must be nudged off and
    solved to the target itself."""
    prob = cv.VarietyProblem(su3, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(su3))
    for seed in (9, 42, 220, 253):
        p = prob.solve(np.random.default_rng(seed), tol_flat=1e-9)
        assert np.linalg.norm(cv.evaluate_relator(p.tuple) - np.eye(3)) <= 1e-9


def test_projection_slc(slc2):
    prob = cv.VarietyProblem(slc2, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(slc2))
    p = prob.solve(np.random.default_rng(3))
    assert p.residual_norm < 1e-9


def test_no_convergence_error_carries_diagnostics(closed_problem):
    rng = np.random.default_rng(5)
    t = closed_problem.random_initial(rng)
    with pytest.raises(NoConvergenceError) as exc:
        cv.project_to_variety(t, closed_problem.classes, max_iter=1,
                              solve_tol=1e-14, rng=rng)
    assert exc.value.iterations == 1
    assert exc.value.final_residual > 0


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_identity_tuple_reducible(su2):
    t = GeneratorTuple.identity(su2, 2)
    assert not cv.is_irreducible(t)
    assert commutant_dimension(su2, t.mats) == 4


def test_block_diagonal_reducible():
    """SU(2) x SU(2) sitting block-diagonally inside SU(4) is reducible."""
    su4 = cv.GroupSpec("SU", 4)
    rng = np.random.default_rng(6)
    su2 = cv.GroupSpec("SU", 2)
    mats = []
    for _ in range(4):
        blk = np.zeros((4, 4), dtype=complex)
        blk[:2, :2] = cv.haar_sample(su2, rng)
        blk[2:, 2:] = cv.haar_sample(su2, rng)
        mats.append(blk)
    t = GeneratorTuple(su4, 2, 0, np.array(mats))
    assert not cv.is_irreducible(t)


def test_solved_points_irreducible(solved_points):
    assert all(p.irreducible for p in solved_points)


def test_irreducibility_conjugation_invariant(solved_points, su2):
    rng = np.random.default_rng(7)
    p = solved_points[0]
    for _ in range(5):
        A = cv.haar_sample(su2, rng)
        assert cv.is_irreducible(cv.conjugate_point(p, A))


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------

def test_cohomology_dims_g2(solved_points, closed_problem, su2):
    """dim z1 = 9, b1 = 3, h1 = 6, cross-checked by an independent rank oracle."""
    for p in solved_points[:10]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        assert basis.dims() == (9, 3, 6)
        D = cv.relator_differential(p.tuple)
        r = rank_oracle(D)
        assert r == su2.dim  # surjectivity certificate
        assert 2 * 2 * su2.dim - r == 9
        assert basis.dims()[2] == 6 * 2 - 6  # 6g - 6 cross-check


def test_cohomology_dims_g3(su2):
    prob = cv.VarietyProblem(su2, cv.SurfacePresentation(3),
                             cv.ConjugacyClassSpec(su2))
    p = prob.solve(np.random.default_rng(8))
    assert cv.is_irreducible(p)
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (15, 3, 12)  # h1 = 6g - 6 = 12


def test_cohomology_dims_boundary(boundary_points, boundary_problem):
    """g=1, m=1, class of diag(i,-i): dim h1 = 2 by explicit ranks."""
    for p in boundary_points[:3]:
        assert p.irreducible
        basis = cv.cohomology_at(p, boundary_problem.classes)
        assert basis.dims() == (5, 3, 2)


def test_gap_quality_large_at_smooth_points(solved_points, closed_problem):
    basis = cv.cohomology_at(solved_points[0], closed_problem.classes)
    assert basis.gap_quality >= 1e6


def test_coboundaries_inside_cocycles(solved_points, closed_problem):
    for p in solved_points[:5]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        D = cv.relator_differential(p.tuple)
        assert np.abs(D @ basis.b_coords).max() < 1e-9
        # containment: projecting b1 onto span(z1) changes nothing
        Z = basis.z_coords
        proj = Z @ (Z.T @ basis.b_coords)
        assert np.abs(proj - basis.b_coords).max() < 1e-9


def test_h1_orthogonal_to_b1(solved_points, closed_problem):
    basis = cv.cohomology_at(solved_points[0], closed_problem.classes)
    assert np.abs(basis.b_coords.T @ basis.h_coords).max() < 1e-10


def test_central_tuple_cohomology(su2):
    """All-central tuple: the differential vanishes, coboundaries are zero."""
    t = GeneratorTuple(su2, 2, 0, np.stack([-np.eye(2, dtype=complex)] * 4))
    p = cv.RepresentationPoint(t, 0.0)
    basis = cv.cohomology_at(p, cv.ConjugacyClassSpec(su2))
    nz, nb, nh = basis.dims()
    assert nb == 0
    assert nz == 12  # the whole space
    assert nh == 12


def test_rank_deficiency_warning_fires(solved_points, closed_problem):
    """An absurd gap demand must surface as a RankDeficiencyWarning."""
    with pytest.warns(RankDeficiencyWarning):
        cv.cohomology_at(solved_points[0], closed_problem.classes,
                         gap_tol=1e-16)


def test_cohomology_requires_flat_point(solved_points, closed_problem, su2):
    rng = np.random.default_rng(9)
    t = solved_points[0].tuple
    mats = t.mats.copy()
    mats[0] = cv.exp(su2, cv.random_algebra(su2, rng, scale=0.1)) @ mats[0]
    bad = cv.RepresentationPoint(t.replace_mats(mats), 1e-3)
    with pytest.raises(ValueError):
        cv.cohomology_at(bad, closed_problem.classes)


def test_split_rank_unit_cases():
    assert split_rank(np.array([3.0, 2.0, 1e-12]))[0] == 2
    assert split_rank(np.array([3.0, 2.5, 2.0]))[0] == 3
    assert split_rank(np.array([]))[0] == 0
    assert split_rank(np.array([1e-13, 1e-14]))[0] == 0
    # spectrum that trails into the noise floor with no decisive jump
    rank, quality, clean = split_rank(np.array([1.0, 1e-4, 1e-8, 1e-11]))
    assert not clean
    assert quality < 1e6
    # leading axes: each row as its own call
    rows = np.array([[3.0, 2.0, 1e-12, 0.0], [3.0, 2.5, 2.0, 1.5],
                     [1e-13, 1e-14, 0.0, 0.0], [1.0, 1e-4, 1e-8, 1e-11]])
    got = split_rank(rows.reshape(2, 2, 4))
    assert [a.shape for a in got] == [(2, 2)] * 3
    for i, row in enumerate(rows):
        assert tuple(a.reshape(-1)[i] for a in got) == split_rank(row)
    assert [a.shape for a in split_rank(np.zeros((3, 0)))] == [(3,)] * 3


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugate_identity_is_identity(solved_points):
    p = solved_points[0]
    q = cv.conjugate_point(p, np.eye(2))
    assert np.array_equal(q.tuple.mats, p.tuple.mats)


def test_conjugation_residual_invariance(solved_points, closed_problem, su2):
    rng = np.random.default_rng(10)
    p = solved_points[0]
    for _ in range(100):
        A = cv.haar_sample(su2, rng)
        q = cv.conjugate_point(p, A, closed_problem.classes)
        assert abs(q.residual_norm - p.residual_norm) < 1e-12


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

def test_class_distance_and_projection(su2):
    rng = np.random.default_rng(11)
    rep = np.diag([np.exp(0.7j), np.exp(-0.7j)])
    U = cv.haar_sample(su2, rng)
    in_class = U @ rep @ np.conj(U.T)
    assert class_distance(su2, in_class, rep) < 1e-14
    off = cv.exp(su2, cv.random_algebra(su2, rng, scale=0.05)) @ in_class
    snapped = project_to_class(su2, off, rep)
    assert class_distance(su2, snapped, rep) < 1e-12
    assert np.abs(snapped - off).max() < 0.2


def test_boundary_entries_stay_in_class(boundary_points, boundary_problem, su2):
    rep = boundary_problem.classes.representatives[0]
    for p in boundary_points:
        assert class_distance(su2, p.tuple.c(0), rep) < 1e-10


def test_class_spec_validation(su2):
    with pytest.raises(ValueError):
        cv.ConjugacyClassSpec(su2, (), np.diag([1j, -1j]))  # not central
    with pytest.raises(ValueError):
        cv.ConjugacyClassSpec(su2, (), 2 * np.eye(2))  # not a root of unity
    ok = cv.ConjugacyClassSpec(su2, (), -np.eye(2))
    assert ok.boundary_count == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_point_json_roundtrip(solved_points, su2):
    p = solved_points[0]
    back = cv.RepresentationPoint.from_json(su2, p.to_json())
    assert np.array_equal(back.tuple.mats, p.tuple.mats)
    assert back.residual_norm == p.residual_norm
    assert back.irreducible == p.irreducible


def test_residual_matches_stored(solved_points, su2):
    p = solved_points[0]
    R = flat_residual(su2, p.tuple.mats, 2, 0, np.eye(2))
    assert abs(np.linalg.norm(R) - p.residual_norm) < 1e-13

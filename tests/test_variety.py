"""Projection, irreducibility, cohomology splitting, conjugation."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import charvar as cv
from charvar import variety as vy
from charvar import liegroup as lg
from charvar.errors import DimensionMismatchError, NoConvergenceError, RankDeficiencyWarning
from charvar.presentation import GeneratorTuple
from charvar.variety import (
    _batch_residual,
    apply_step,
    Linearization,
    class_distance,
    project_batch,
    split_rank,
)
from conftest import group_defect, identity_tuple
from test_presentation import conjugate_tuple, differential


def rank_oracle(M, rtol=1e-8):
    """Independent numerical rank (plain threshold, not the gap splitter)."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def commutant_dimension(spec, mats):
    """Dimension of the joint commutant {M : M g = g M for all g in mats},
    cut at a fixed relative 1e-8 of the stacked commutator map (the retired
    library routine, kept as an independent oracle)."""
    eye = np.eye(spec.rank)
    op = np.concatenate([np.kron(eye, g) - np.kron(g.T, eye) for g in mats])
    svals = np.linalg.svd(op, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    return int(np.sum(svals <= 1e-8 * scale))


def conjugate_point(p, A, classes):
    """The point slotwise conjugated by A, its residual recomputed there."""
    t = conjugate_tuple(p.tuple, A)
    _, rnorm, _ = _batch_residual(t.mats, classes, lg.group_inverse(t.spec, classes.target))
    return cv.RepresentationPoint(t, float(rnorm))


def test_project_trivial_identity(su2):
    t = identity_tuple(su2, 2)
    mats, rnorm, iters, conv = project_batch(t.mats, cv.ConjugacyClassSpec(su2))
    assert conv and iters == 0 and rnorm == 0.0
    assert np.array_equal(mats, t.mats)


def test_projection_benchmark_200_seeds(closed_problem):
    """>= 95% of Haar starts reach 1e-10 within 60 iterations (frozen baseline)."""
    ok = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        start = closed_problem.initial_batch(rng, 1)[0]
        *_, conv = project_batch(start, closed_problem.classes,
                                 tol=1e-10, max_iter=60, rng=rng)
        ok += bool(conv)
    assert ok >= 190


def test_commutator_equals_minus_identity_oracle(su2):
    """[a, b] = -I has the explicit solution a = i sigma_x, b = i sigma_y."""
    a = np.array([[0, 1j], [1j, 0]])
    b = np.array([[0, 1], [-1, 0]], dtype=complex)
    for M in (a, b):
        assert group_defect(su2, M) < 1e-15
    inv = lambda M: np.conj(M.T)
    word = inv(b) @ inv(a) @ b @ a
    assert np.abs(word + np.eye(2)).max() < 1e-15


def test_projection_genus1_minus_identity(su2):
    """The commutator equation over target -I is solvable and reached, and
    the closed genus-1 problem over -I does not warn: it has irreducible
    points."""
    classes = cv.ConjugacyClassSpec(su2, (), -np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = cv.VarietyProblem(1, classes)
    p = prob.solve(np.random.default_rng(0))
    assert p.residual_norm < 1e-10
    P = cv.evaluate_relator(p.tuple)
    assert np.abs(P + np.eye(2)).max() < 1e-9


@pytest.mark.parametrize("family, rank, zeta, m, warns", [
    ("SU", 2, 1, 0, True), ("SLC", 2, 1, 0, True), ("SU", 2, -1, 0, False),
    ("SU", 3, np.exp(2j * np.pi / 3), 0, False), ("SU", 2, 1, 1, False),
], ids=["su2-I", "slc2-I", "su2-minus-I", "su3-omega-I", "su2-m1"])
def test_closed_torus_warns_only_over_the_identity(family, rank, zeta, m, warns):
    """Genus 1, no boundary, target I: commuting matrices share an
    eigenvector, so every point is reducible, and the problem warns, naming
    the line that built it.  Over another target, or with a boundary class,
    irreducible points exist and it does not warn."""
    spec = cv.GroupSpec(family, rank)
    reps = (np.diag(np.exp(1j * np.linspace(0.3, -0.3, rank))),) * m
    classes = cv.ConjugacyClassSpec(spec, reps, zeta * np.eye(rank))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        cv.VarietyProblem(1, classes)
    assert [w.category for w in record] == [UserWarning] * warns
    assert all(w.filename == __file__ for w in record)


def test_projection_idempotent(solved_points, closed_problem, su2):
    """Re-projecting a solved point moves nothing and needs <= 2 iterations."""
    for p in solved_points[:5]:
        out, rnorm, iters, conv = project_batch(
            p.tuple.mats, closed_problem.classes, tol=1e-12)
        assert bool(conv) and int(iters) <= 2
        assert np.abs(out - p.tuple.mats).max() < 1e-12


class _NoDraws:
    """An rng that fails on use: the starts below never touch the branch cut,
    so they draw no nudges and a slice cannot depend on the batch's draws."""

    def __getattr__(self, name):
        raise AssertionError(f"unexpected branch-cut nudge (rng.{name})")


def _project(problem, mats, **kw):
    return project_batch(mats, problem.classes, tol=1e-11, max_iter=120, **kw)


def _starts(problem, rng, shape):
    flat = problem.initial_batch(rng, int(np.prod(shape)))
    return flat.reshape(shape + flat.shape[1:])


@pytest.mark.parametrize("case", ["su2_g2", "su2_g1_theta0.3", "su3_g2", "su2_g2_2d",
                                  "su2_g2_64", "slc2_g2", "su2_g1_closed"])
def test_project_batch_stack_matches_per_slice(case, su2, su3, slc2, monkeypatch):
    """Every slice iterates on its own: a stack gives each tuple the bits of
    its own call (points, residuals, iteration counts, flags).  The stacks
    ``su2_g2_64`` and ``slc2_g2`` plant no solved slice, so their first
    iterates run with every slice live before the slices drop out: the 64
    SU(2) starts take every first trial (one trial per such iterate), and
    some SL(2,C) start halves its step there, so the trial write-back runs
    while every slice is live.  On the closed genus-1 surface the landings
    are commuting pairs, where the differential drops rank: one slice's
    damped normal system is singular, and the stack solves slice by slice."""
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    with warnings.catch_warnings():  # a closed genus-1 surface over I warns
        warnings.simplefilter("ignore", UserWarning)
        torus = cv.VarietyProblem(1, cv.ConjugacyClassSpec(su2))
    problem, shape = {
        "su2_g2": (cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2)), (6,)),
        "su2_g1_theta0.3": (cv.VarietyProblem(1, cv.ConjugacyClassSpec(su2, (rep,))), (6,)),
        "su3_g2": (cv.VarietyProblem(2, cv.ConjugacyClassSpec(su3)), (4,)),
        "su2_g2_2d": (cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2)), (2, 3)),
        "su2_g2_64": (cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2)), (64,)),
        "slc2_g2": (cv.VarietyProblem(2, cv.ConjugacyClassSpec(slc2)), (8,)),
        "su2_g1_closed": (torus, (12,)),
    }[case]
    init = _starts(problem, np.random.default_rng(21), shape)
    # one slice starts on the variety, so the stack's slices finish apart
    first = (0,) * len(shape)
    planted = case not in ("su2_g2_64", "slc2_g2")
    if planted:
        init[first] = _project(problem, init[first], rng=_NoDraws())[0]
    trials = []  # the stack size of every trial step
    step = vy.apply_step
    monkeypatch.setattr(vy, "apply_step",
                        lambda spec, mats, *a: trials.append(len(mats)) or step(spec, mats, *a))
    singular = []  # the slices that took a least-squares step
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **kw: singular.append(a[0].shape) or lstsq(*a, **kw))
    stacked = _project(problem, init, rng=_NoDraws())
    monkeypatch.undo()
    assert len(singular) == (case == "su2_g1_closed")
    assert stacked[0].shape == init.shape
    assert all(a.shape == shape for a in stacked[1:])
    assert stacked[2].min() < stacked[2].max()
    if planted:
        assert stacked[2][first] == 0
    else:  # every slice is live for the first min(iters) iterates
        all_live = trials.count(init.shape[0])
        assert stacked[2].min() >= 2
        assert (all_live == stacked[2].min() if case == "su2_g2_64"
                else all_live > stacked[2].min())
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
    far = closed_problem.initial_batch(rng, 1)[0]
    kw = dict(max_iter=3, rng=_NoDraws())
    alone = project_batch(near, closed_problem.classes, tol=1e-11, **kw)
    out = project_batch(np.concatenate([near, far[None]]), closed_problem.classes,
                        tol=1e-11, **kw)
    assert not out[3][-1] and out[2][-1] == 3
    assert alone[3].all() and alone[2].max() < 3
    for got, want in zip(out, alone):
        assert np.array_equal(got[:-1], want)


def test_project_batch_per_slice_targets_match_solving_alone(su3):
    """A stack of starts aimed at the SU(3) Seifert targets I, omega I and
    omega^2 I, each slice with its own: every slice, converged or out of
    budget, reads the bits of its own solve against a class spec that
    carries its target."""
    d = cv.SeifertData(2, 1, su3)
    problems = [cv.variety_problem(d, c) for c in cv.fiber_holonomy_candidates(d)]
    rng = np.random.default_rng(24)
    starts, problem_of = [], []
    for prob in problems:
        near = _project(prob, prob.initial_batch(rng, 1), rng=_NoDraws())[0]
        kick = cv.random_algebra(su3, rng, scale=1e-3, size=near.shape[:2])
        starts += [cv.exp(su3, kick) @ near, prob.initial_batch(rng, 1)]
        problem_of += [prob, prob]
    init = np.concatenate(starts)
    kw = dict(tol=1e-11, max_iter=4, rng=_NoDraws())
    out = project_batch(init, problems[0].classes,
                        target=np.stack([p.classes.target for p in problem_of]), **kw)
    assert out[3].any() and not out[3].all()
    for i, prob in enumerate(problem_of):
        alone = project_batch(init[i], prob.classes, **kw)
        for got, want in zip(out, alone):
            assert np.array_equal(got[i], want)


def test_project_batch_held_products_match_a_fresh_pass(closed_problem, su2, monkeypatch):
    """The solve, which builds each Jacobian from the partial products it
    holds (from the start, an accepted trial or a nudge), lands on the bits
    of a solve that rebuilds them at every Jacobian."""
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    bounded = cv.VarietyProblem(1, cv.ConjugacyClassSpec(su2, (rep,)))
    cut = np.insert(_starts(closed_problem, np.random.default_rng(26), (4,)), 1,
                    _quaternion_start(su2), axis=0)
    runs = [(closed_problem, cut),
            (bounded, _starts(bounded, np.random.default_rng(27), (4,)))]
    want = [_project(prob, init, rng=np.random.default_rng(0)) for prob, init in runs]
    fresh = Linearization.at.__func__
    monkeypatch.setattr(Linearization, "at", classmethod(
        lambda cls, mats, classes, f=None: fresh(cls, mats, classes)))
    for (prob, init), ref in zip(runs, want):
        got = _project(prob, init, rng=np.random.default_rng(0))
        assert got[3].all()
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def assert_same_linearization(a, b):
    """Every array of two linearizations, the slots' included, bit for bit."""
    for name in ("mats", "T", "D", "E", "S"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.slots) == len(b.slots)
    for sa, sb in zip(a.slots, b.slots):
        for name in ("ad", "U", "s", "V"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


def _linearization_case(family, rank, m, rng, size):
    """(spec, g, classes, tuples): genus 2 with m boundary loops at a
    regular class, ``size`` Haar starting tuples drawn from ``rng``."""
    spec, g = cv.GroupSpec(family, rank), 2
    rep = np.diag(np.exp(1j * np.linspace(0.3, -0.3, rank)))
    classes = cv.ConjugacyClassSpec(spec, (rep,) * m)
    problem = cv.VarietyProblem(g, classes)
    return spec, g, classes, problem.initial_batch(rng, size)


@pytest.mark.parametrize("family, rank", [("SU", 2), ("SU", 3), ("SLC", 2)])
@pytest.mark.parametrize("m", [0, 1])
def test_linearization_take_is_the_linearization_of_the_rows(family, rank, m):
    """``take`` cuts every field, the slots' included, to the bits that
    ``Linearization.at`` reads on those rows alone."""
    spec, g, classes, mats = _linearization_case(family, rank, m,
                                                 np.random.default_rng(24), 6)
    lin = Linearization.at(mats, classes)
    rows = np.array([4, 0, 2])
    for idx in (rows, np.isin(np.arange(6), rows), rows[:0]):
        assert_same_linearization(lin.take(idx), Linearization.at(mats[idx], classes))


@pytest.mark.parametrize("family, rank", [("SU", 2), ("SU", 3), ("SLC", 2)])
@pytest.mark.parametrize("m", [0, 1])
def test_differential_from_a_trials_partial_products_is_exact(family, rank, m):
    """The solve builds each linearization, its relator differential ``D``
    included, from the partial products its accepted trial left behind (read
    on the whole batch of trials, kept for a subset): the same bits as a
    fresh ``Linearization.at``."""
    rng = np.random.default_rng(25)
    spec, g, classes, x = _linearization_case(family, rank, m, rng, 5)
    slots = Linearization.at(x, classes).slots
    step = 0.1 * rng.standard_normal((5, 2 * g * spec.dim + sum(classes.ranks)))
    trial = apply_step(spec, x, slots, step)
    _, _, f = _batch_residual(trial, classes, lg.group_inverse(spec, classes.target))
    take = np.array([0, 2, 3])
    held = Linearization.at(trial[take], classes, f[take])
    assert_same_linearization(held, Linearization.at(trial[take], classes))


_THETA = np.diag([np.exp(0.3j), np.exp(-0.3j)])
_SU2, _SU3 = cv.GroupSpec("SU", 2), cv.GroupSpec("SU", 3)
LAYOUT_MISFITS = {  # SU(2) slots of the stack, its class data
    "odd_n_minus_m": (4, cv.ConjugacyClassSpec(_SU2, (_THETA,))),
    "no_class_5_slots": (5, cv.ConjugacyClassSpec(_SU2)),
    "su3_classes_2x2": (4, cv.ConjugacyClassSpec(_SU3)),
    "no_genus": (2, cv.ConjugacyClassSpec(_SU2, (_THETA,) * 2)),
}


@pytest.mark.parametrize("case", LAYOUT_MISFITS)
def test_stack_that_does_not_fit_its_classes_raises(case):
    """The batched core reads the group, the genus and the boundary count
    from a stack (..., 2g + m, r, r) and its class data: a stack with
    ``n - m`` odd or below 2, or of matrices of another rank, raises
    rather than solving the wrong word."""
    n, classes = LAYOUT_MISFITS[case]
    mats = lg.haar_sample(_SU2, np.random.default_rng(30), size=(3, n))
    z0i = lg.group_inverse(classes.spec, classes.target)
    for call in (lambda: project_batch(mats, classes, rng=_NoDraws()),
                 lambda: Linearization.at(mats, classes),
                 lambda: _batch_residual(mats, classes, z0i)):
        with pytest.raises(DimensionMismatchError):
            call()


def test_problem_and_point_of_another_group_than_the_classes_raise(
        solved_points, su2, su3, slc2):
    """The core takes the group of the class data: a problem reads its group
    there, and a point whose group is not the classes' raises.  SU(2) with
    SL(2, C) classes would otherwise split with SL(2, C) numerics, and with
    SU(3) classes fail in a broadcast.  A point is split only at class data
    of its own boundary count."""
    for other in (slc2, su3):
        assert cv.VarietyProblem(2, cv.ConjugacyClassSpec(other)).spec == other
        with pytest.raises(DimensionMismatchError):
            cv.cohomology_at(solved_points[0], cv.ConjugacyClassSpec(other))
    with pytest.raises(DimensionMismatchError):
        cv.cohomology_at(solved_points[0], cv.ConjugacyClassSpec(su2, (_THETA,) * 2))


def test_projection_su3(su3):
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(su3))
    p = prob.solve(np.random.default_rng(1))
    assert p.residual_norm < 1e-10
    assert cv.is_irreducible(p.tuple)


def test_projection_su3_lands_on_target_not_central_multiple(su3):
    """Starts whose relator drifts to omega*I (omega a cube root of unity)
    read a zero trace-projected log there; they must be nudged off and
    solved to the target itself."""
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(su3))
    for seed in (9, 42, 220, 253):
        p = prob.solve(np.random.default_rng(seed), tol_flat=1e-9)
        assert np.linalg.norm(cv.evaluate_relator(p.tuple) - np.eye(3)) <= 1e-9


def test_projection_slc(slc2):
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(slc2))
    p = prob.solve(np.random.default_rng(3))
    assert p.residual_norm < 1e-9


def test_no_convergence_error_carries_diagnostics(closed_problem):
    with pytest.raises(NoConvergenceError) as exc:
        closed_problem.solve(np.random.default_rng(5), max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.final_residual > 0


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_identity_tuple_reducible(su2):
    t = identity_tuple(su2, 2)
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


def _class_rep(r):
    """A regular diagonal class, in SU(r) and in SL(r, C)."""
    return np.diag(np.exp(1j * np.array([0.3, -0.3] if r == 2 else [0.3, 0.5, -0.8])))


@functools.cache
def _solved_mats(family, r, g, m, seed):
    spec = cv.GroupSpec(family, r)
    problem = cv.VarietyProblem(g, cv.ConjugacyClassSpec(spec, (_class_rep(r),) * m))
    return problem.solve(np.random.default_rng(seed)).tuple.mats


def _planted_reducible(spec, n, rng):
    """n block-diagonal generators with blocks of sizes 1 and r - 1: the
    coordinate line e_1 and its complement are invariant."""
    r = spec.rank
    phi = rng.uniform(-np.pi, np.pi, size=n)
    mats = np.zeros((n, r, r), dtype=complex)
    mats[:, 0, 0] = np.exp(-1j * (r - 1) * phi)
    if r == 2:
        mats[:, 1, 1] = np.exp(1j * phi)
    else:
        block = cv.haar_sample(cv.GroupSpec(spec.family, r - 1), rng, size=n)
        mats[:, 1:, 1:] = np.exp(1j * phi)[:, None, None] * block
    return mats


@settings(max_examples=40)
@given(family=st.sampled_from(["SU", "SLC"]), r=st.integers(2, 3),
       g=st.integers(1, 3), m=st.integers(0, 1),
       eps=st.sampled_from([None, 1e-2, 1e-6, 3e-8, 3e-9, 1e-10]),
       seed=st.integers(0, 3))
def test_is_irreducible_agrees_with_commutant_oracle(family, r, g, m, eps, seed):
    """The coboundary-rank test and the commutant oracle agree on solved
    points (eps None) and on planted reducible tuples moved by exp(eps X).

    Both read the perturbed tuples irreducible at eps >= 1e-6 and reducible
    at 1e-10; they flip together between 3e-8 and 3e-9.  eps = 1e-8 itself
    is left out: it sits on the oracle's fixed relative cut, where the gap
    rule's cut ``1e-8 sqrt(s_max s_prev)`` reads some rank-3 tuples the
    other way.  Triangular SL(r, C) tuples, which both tests read as
    irreducible, are the Burnside item of the ROADMAP (item 1)."""
    spec = cv.GroupSpec(family, r)
    n = 2 * g + m
    if eps is None:
        assume(g + m >= 2)  # a closed torus has no irreducible points
        mats = _solved_mats(family, r, g, m, seed)
    else:
        rng = np.random.default_rng(seed)
        mats = _planted_reducible(spec, n, rng)
        X = cv.random_algebra(spec, rng, size=n)
        mats = cv.exp(spec, eps * X) @ mats
    got = cv.is_irreducible(GeneratorTuple(spec, g, m, mats))
    assert got == (commutant_dimension(spec, mats) == 1)
    if eps is None or eps >= 1e-6:
        assert got
    elif eps <= 1e-10:
        assert not got


def _torus_tuple(spec, g, m, rng):
    """Diagonal interior generators, then each boundary slot at its diagonal
    class representative: the tuple's stabilizer is the maximal torus."""
    r = spec.rank
    phi = rng.uniform(-np.pi, np.pi, size=(2 * g, r))
    phi -= phi.mean(axis=-1, keepdims=True)  # det 1
    interior = np.zeros((2 * g, r, r), dtype=complex)
    interior[:, np.arange(r), np.arange(r)] = np.exp(1j * phi)
    return np.concatenate([interior, np.broadcast_to(_class_rep(r), (m, r, r))])


@settings(max_examples=40)
@given(group=st.sampled_from([("SU", 2), ("SU", 3), ("SLC", 2)]), g=st.integers(1, 2),
       m=st.integers(0, 1), torus=st.booleans(), seed=st.integers(0, 2**16))
@example(group=("SU", 3), g=1, m=1, torus=True, seed=12)
@example(group=("SU", 3), g=2, m=1, torus=True, seed=51)
def test_split_ranks_are_the_codimension_of_the_stabilizer(group, g, m, torus, seed):
    """Both own ranks of the split, ``rank(D E)`` and ``rank(E* C)``, read
    ``dim g - dim z(rho)``: ``dim g`` at an ``initial_batch`` draw, whose
    stabilizer is the centre, and ``dim g - (r - 1)`` at a torus tuple
    (``im dPi = z(rho)^perp``, and the coboundary map's kernel is
    ``z(rho)``).  The pinned SU(3) torus tuples end the spectrum of ``D E``
    in two exact zeros (genus 1), or in 3e-16 and 2e-47 (genus 2): no gap
    may open inside them."""
    assume((g, m) != (1, 0))  # the closed torus: every point is reducible
    spec = cv.GroupSpec(*group)
    classes = cv.ConjugacyClassSpec(spec, (_class_rep(spec.rank),) * m)
    rng = np.random.default_rng(seed)
    if torus:
        mats, want = _torus_tuple(spec, g, m, rng), spec.dim - (spec.rank - 1)
    else:
        mats, want = cv.VarietyProblem(g, classes).initial_batch(rng, 1)[0], spec.dim
    _, own = vy.cohomology_split(Linearization.at(mats, classes))
    assert (own[0][0], own[1][0]) == (want, want)


def test_solved_points_irreducible(solved_points):
    assert all(cv.is_irreducible(p.tuple) for p in solved_points)


@pytest.mark.xfail(strict=True, reason="a trivial commutant does not rule out an "
                   "invariant subspace on SL(r, C)")
def test_is_irreducible_rejects_an_upper_triangular_slc_tuple(slc2):
    """(a, b, b, a) with upper-triangular a, b fixes the line e_1, so it is
    reducible, and its relator is I up to rounding; its commutant is the
    scalars, which is all ``is_irreducible`` reads."""
    a = np.array([[2.0, 1.0], [0.0, 0.5]])
    b = np.array([[1.5, -0.7], [0.0, 1 / 1.5]])
    t = GeneratorTuple.from_parts(slc2, [a, b], [b, a])
    assert np.abs(cv.evaluate_relator(t) - np.eye(2)).max() < 1e-15
    assert not cv.is_irreducible(t)


def test_irreducibility_conjugation_invariant(solved_points, su2):
    rng = np.random.default_rng(7)
    p = solved_points[0]
    for _ in range(5):
        A = cv.haar_sample(su2, rng)
        assert cv.is_irreducible(conjugate_tuple(p.tuple, A))


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------

def test_cohomology_dims_g2(solved_points, closed_problem, su2):
    """dim z1 = 9, b1 = 3, h1 = 6, cross-checked by an independent rank oracle."""
    for p in solved_points[:10]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        assert basis.dims() == (9, 3, 6)
        D = differential(p.tuple)
        r = rank_oracle(D)
        assert r == su2.dim  # surjectivity certificate
        assert 2 * 2 * su2.dim - r == 9
        assert basis.dims()[2] == 6 * 2 - 6  # 6g - 6 cross-check


def test_cohomology_dims_g3(su2):
    prob = cv.VarietyProblem(3, cv.ConjugacyClassSpec(su2))
    p = prob.solve(np.random.default_rng(8))
    assert cv.is_irreducible(p.tuple)
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (15, 3, 12)  # h1 = 6g - 6 = 12


def test_cohomology_dims_boundary(boundary_points, boundary_problem):
    """g=1, m=1, class of diag(i,-i): dim h1 = 2 by explicit ranks."""
    for p in boundary_points[:3]:
        assert cv.is_irreducible(p.tuple)
        basis = cv.cohomology_at(p, boundary_problem.classes)
        assert basis.dims() == (5, 3, 2)


def test_gap_quality_large_at_smooth_points(solved_points, closed_problem):
    basis = cv.cohomology_at(solved_points[0], closed_problem.classes)
    assert basis.gap_quality >= 1e6


def test_coboundaries_inside_cocycles(solved_points, closed_problem):
    for p in solved_points[:5]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        D = differential(p.tuple)
        assert np.array_equal(basis.lin.D, D)  # the split keeps the differential it read
        assert np.abs(D @ basis.b_coords).max() < 1e-9
        # containment: projecting b1 onto span(z1) changes nothing
        Z = basis.z_coords
        proj = Z @ (Z.T @ basis.b_coords)
        assert np.abs(proj - basis.b_coords).max() < 1e-9


def test_h1_orthogonal_to_b1(solved_points, closed_problem):
    basis = cv.cohomology_at(solved_points[0], closed_problem.classes)
    assert np.abs(basis.b_coords.T @ basis.h_coords).max() < 1e-10


def test_h1_is_cocycles_less_coboundaries_off_the_variety(solved_points, closed_problem,
                                                         su2):
    """A solved tuple moved by 1e-7 off the group: the third SVD's own gap
    reads 9 directions there, but h1 takes nz - nb of them, so the chart
    system stays square."""
    mats = solved_points[0].tuple.mats.copy()
    mats[0, 0, 0] += 1e-7
    basis, own = vy.cohomology_split(
        Linearization.at(mats, closed_problem.classes))
    assert own[2][0] == 9
    assert basis.dims() == (9, 3, 6)
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
    bad = cv.RepresentationPoint(GeneratorTuple(t.spec, t.genus, t.boundary_count, mats), 1e-3)
    with pytest.raises(ValueError):
        cv.cohomology_at(bad, closed_problem.classes)


def test_split_rank_unit_cases():
    assert split_rank(np.array([3.0, 2.0, 1e-12]))[0] == 2
    assert split_rank(np.array([3.0, 2.5, 2.0]))[0] == 3
    assert split_rank(np.array([]))[0] == 0
    assert split_rank(np.array([1e-13, 1e-14]))[0] == 0
    # a zero spectrum discards nothing: its quality is inf
    assert split_rank(np.zeros(3)) == (0, np.inf)
    # spectrum that trails into the noise floor with no decisive jump
    rank, quality = split_rank(np.array([1.0, 1e-4, 1e-8, 1e-11]))
    assert quality < 1.0 / vy.GAP_TOL
    # leading axes: each row as its own call
    rows = np.array([[3.0, 2.0, 1e-12, 0.0], [3.0, 2.5, 2.0, 1.5],
                     [1e-13, 1e-14, 0.0, 0.0], [1.0, 1e-4, 1e-8, 1e-11]])
    got = split_rank(rows.reshape(2, 2, 4))
    assert [a.shape for a in got] == [(2, 2)] * 2
    for i, row in enumerate(rows):
        assert tuple(a.reshape(-1)[i] for a in got) == split_rank(row)
    assert [a.shape for a in split_rank(np.zeros((3, 0)))] == [(3,)] * 2


def test_split_rank_finds_no_gap_inside_a_cluster_of_zeros():
    """Two exact zeros (a ratio 0/0), or a rounding-level value before an
    exact zero or a far smaller value (a ratio 0 or 5e-32), hold no gap: a
    value below the sentinel ``1e-16 s[0]`` reads as it, so these spectra
    of ``D E`` at SU(3) torus tuples read rank 6 and a quality near 1e16."""
    for s in ([2.807, 2.807, 2.562, 2.562, 2.314, 2.314, 0.0, 0.0],
              [2.225, 2.225, 2.199, 2.199, 1.736, 1.736, 3.14e-16, 0.0],
              [3.479, 3.479, 3.141, 3.141, 2.862, 2.862, 3.14e-16, 1.69e-47]):
        rank, quality = split_rank(np.array(s))
        assert rank == 6
        assert 1e15 < quality < 1e17


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugation_residual_invariance(solved_points, closed_problem, su2):
    rng = np.random.default_rng(10)
    p = solved_points[0]
    for _ in range(100):
        A = cv.haar_sample(su2, rng)
        q = conjugate_point(p, A, closed_problem.classes)
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


@pytest.mark.parametrize("family,r", [("SU", 2), ("SU", 3), ("SLC", 2)])
def test_boundary_entries_stay_in_class(family, r):
    """A solve starts each boundary entry on its class and moves it only by
    conjugation, so the solved entry is on the class to rounding (no snap
    runs)."""
    spec, rep = cv.GroupSpec(family, r), _class_rep(r)
    for seed in range(1, 9):
        c = _solved_mats(family, r, 1, 1, seed)[-1]
        assert class_distance(spec, c, rep) <= 1e-12


def _slotwise_initial(problem, rng):
    """One start drawn slot by slot: 2g Haar interiors, then one Haar
    conjugator per boundary slot (the per-sample draw that the batched
    ``initial_batch`` replaced)."""
    spec, g = problem.spec, problem.genus
    mats = list(cv.haar_sample(spec, rng, size=2 * g))
    for rep in problem.classes.representatives:
        U = cv.haar_sample(spec, rng)
        mats.append(U @ rep @ lg.group_inverse(spec, U))
    return np.array(mats)


@pytest.mark.parametrize("family,r", [("SU", 2), ("SU", 3), ("SLC", 2)])
def test_initial_batch_draw(family, r):
    """Interiors are ``haar_sample(size=(k, 2g))`` bit for bit (the whole
    draw at m = 0), boundary entries lie on their classes, and one m = 1
    draw is the slot-by-slot draw."""
    spec = cv.GroupSpec(family, r)
    reps = (_class_rep(r), _class_rep(r).conj())
    for g, m in ((2, 0), (1, 1), (2, 2)):
        problem = cv.VarietyProblem(g, cv.ConjugacyClassSpec(spec, reps[:m]))
        got = problem.initial_batch(np.random.default_rng(5), 4)
        assert got.shape == (4, 2 * g + m, r, r)
        want = cv.haar_sample(spec, np.random.default_rng(5), size=(4, 2 * g))
        assert got[:, : 2 * g].tobytes() == want.tobytes()
        for i in range(4):
            for k in range(m):
                assert class_distance(spec, got[i, 2 * g + k], reps[k]) <= 1e-12
    for g in (1, 2):
        problem = cv.VarietyProblem(g, cv.ConjugacyClassSpec(spec, reps[:1]))
        for seed in range(10):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = problem.initial_batch(rng, 1)[0]
            want = _slotwise_initial(problem, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family,r", [("SU", 2), ("SU", 3), ("SLC", 2), ("SLC", 3)])
def test_closed_initial_batch_is_the_interior_draw(family, r):
    """At m = 0 a start is ``haar_sample(size=(k, 2g))`` from the same seed,
    bit for bit, and leaves the generator where that draw leaves it: the
    empty boundary draw consumes nothing."""
    spec = cv.GroupSpec(family, r)
    problem = cv.VarietyProblem(2, cv.ConjugacyClassSpec(spec))
    for k in (1, 3):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = problem.initial_batch(rng, k)
        want = cv.haar_sample(spec, ref_rng, size=(k, 4))
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def test_residual_matches_stored(solved_points, closed_problem):
    p = solved_points[0]
    _, rnorm, _ = _batch_residual(p.tuple.mats, closed_problem.classes, np.eye(2))
    assert abs(rnorm - p.residual_norm) < 1e-13

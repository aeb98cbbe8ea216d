"""Two-form evaluation against a brute-force oracle, descent, kernel
structure, nondegeneracy, the exact closedness identity d omega = Phi*eta
against an explicit-chart oracle, and the finite-difference closedness
sweep in Newton charts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charvar as cv
from charvar import liegroup as lg
from charvar import twoform
from charvar.errors import NoConvergenceError, NotClassTangentError, OutsideDomainError
from charvar.presentation import GeneratorTuple
from charvar.twoform import first_sum_gram
from conftest import (certify_point, d_omega_by_differences, form_gram_coords,
                      form_on_cohomology, identity_tuple, linearization)
from test_liegroup import assert_slices_agree
from test_presentation import coords
from test_variety import conjugate_point


def epsilon_sign(i, j):
    """+1 below the diagonal pair order (i < j), -1 above, 0 on it."""
    return (i < j) - (j < i)


def comps(spec, u):
    """Right-trivialized slot components of a coordinate vector."""
    return lg.coords_to_algebra(spec, u.reshape(-1, spec.dim))


def random_coords(t, rng):
    """Coordinates of a Gaussian tangent direction, one algebra draw per slot."""
    return coords(t.spec, lg.random_algebra(t.spec, rng, size=t.n_generators))


def theta(p, classes, u, v):
    """The form on one pair of coordinate vectors."""
    return form_gram_coords(p, classes, u[:, None], v[:, None])[0, 0]


def form_kernel(p, classes, basis):
    """kernel_of_form on the Gram of the form over the cocycle columns, as a
    stack of one."""
    z = basis.z_coords
    return cv.kernel_of_form(form_gram_coords(p, classes, z, z)[None], z[None])[0]


def closed_theta(p, u, v):
    """The closed-surface double sum alone, with no boundary term."""
    t = p.tuple
    lin = linearization(p.spec, t.mats, t.genus, 0)
    return first_sum_gram(lin, u[:, None], v[:, None])[0, 0]


def brute_force_theta(tup, Ku, Kv, magnitude=False):
    """Naive double-sum evaluation, written straight from the displayed
    formula: spell the word in letters, set the inverse-slot components to
    minus Ad of the base letter, transport everything by the inverse
    partial product, and sum with the sign function.  The family's default
    pairing: -tr(XY), real, on SU; tr(XY), complex, on SL; 1/2 prefactor.
    Each boundary slot adds 1/2 <Y_u, c Y_v c^-1 - c^-1 Y_v c> with
    Y = pinv(1 - Ad c) K, Ad c written out on all r x r matrices as the
    Kronecker product of c^-T and c.  With ``magnitude`` every pairing is
    replaced by its bound |X| |Y| and every sign by +1: the scale of the
    sum's rounding.
    """
    inv = np.linalg.inv
    g, m = tup.genus, tup.boundary_count

    def pair(X, Y):
        if magnitude:
            return np.linalg.norm(X) * np.linalg.norm(Y)
        return -np.trace(X @ Y).real if tup.spec.family == "SU" else np.trace(X @ Y)

    alphas = []
    for i in range(g):
        a, b = tup.a(i), tup.b(i)
        alphas += [a, b, inv(a), inv(b)]
    for k in range(m):
        alphas.append(tup.c(k))

    def embedded_left_components(K):
        out = []
        for i in range(g):
            a, b = tup.a(i), tup.b(i)
            Ha = inv(a) @ K[2 * i] @ a
            Hb = inv(b) @ K[2 * i + 1] @ b
            out += [Ha, Hb, -a @ Ha @ inv(a), -b @ Hb @ inv(b)]
        for k in range(m):
            c = tup.c(k)
            out.append(inv(c) @ K[2 * g + k] @ c)
        return out

    Hu = embedded_left_components(Ku)
    Hv = embedded_left_components(Kv)
    f = [np.eye(tup.spec.rank, dtype=complex)]
    for al in alphas:
        f.append(al @ f[-1])
    N = len(alphas)
    total = 0.0
    for i in range(N):
        for j in range(N):
            e = epsilon_sign(i, j)
            if e == 0:
                continue
            ui = inv(f[i]) @ Hu[i] @ f[i]
            vj = inv(f[j]) @ Hv[j] @ f[j]
            total += (1 if magnitude else e) * pair(ui, vj)
    r = tup.spec.rank
    for k in range(m):
        c = tup.c(k)
        one_minus_ad = np.eye(r * r) - np.kron(inv(c).T, c)  # column-major vec

        def conjugator(K):
            y = np.linalg.pinv(one_minus_ad, rcond=1e-10) @ K.reshape(-1, order="F")
            return y.reshape(r, r, order="F")

        Yu, Yv = conjugator(Ku[2 * g + k]), conjugator(Kv[2 * g + k])
        total += pair(Yu, c @ Yv @ inv(c) - inv(c) @ Yv @ c)
    return 0.5 * total


def as_point(tup):
    return cv.RepresentationPoint(tup, 0.0)


def random_tuple(spec, g, m, rng):
    return GeneratorTuple(spec, g, m, lg.haar_sample(spec, rng, size=2 * g + m))


def admissible_basis(p, classes):
    """Orthonormal admissible directions at p: interior slots free,
    boundary slot k spanned by its class-tangent basis U."""
    t = p.tuple
    return linearization(p.spec, t.mats, t.genus, t.boundary_count, classes).E


def test_epsilon_convention():
    assert epsilon_sign(1, 2) == 1
    assert epsilon_sign(2, 1) == -1
    assert epsilon_sign(3, 3) == 0


def test_theta_zero_cases(solved_points, closed_problem, su2):
    rng = np.random.default_rng(0)
    p, classes = solved_points[0], closed_problem.classes
    u = random_coords(p.tuple, rng)
    zero = np.zeros_like(u)
    assert theta(p, classes, u, u) == pytest.approx(0.0, abs=1e-12)
    assert theta(p, classes, u, zero) == 0.0


def test_theta_genus1_identity_single_slot(su2):
    """Tangents supported on the first slot only cancel pairwise at identity."""
    t = identity_tuple(su2, 1)
    rng = np.random.default_rng(1)
    for _ in range(5):
        comps_u = np.zeros((2, 2, 2), dtype=complex)
        comps_v = np.zeros((2, 2, 2), dtype=complex)
        comps_u[0] = cv.random_algebra(su2, rng)
        comps_v[0] = cv.random_algebra(su2, rng)
        u, v = coords(su2, comps_u), coords(su2, comps_v)
        p = as_point(t)
        assert abs(theta(p, cv.ConjugacyClassSpec(su2), u, v)) < 1e-14
        assert abs(brute_force_theta(t, comps_u, comps_v)) < 1e-14


@pytest.mark.parametrize("family, rank, g", [
    ("SU", 2, 1), ("SU", 2, 2), ("SU", 3, 2), ("SLC", 2, 2),
], ids=["1", "2", "su3-2", "slc2-2"])
def test_theta_matches_brute_force(family, rank, g):
    spec = cv.GroupSpec(family, rank)
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = random_tuple(spec, g, 0, rng)
        u = lg.random_algebra(spec, rng, size=t.n_generators)
        v = lg.random_algebra(spec, rng, size=t.n_generators)
        fast = theta(as_point(t), cv.ConjugacyClassSpec(spec),
                     coords(spec, u), coords(spec, v))
        slow = brute_force_theta(t, u, v)
        # SL(2,C) partial products are far from unitary: the transported
        # components grow large and cancel, so the bound follows their size
        tol = 1e-13 if spec.family == "SU" else \
            1e-14 * brute_force_theta(t, u, v, magnitude=True)
        assert abs(fast - slow) < tol


def test_theta_with_classes_matches_brute_force_halfpi(boundary_points):
    """At the trace-zero class the boundary term vanishes identically, so the
    brute-force first sum is the whole form."""
    rng = np.random.default_rng(3)
    p = boundary_points[0]
    classes = cv.ConjugacyClassSpec(p.spec, (np.diag([1j, -1j]),))
    E = admissible_basis(p, classes)
    for _ in range(10):
        u = E @ rng.standard_normal(E.shape[1])
        v = E @ rng.standard_normal(E.shape[1])
        fast = theta(p, classes, u, v)
        slow = brute_force_theta(p.tuple, comps(p.spec, u), comps(p.spec, v))
        assert abs(fast - slow) < 1e-13


def test_with_classes_equals_closed_at_m0(solved_points, closed_problem):
    """1000 random triples: at m = 0 the form with classes and the
    closed-surface double sum agree to 1e-13."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(1000):
        p = solved_points[i % len(solved_points)]
        u = random_coords(p.tuple, rng)
        v = random_coords(p.tuple, rng)
        worst = max(worst, abs(closed_theta(p, u, v)
                               - theta(p, closed_problem.classes, u, v)))
    assert worst < 1e-13


def test_central_class_forces_zero_boundary_component(su2):
    """Ad of a central class element is the identity: its class is a point
    and only zero boundary components are class-tangent."""
    rep = -np.eye(2, dtype=complex)
    classes = cv.ConjugacyClassSpec(su2, (rep,), -np.eye(2))
    rng = np.random.default_rng(6)
    mats = list(lg.haar_sample(su2, rng, size=2))
    mats.append(rep)
    t = GeneratorTuple(su2, 1, 1, np.array(mats))
    # make the relator exact: c = (b^-1 a^-1 b a)^-1 * z0 with c central demands
    # a tuple on the variety; only the class-tangency logic is under test here
    p = cv.RepresentationPoint(t, 0.0)
    slot_comps = np.zeros((3, 2, 2), dtype=complex)
    u = coords(su2, slot_comps)
    assert theta(p, classes, u, u) == pytest.approx(0.0)
    slot_comps[2] = cv.random_algebra(su2, rng)
    bad = coords(su2, slot_comps)
    with pytest.raises(NotClassTangentError):
        theta(p, classes, u, bad)
    assert classes.ranks[0] == 0


def test_skewness_and_bilinearity_random(solved_points, closed_problem):
    rng = np.random.default_rng(7)
    p, classes = solved_points[1], closed_problem.classes
    for _ in range(25):
        u = random_coords(p.tuple, rng)
        v = random_coords(p.tuple, rng)
        w = random_coords(p.tuple, rng)
        assert abs(theta(p, classes, u, v) + theta(p, classes, v, u)) < 1e-12
        lin = theta(p, classes, u + 2.0 * w, v) \
            - theta(p, classes, u, v) - 2.0 * theta(p, classes, w, v)
        assert abs(lin) < 1e-12


def test_skewness_at_boundary_points(boundary_points, boundary_problem):
    """Skewness of the boundary form at solved g=1, m=1 points (the check
    that validates the pseudo-inverse convention)."""
    rng = np.random.default_rng(8)
    for p in boundary_points[:3]:
        E = admissible_basis(p, boundary_problem.classes)
        for _ in range(10):
            u = E @ rng.standard_normal(E.shape[1])
            v = E @ rng.standard_normal(E.shape[1])
            s = theta(p, boundary_problem.classes, u, v) \
                + theta(p, boundary_problem.classes, v, u)
            assert abs(s) < 1e-10


def test_theta_matches_brute_force_generic_class(generic_points, generic_problem):
    """Away from the trace-zero class the boundary term is nonzero, and the
    whole form still matches the brute-force oracle."""
    rng = np.random.default_rng(13)
    worst, boundary_part = 0.0, 0.0
    for p in generic_points:
        E = admissible_basis(p, generic_problem.classes)
        t = p.tuple
        for _ in range(10):
            u = E @ rng.standard_normal(E.shape[1])
            v = E @ rng.standard_normal(E.shape[1])
            fast = theta(p, generic_problem.classes, u, v)
            worst = max(worst, abs(fast - brute_force_theta(
                t, comps(p.spec, u), comps(p.spec, v))))
            lin = linearization(p.spec, t.mats, 2, 1)
            first = first_sum_gram(lin, u[:, None], v[:, None])
            boundary_part = max(boundary_part, abs(fast - first[0, 0]))
    assert worst < 1e-12
    assert boundary_part > 1e-2


def test_skewness_at_generic_class(generic_points, generic_problem):
    rng = np.random.default_rng(14)
    for p in generic_points:
        E = admissible_basis(p, generic_problem.classes)
        A = E @ rng.standard_normal((E.shape[1], 8))
        G = form_gram_coords(p, generic_problem.classes, A, A)
        assert np.abs(G + G.T).max() < 1e-12
        omega = form_on_cohomology(p, generic_problem.classes)
        assert np.abs(omega + omega.T).max() < 1e-12


def test_descent_at_generic_class(generic_points, generic_problem):
    for p in generic_points:
        basis = cv.cohomology_at(p, generic_problem.classes)
        assert basis.dims() == (11, 3, 8)
        G1 = form_gram_coords(p, generic_problem.classes, basis.b_coords, basis.z_coords)
        G2 = form_gram_coords(p, generic_problem.classes, basis.z_coords, basis.b_coords)
        assert max(np.abs(G1).max(), np.abs(G2).max()) < 1e-9


def test_conjugation_invariance(solved_points, closed_problem, su2):
    """Moving the point by conjugation and the tangents by Ad leaves the
    form unchanged."""
    rng = np.random.default_rng(9)
    p = solved_points[2]
    for _ in range(5):
        A = cv.haar_sample(su2, rng)
        Ai = np.conj(A.T)
        u = lg.random_algebra(su2, rng, size=p.tuple.n_generators)
        v = lg.random_algebra(su2, rng, size=p.tuple.n_generators)
        q = conjugate_point(p, A, closed_problem.classes)
        Au, Av = coords(su2, Ai @ u @ A), coords(su2, Ai @ v @ A)
        assert abs(theta(q, closed_problem.classes, Au, Av)
                   - theta(p, closed_problem.classes, coords(su2, u),
                           coords(su2, v))) < 1e-10


# ---------------------------------------------------------------------------
# descent and the form on cohomology
# ---------------------------------------------------------------------------

def test_descent_both_orders(solved_points, closed_problem):
    for p in solved_points[:10]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        G1 = form_gram_coords(p, closed_problem.classes, basis.b_coords, basis.z_coords)
        G2 = form_gram_coords(p, closed_problem.classes, basis.z_coords, basis.b_coords)
        assert np.abs(G1).max() < 1e-9
        assert np.abs(G2).max() < 1e-9


def test_descent_at_boundary_points(boundary_points, boundary_problem):
    for p in boundary_points[:3]:
        basis = cv.cohomology_at(p, boundary_problem.classes)
        G = form_gram_coords(p, boundary_problem.classes, basis.b_coords, basis.z_coords)
        assert np.abs(G).max() < 1e-9


def test_form_well_defined_modulo_coboundaries(solved_points, closed_problem):
    """Shifting the h1 representatives by coboundaries moves entries < 1e-8."""
    rng = np.random.default_rng(10)
    p = solved_points[3]
    basis = cv.cohomology_at(p, closed_problem.classes)
    omega = form_on_cohomology(p, closed_problem.classes, basis)
    shifted = basis.h_coords + 0.5 * rng.standard_normal(6) * np.tile(basis.b_coords, 2)
    G = form_gram_coords(p, closed_problem.classes, shifted, shifted)
    assert np.abs(G - omega).max() < 1e-8


def test_form_matrix_structure(solved_points, closed_problem):
    p = solved_points[4]
    omega = form_on_cohomology(p, closed_problem.classes)
    assert omega.shape == (6, 6)
    assert np.abs(omega + omega.T).max() < 1e-10
    svals = np.linalg.svd(omega, compute_uv=False)
    assert abs(np.linalg.det(omega)) > 1e-8
    # regression baseline: in this metric the form matrix is orthogonal
    assert abs(svals[-1] - 1.0) < 1e-6


def test_sigma_min_stable_under_reorthonormalization(solved_points, closed_problem):
    rng = np.random.default_rng(11)
    p = solved_points[5]
    classes = closed_problem.classes
    basis = cv.cohomology_at(p, classes)
    s0 = np.linalg.svd(form_gram_coords(p, classes, basis.h_coords, basis.h_coords),
                       compute_uv=False)[-1]
    # rotate the h1 basis by a random orthogonal matrix
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    rotated = basis.h_coords @ Q
    s1 = np.linalg.svd(form_gram_coords(p, classes, rotated, rotated),
                       compute_uv=False)[-1]
    assert abs(s1 - s0) <= 0.1 * s0


# ---------------------------------------------------------------------------
# kernel structure
# ---------------------------------------------------------------------------

def test_kernel_equals_coboundaries(solved_points, closed_problem):
    for p in solved_points[:10]:
        basis = cv.cohomology_at(p, closed_problem.classes)
        K = form_kernel(p, closed_problem.classes, basis)
        assert K.shape[1] == 3
        cosines = np.linalg.svd(K.T @ basis.b_coords, compute_uv=False)
        angles = np.arccos(np.clip(cosines, -1, 1))
        assert angles.max() < 1e-7


def test_kernel_equals_coboundaries_generic_class(generic_points, generic_problem):
    for p in generic_points:
        basis = cv.cohomology_at(p, generic_problem.classes)
        K = form_kernel(p, generic_problem.classes, basis)
        assert K.shape[1] == 3
        cosines = np.linalg.svd(K.T @ basis.b_coords, compute_uv=False)
        assert np.arccos(np.clip(cosines, -1, 1)).max() < 1e-7


def test_kernel_at_reducible_point_reported(su2):
    """At a flat commuting (diagonal) tuple the kernel is reported from the
    singular-value gap rather than asserted: the coboundary directions are
    always contained in it, and on every probed reducible configuration
    the two in fact coincide (the form stays nondegenerate on h1)."""
    phases = [0.4, 1.1, -0.8, 0.3]
    mats = np.stack([np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in phases])
    t = GeneratorTuple(su2, 2, 0, mats)
    p = cv.RepresentationPoint(t, 0.0)
    classes = cv.ConjugacyClassSpec(su2)
    basis = cv.cohomology_at(p, classes)
    assert basis.dims() == (10, 2, 8)
    K = form_kernel(p, classes, basis)
    assert K.shape[1] >= basis.b_coords.shape[1]
    # containment of the coboundaries in the kernel (descent at a flat point)
    G = form_gram_coords(p, classes, basis.b_coords, basis.z_coords)
    assert np.abs(G).max() < 1e-9
    assert K.shape[1] == basis.b_coords.shape[1]  # observed equality, recorded


def test_zero_tangent_in_kernel(solved_points, closed_problem, su2):
    p = solved_points[0]
    zero = np.zeros(4 * su2.dim)
    rng = np.random.default_rng(12)
    u = random_coords(p.tuple, rng)
    assert theta(p, closed_problem.classes, zero, u) == 0.0


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def test_closedness_halving_ratio(solved_points, closed_problem):
    """Each halving of the step divides the value by 3 to 5: an observed
    order between log2 3 and log2 5."""
    assert twoform._CLOSEDNESS_STEPS == (1e-3, 5e-4, 2.5e-4)
    _, order = twoform.closedness_sweep(solved_points[0], closed_problem.classes)
    assert np.log2(3.0) <= order <= np.log2(5.0)


def test_closedness_small_at_default_step(solved_points, closed_problem):
    v, _ = twoform.closedness_sweep(solved_points[1], closed_problem.classes)
    assert v <= 1e-4


def test_closedness_flat_torus_sanity(su2):
    """Chart over commuting diagonal tuples: coefficients are constant, so
    every finite-difference exterior-derivative entry is at rounding."""
    X = np.diag([1j, -1j]) / np.sqrt(2.0)
    base = np.stack([np.diag([np.exp(1j * t), np.exp(-1j * t)])
                     for t in (0.3, 0.9, -0.5, 1.3)])

    def omega(tvec):
        mats = np.stack([cv.exp(su2, tvec[s] * X) @ base[s] for s in range(4)])
        t = GeneratorTuple(su2, 2, 0, mats)
        p = cv.RepresentationPoint(t, 0.0)
        frame = []
        for s in range(4):
            slot_comps = np.zeros((4, 2, 2), dtype=complex)
            slot_comps[s] = X
            frame.append(coords(su2, slot_comps))
        F = np.stack(frame, axis=1)
        return form_gram_coords(p, cv.ConjugacyClassSpec(su2), F, F)

    h = 1e-3
    worst = 0.0
    grads = []
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        grads.append((omega(e) - omega(-e)) / (2 * h))
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                val = grads[i][j, k] - grads[j][i, k] + grads[k][i, j]
                worst = max(worst, abs(val))
    assert worst < 1e-11


def test_closedness_order_generic_class(generic_points, generic_problem):
    value, order = twoform.closedness_sweep(generic_points[0], generic_problem.classes)
    assert value <= 1e-4
    assert order >= 1.8


def test_observed_order_helper():
    steps = np.array([1e-3, 5e-4, 2.5e-4])
    vals = np.array([4e-8, 1e-8, 2.5e-9])
    assert abs(twoform._observed_order(steps, vals) - 2.0) < 1e-6


def _chart_cases(su2, su3_regular_problem, solved_points, closed_problem):
    """(chart, rows): SU(2) g2 at m = 0, SU(2) g1 at theta = 0.3 and SU(3)
    g1 at a regular class; the rows sit at distances from the base point
    that take different Newton iteration counts, t = 0 included, and inside
    the chart's Newton radius (smaller on SU(3), see
    :func:`test_chart_row_past_the_newton_radius`)."""
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    g1 = cv.VarietyProblem(1, cv.ConjugacyClassSpec(su2, (rep,)))
    su3 = su3_regular_problem
    rng = np.random.default_rng(7)
    for prob, p, scales in [(closed_problem, solved_points[0], (1e-6, 1e-3, 0.05, 0.2)),
                            (g1, g1.solve(np.random.default_rng(3)), (1e-6, 1e-3, 0.05, 0.2)),
                            (su3, su3.solve(np.random.default_rng(5)), (1e-6, 1e-3, 0.02, 0.05))]:
        chart = twoform._Chart(p, prob.classes)
        dh = chart.H.shape[1]
        rows = [np.zeros(dh)] + [s * rng.standard_normal(dh) for s in scales]
        yield chart, np.stack(rows)


def test_chart_stack_matches_one_row_calls(su2, su3_regular_problem, solved_points,
                                           closed_problem, monkeypatch):
    """The batched Newton chart reads, row by row, what one-row calls read
    (bit for bit on SU), though its rows converge at different iterations."""
    sizes, system = [], twoform._Chart._system

    def counted(self, qmats):  # rows per Newton iteration
        sizes.append(len(qmats))
        return system(self, qmats)

    monkeypatch.setattr(twoform._Chart, "_system", counted)
    for chart, T in _chart_cases(su2, su3_regular_problem, solved_points, closed_problem):
        sizes.clear()
        stack = chart.solve(T)
        # one system at the base point serves every row's first iterate
        assert sizes[0] == 1 and len(set(sizes)) > 2  # rows finish apart
        rows = np.concatenate([chart.solve(T[i:i + 1]) for i in range(len(T))])
        assert stack.shape == (len(T),) + (chart.H.shape[1],) * 2
        assert_slices_agree(chart.spec, stack, rows)
        assert chart.solve(T[:0]).shape == (0,) + stack.shape[1:]


def _omega_or_error(chart, T):
    try:
        return chart.solve(T)
    except (OutsideDomainError, NoConvergenceError) as err:
        return type(err)


def test_chart_row_past_the_newton_radius(su3_regular_problem):
    """At |t| ~ 0.2 per coordinate the SU(3) chart is outside its Newton
    radius in most directions: a row there converges or raises
    ``OutsideDomainError``/``NoConvergenceError``, and does the same in a
    stack with a converging row as on its own."""
    prob = su3_regular_problem
    chart = twoform._Chart(prob.solve(np.random.default_rng(5)), prob.classes)
    rng = np.random.default_rng(11)
    near = 0.02 * rng.standard_normal((1, chart.H.shape[1]))
    for _ in range(3):
        far = 0.2 * rng.standard_normal(near.shape)
        stack = _omega_or_error(chart, np.concatenate([near, far]))
        alone = _omega_or_error(chart, far)
        if isinstance(alone, type):
            assert stack is alone
        else:
            assert_slices_agree(chart.spec, stack[1:], alone)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_chart_at_base_point_is_form_on_cohomology(solved_points, closed_problem, index):
    """At t = 0 the chart frame is the h1 basis, so the chart coefficients
    are the form matrix over h1."""
    p = solved_points[index]
    chart = twoform._Chart(p, closed_problem.classes)
    omega = chart.solve(np.zeros((1, chart.H.shape[1])))[0]
    want = form_on_cohomology(p, closed_problem.classes)
    assert np.abs(omega - want).max() < 1e-11


def test_closedness_check_detects_non_closed_form(solved_points, closed_problem,
                                                  monkeypatch):
    """Scale the form by 1 + Re tr(a_1), which varies over the chart: the
    result f Omega has dOmega = df ^ Omega != 0, so the closedness value is
    large and does not decay with the step, and both certify gates fail."""
    form = twoform.form_gram_stack

    def scaled(lin, U, V):
        f = 1.0 + np.trace(lin.mats[..., 0, :, :], axis1=-2, axis2=-1).real
        return f[..., None, None] * form(lin, U, V)

    monkeypatch.setattr(twoform, "form_gram_stack", scaled)
    value, order = twoform.closedness_sweep(solved_points[0], closed_problem.classes)
    assert value > 1e-2
    assert order < 0.5


# ---------------------------------------------------------------------------
# closedness at the point: d omega = Phi*eta
# ---------------------------------------------------------------------------

def haar_case(family, rank, g, m, angle, degenerate, seed):
    """A draw of :meth:`VarietyProblem.initial_batch` with m boundary slots
    in the class of diag(e^{i angle}, e^{-i angle}) (rank 2), of
    diag(e^{i angle}, 1, e^{-i angle}) or, ``degenerate``,
    diag(e^{i angle}, e^{i angle}, e^{-2i angle}) (rank 3); returns
    (spec, mats, classes, linearization)."""
    spec = cv.GroupSpec(family, rank)
    phases = ([angle, -angle] if rank == 2 else
              [angle, angle, -2 * angle] if degenerate else [angle, 0.0, -angle])
    classes = cv.ConjugacyClassSpec(spec, (np.diag(np.exp(1j * np.array(phases))),) * m)
    prob = cv.VarietyProblem(g, classes)
    mats = prob.initial_batch(np.random.default_rng(seed), 1)[0]
    return spec, mats, classes, linearization(spec, mats, g, m, classes)


@pytest.mark.parametrize("family, rank, g, m, angle, degenerate", [
    ("SU", 2, 2, 0, 0.0, False), ("SU", 2, 1, 1, 0.3, False),
    ("SU", 2, 2, 2, 1.0, False), ("SU", 3, 1, 1, 0.4, False),
    ("SU", 3, 1, 1, 0.4, True), ("SLC", 2, 1, 1, 0.3, False),
], ids=["su2-g2", "su2-g1m1", "su2-g2m2", "su3-regular", "su3-degenerate", "slc2-g1m1"])
def test_d_omega_matches_chart_differences(family, rank, g, m, angle, degenerate):
    """The exact d omega of the letter calculus agrees with central
    differences in an explicit chart to truncation: the misfit is below
    1e-7 of |d omega| at h = 1e-4 and grows 3 to 5 times at h = 2e-4."""
    spec, mats, classes, lin = haar_case(family, rank, g, m, angle, degenerate, 1)
    d_omega, _ = twoform._d_omega(lin)
    scale = np.abs(d_omega).max()
    misfit = [np.abs(d_omega_by_differences(spec, mats, g, m, classes, h) - d_omega).max()
              / scale for h in (1e-4, 2e-4)]
    assert misfit[0] < 1e-7
    assert 3.0 < misfit[1] / misfit[0] < 5.0


@pytest.mark.filterwarnings("ignore:closed genus-1 surface")
@given(family=st.sampled_from(["SU", "SLC"]), rank=st.integers(2, 3),
       g=st.integers(1, 3), m=st.integers(0, 2), angle=st.floats(0.05, 3.0),
       degenerate=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_d_omega_is_phi_star_eta_at_haar_draws(family, rank, g, m, angle, degenerate, seed):
    """The ambient form is quasi-Hamiltonian at every tuple, on or off the
    variety: d omega = Phi*eta to rounding.  The gate is 1e-13 times the
    cube of the largest letter-transport entry (at least 1): d omega sums
    triple products of transported components.  On SU that is 1e-13.  The
    SL(r, C) draws are exp of Gaussians, whose transport reaches 1e10 at rank
    3 and genus 3; there a 1e-15 step of the input moves d omega by as much
    as the defect, and |d omega| itself is no rounding scale."""
    _, _, _, lin = haar_case(family, rank, g, m, angle, degenerate, seed)
    gate = 1e-13 * max(1.0, np.abs(lin.T).max()) ** 3
    assert twoform.closedness_defect(lin) <= gate


def test_closedness_at_solved_points(solved_points, closed_problem, minus_points,
                                     minus_problem, boundary_points, boundary_problem,
                                     generic_points, generic_problem, su3_regular_problem):
    """At solved points -- SU(2) genus 2 at +-I (the benchmark's certify
    configs), SU(2) at boundary classes and SU(3) at a regular class -- the
    closedness identity holds to 1e-12."""
    su3 = su3_regular_problem
    cases = ([(p, closed_problem) for p in solved_points[:5]]
             + [(p, minus_problem) for p in minus_points]
             + [(p, boundary_problem) for p in boundary_points]
             + [(p, generic_problem) for p in generic_points]
             + [(su3.solve(np.random.default_rng(5)), su3)])
    for p, prob in cases:
        t = p.tuple
        lin = linearization(p.spec, t.mats, t.genus, t.boundary_count, prob.classes)
        assert twoform.closedness_defect(lin) <= 1e-12


@pytest.mark.parametrize("factor", [-1.0, 1.01])
def test_planted_form_scale_fails_closedness(factor, solved_points, closed_problem,
                                             generic_points, generic_problem,
                                             monkeypatch):
    """The form scaled by -1 or by 1.01 reads |factor - 1| / |factor| (2 and
    about 1e-2) and fails the certify check, with and without a boundary
    class."""
    frame_form = twoform._frame_form

    def scaled(lin):
        U, W, dW = frame_form(lin)
        return U, factor * W, factor * dW

    monkeypatch.setattr(twoform, "_frame_form", scaled)
    for p, prob in [(solved_points[0], closed_problem), (generic_points[0], generic_problem)]:
        t = p.tuple
        lin = linearization(p.spec, t.mats, t.genus, t.boundary_count, prob.classes)
        value = twoform.closedness_defect(lin)
        assert abs(value - abs(factor - 1.0) / abs(factor)) < 1e-12
        checks = certify_point(p, prob.classes, closedness=True)
        closedness = next(c for c in checks if c["check"] == "closedness")
        assert not closedness["pass"]


# ---------------------------------------------------------------------------
# higher rank and the complex family
# ---------------------------------------------------------------------------

def test_su3_structure(su3):
    """SU(3), genus 2: dims (24, 8, 16), descent, kernel = coboundaries."""
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(su3))
    p = prob.solve(np.random.default_rng(1))
    assert cv.is_irreducible(p.tuple)
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (24, 8, 16)  # h1 = (2g - 2) dim G
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    assert form_kernel(p, prob.classes, basis).shape[1] == 8
    omega = form_on_cohomology(p, prob.classes, basis)
    assert np.linalg.svd(omega, compute_uv=False)[-1] > 1e-3


def test_su3_regular_class_form(su3_regular_problem):
    """SU(3), genus 1, regular boundary class: dims (14, 8, 6), skew,
    descent, kernel = coboundaries, and second-order closedness."""
    prob = su3_regular_problem
    p = prob.solve(np.random.default_rng(5))
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (14, 8, 6)
    omega = form_on_cohomology(p, prob.classes, basis)
    assert np.abs(omega + omega.T).max() < 1e-12
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    assert form_kernel(p, prob.classes, basis).shape[1] == 8
    _, order = twoform.closedness_sweep(p, prob.classes)
    assert order >= 1.8


def test_slc_complex_form(slc2):
    """SL(2, C): complex-valued skew form with the same dimension pattern."""
    prob = cv.VarietyProblem(2, cv.ConjugacyClassSpec(slc2))
    p = prob.solve(np.random.default_rng(3))
    assert cv.is_irreducible(p.tuple)
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (9, 3, 6)  # complex dimensions
    omega = form_on_cohomology(p, prob.classes, basis)
    assert np.iscomplexobj(omega)
    assert np.abs(omega + omega.T).max() < 1e-10
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    rng = np.random.default_rng(4)
    u = random_coords(p.tuple, rng)
    v = random_coords(p.tuple, rng)
    val = theta(p, prob.classes, u, v)
    assert isinstance(val, complex)
    assert abs(val + theta(p, prob.classes, v, u)) < 1e-12
    assert twoform.closedness_defect(basis.lin) <= 1e-12

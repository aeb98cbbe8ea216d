"""Two-form evaluation against a brute-force oracle, descent, kernel
structure, nondegeneracy, and the finite-difference closedness check."""

import numpy as np
import pytest

import charvar as cv
from charvar import liegroup as lg
from charvar import twoform
from charvar.errors import NotClassTangentError
from charvar.presentation import GeneratorTuple, letter_transport
from charvar.twoform import first_sum_gram, form_gram_coords, observed_order
from charvar.variety import boundary_slots, embed_moves
from test_liegroup import assert_slices_agree


def epsilon_sign(i, j):
    """+1 below the diagonal pair order (i < j), -1 above, 0 on it."""
    return (i < j) - (j < i)


def theta(p, classes, u, v):
    """The form on one pair of tangent vectors."""
    return form_gram_coords(p, classes, u.coords()[:, None], v.coords()[:, None])[0, 0]


def closed_theta(p, u, v):
    """The closed-surface double sum alone, with no boundary term."""
    t = p.tuple
    T, _ = letter_transport(p.spec, t.mats, t.genus, 0)
    return first_sum_gram(p.spec, T, t.genus, 0, u.coords()[:, None],
                          v.coords()[:, None])[0, 0]


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
    slots = boundary_slots(p.spec, t.mats, t.genus, t.boundary_count, classes)
    return embed_moves(p.spec.dim, t.genus, [sl.U for sl in slots])


def test_epsilon_convention():
    assert epsilon_sign(1, 2) == 1
    assert epsilon_sign(2, 1) == -1
    assert epsilon_sign(3, 3) == 0


def test_theta_zero_cases(solved_points, closed_problem, su2):
    rng = np.random.default_rng(0)
    p, classes = solved_points[0], closed_problem.classes
    u = cv.random_tangent(p.tuple, rng)
    zero = cv.TangentVector.zero(su2, p.tuple.n_generators)
    assert theta(p, classes, u, u) == pytest.approx(0.0, abs=1e-12)
    assert theta(p, classes, u, zero) == 0.0


def test_theta_genus1_identity_single_slot(su2):
    """Tangents supported on the first slot only cancel pairwise at identity."""
    t = GeneratorTuple.identity(su2, 1)
    rng = np.random.default_rng(1)
    for _ in range(5):
        comps_u = np.zeros((2, 2, 2), dtype=complex)
        comps_v = np.zeros((2, 2, 2), dtype=complex)
        comps_u[0] = cv.random_algebra(su2, rng)
        comps_v[0] = cv.random_algebra(su2, rng)
        u = cv.TangentVector(su2, comps_u)
        v = cv.TangentVector(su2, comps_v)
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
        u = cv.random_tangent(t, rng)
        v = cv.random_tangent(t, rng)
        fast = theta(as_point(t), cv.ConjugacyClassSpec(spec), u, v)
        slow = brute_force_theta(t, u.comps, v.comps)
        # SL(2,C) partial products are far from unitary: the transported
        # components grow large and cancel, so the bound follows their size
        tol = 1e-13 if spec.is_unitary else \
            1e-14 * brute_force_theta(t, u.comps, v.comps, magnitude=True)
        assert abs(fast - slow) < tol


def test_theta_with_classes_matches_brute_force_halfpi(boundary_points):
    """At the trace-zero class the boundary term vanishes identically, so the
    brute-force first sum is the whole form."""
    rng = np.random.default_rng(3)
    p = boundary_points[0]
    classes = cv.ConjugacyClassSpec(p.spec, (np.diag([1j, -1j]),))
    E = admissible_basis(p, classes)
    for _ in range(10):
        u = cv.TangentVector.from_coords(p.spec, 3, E @ rng.standard_normal(E.shape[1]))
        v = cv.TangentVector.from_coords(p.spec, 3, E @ rng.standard_normal(E.shape[1]))
        fast = theta(p, classes, u, v)
        slow = brute_force_theta(p.tuple, u.comps, v.comps)
        assert abs(fast - slow) < 1e-13


def test_with_classes_equals_closed_at_m0(solved_points, closed_problem):
    """1000 random triples: at m = 0 the form with classes and the
    closed-surface double sum agree to 1e-13."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(1000):
        p = solved_points[i % len(solved_points)]
        u = cv.random_tangent(p.tuple, rng)
        v = cv.random_tangent(p.tuple, rng)
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
    comps = np.zeros((3, 2, 2), dtype=complex)
    u = cv.TangentVector(su2, comps.copy())
    assert theta(p, classes, u, u) == pytest.approx(0.0)
    comps[2] = cv.random_algebra(su2, rng)
    bad = cv.TangentVector(su2, comps)
    with pytest.raises(NotClassTangentError):
        theta(p, classes, u, bad)
    assert classes.tangent_basis(0).shape[1] == 0


def test_skewness_and_bilinearity_random(solved_points, closed_problem):
    rng = np.random.default_rng(7)
    p, classes = solved_points[1], closed_problem.classes
    for _ in range(25):
        u = cv.random_tangent(p.tuple, rng)
        v = cv.random_tangent(p.tuple, rng)
        w = cv.random_tangent(p.tuple, rng)
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
            u = cv.TangentVector.from_coords(p.spec, 3,
                                             E @ rng.standard_normal(E.shape[1]))
            v = cv.TangentVector.from_coords(p.spec, 3,
                                             E @ rng.standard_normal(E.shape[1]))
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
            u = cv.TangentVector.from_coords(p.spec, 5, E @ rng.standard_normal(E.shape[1]))
            v = cv.TangentVector.from_coords(p.spec, 5, E @ rng.standard_normal(E.shape[1]))
            fast = theta(p, generic_problem.classes, u, v)
            worst = max(worst, abs(fast - brute_force_theta(t, u.comps, v.comps)))
            T, _ = letter_transport(p.spec, t.mats, 2, 1)
            first = first_sum_gram(p.spec, T, 2, 1, u.coords()[:, None],
                                   v.coords()[:, None])
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
        omega = cv.form_on_cohomology(p, generic_problem.classes)
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
        u = cv.random_tangent(p.tuple, rng)
        v = cv.random_tangent(p.tuple, rng)
        q = cv.conjugate_point(p, A, closed_problem.classes)
        Au = cv.TangentVector(su2, Ai @ u.comps @ A)
        Av = cv.TangentVector(su2, Ai @ v.comps @ A)
        assert abs(theta(q, closed_problem.classes, Au, Av)
                   - theta(p, closed_problem.classes, u, v)) < 1e-10


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
    omega = cv.form_on_cohomology(p, closed_problem.classes, basis)
    shifted = basis.h_coords + 0.5 * rng.standard_normal(6) * np.tile(basis.b_coords, 2)
    G = form_gram_coords(p, closed_problem.classes, shifted, shifted)
    assert np.abs(G - omega).max() < 1e-8


def test_form_matrix_structure(solved_points, closed_problem):
    p = solved_points[4]
    omega = cv.form_on_cohomology(p, closed_problem.classes)
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
        K = cv.kernel_of_form(p, closed_problem.classes, basis)
        assert K.shape[1] == 3
        cosines = np.linalg.svd(K.T @ basis.b_coords, compute_uv=False)
        angles = np.arccos(np.clip(cosines, -1, 1))
        assert angles.max() < 1e-7


def test_kernel_equals_coboundaries_generic_class(generic_points, generic_problem):
    for p in generic_points:
        basis = cv.cohomology_at(p, generic_problem.classes)
        K = cv.kernel_of_form(p, generic_problem.classes, basis)
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
    K = cv.kernel_of_form(p, classes, basis)
    assert K.shape[1] >= basis.b_coords.shape[1]
    # containment of the coboundaries in the kernel (descent at a flat point)
    G = form_gram_coords(p, classes, basis.b_coords, basis.z_coords)
    assert np.abs(G).max() < 1e-9
    assert K.shape[1] == basis.b_coords.shape[1]  # observed equality, recorded


def test_zero_tangent_in_kernel(solved_points, closed_problem, su2):
    p = solved_points[0]
    zero = cv.TangentVector.zero(su2, 4)
    rng = np.random.default_rng(12)
    u = cv.random_tangent(p.tuple, rng)
    assert theta(p, closed_problem.classes, zero, u) == 0.0


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------

def test_closedness_halving_ratio(solved_points, closed_problem):
    vals = cv.closedness_sweep(solved_points[0], closed_problem.classes,
                               steps=(1e-3, 5e-4))
    ratio = vals[0] / vals[1]
    assert 3.0 <= ratio <= 5.0


def test_closedness_small_at_default_step(solved_points, closed_problem):
    (v,) = cv.closedness_sweep(solved_points[1], closed_problem.classes, (1e-3,))
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
            comps = np.zeros((4, 2, 2), dtype=complex)
            comps[s] = X
            frame.append(cv.TangentVector(su2, comps))
        F = np.stack([v.coords() for v in frame], axis=1)
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
    steps = (1e-3, 5e-4, 2.5e-4)
    vals = cv.closedness_sweep(generic_points[0], generic_problem.classes, steps=steps)
    assert vals[0] <= 1e-4
    assert observed_order(steps, vals) >= 1.8


def test_observed_order_helper():
    steps = (1e-3, 5e-4, 2.5e-4)
    vals = [4e-8, 1e-8, 2.5e-9]
    assert abs(observed_order(steps, vals) - 2.0) < 1e-6


def test_observed_order_needs_two_distinct_steps():
    """One step fixes no slope (a least-squares fit would invent one)."""
    for steps in ([1e-3], [1e-3, 1e-3]):
        with pytest.raises(ValueError):
            observed_order(steps, [1e-7] * len(steps))


def _chart_cases(su2, su3_regular_problem, solved_points, closed_problem):
    """(chart, rows): SU(2) g2 at m = 0, SU(2) g1 at theta = 0.3 and SU(3)
    g1 at a regular class; the rows sit at distances from the base point
    that take different Newton iteration counts, t = 0 included."""
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    g1 = cv.VarietyProblem(su2, cv.SurfacePresentation(1, 1),
                           cv.ConjugacyClassSpec(su2, (rep,)))
    su3 = su3_regular_problem
    rng = np.random.default_rng(7)
    for prob, p in [(closed_problem, solved_points[0]),
                    (g1, g1.solve(np.random.default_rng(3))),
                    (su3, su3.solve(np.random.default_rng(5)))]:
        chart = twoform._Chart(p, prob.classes)
        dh = chart.H.shape[1]
        rows = [np.zeros(dh)] + [s * rng.standard_normal(dh)
                                 for s in (1e-6, 1e-3, 0.05, 0.2)]
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
        stack = chart.omega_at(T)
        assert sizes[0] == len(T) and len(set(sizes)) > 2  # rows finish apart
        rows = np.concatenate([chart.omega_at(T[i:i + 1]) for i in range(len(T))])
        assert stack.shape == (len(T),) + (chart.H.shape[1],) * 2
        assert_slices_agree(chart.spec, stack, rows)
        assert chart.omega_at(T[:0]).shape == (0,) + stack.shape[1:]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_chart_at_base_point_is_form_on_cohomology(solved_points, closed_problem, index):
    """At t = 0 the chart frame is the h1 basis, so the chart coefficients
    are the form matrix over h1."""
    p = solved_points[index]
    chart = twoform._Chart(p, closed_problem.classes)
    omega = chart.omega_at(np.zeros((1, chart.H.shape[1])))[0]
    want = cv.form_on_cohomology(p, closed_problem.classes)
    assert np.abs(omega - want).max() < 1e-11


def test_closedness_check_detects_non_closed_form(solved_points, closed_problem,
                                                  monkeypatch):
    """Scale the form by 1 + Re tr(a_1), which varies over the chart: the
    result f Omega has dOmega = df ^ Omega != 0, so the closedness value is
    large and does not decay with the step, and both certify gates fail."""
    form = twoform.form_gram_stack

    def scaled(spec, mats, g, m, U, V, slots):
        f = 1.0 + np.trace(mats[..., 0, :, :], axis1=-2, axis2=-1).real
        return f[..., None, None] * form(spec, mats, g, m, U, V, slots)

    monkeypatch.setattr(twoform, "form_gram_stack", scaled)
    steps = (1e-3, 5e-4, 2.5e-4)
    vals = cv.closedness_sweep(solved_points[0], closed_problem.classes, steps=steps)
    assert vals[0] > 1e-2
    assert observed_order(steps, vals) < 0.5


# ---------------------------------------------------------------------------
# higher rank and the complex family
# ---------------------------------------------------------------------------

def test_su3_structure(su3):
    """SU(3), genus 2: dims (24, 8, 16), descent, kernel = coboundaries."""
    prob = cv.VarietyProblem(su3, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(su3))
    p = prob.solve(np.random.default_rng(1))
    p = p.with_irreducible(cv.is_irreducible(p))
    assert p.irreducible
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (24, 8, 16)  # h1 = (2g - 2) dim G
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    assert cv.kernel_of_form(p, prob.classes, basis).shape[1] == 8
    omega = cv.form_on_cohomology(p, prob.classes, basis)
    assert np.linalg.svd(omega, compute_uv=False)[-1] > 1e-3


def test_su3_regular_class_form(su3_regular_problem):
    """SU(3), genus 1, regular boundary class: dims (14, 8, 6), skew,
    descent, kernel = coboundaries, and second-order closedness."""
    prob = su3_regular_problem
    p = prob.solve(np.random.default_rng(5))
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (14, 8, 6)
    omega = cv.form_on_cohomology(p, prob.classes, basis)
    assert np.abs(omega + omega.T).max() < 1e-12
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    assert cv.kernel_of_form(p, prob.classes, basis).shape[1] == 8
    steps = (1e-3, 5e-4, 2.5e-4)
    vals = cv.closedness_sweep(p, prob.classes, steps=steps)
    assert observed_order(steps, vals) >= 1.8


def test_slc_complex_form(slc2):
    """SL(2, C): complex-valued skew form with the same dimension pattern."""
    prob = cv.VarietyProblem(slc2, cv.SurfacePresentation(2),
                             cv.ConjugacyClassSpec(slc2))
    p = prob.solve(np.random.default_rng(3))
    assert cv.is_irreducible(p)
    basis = cv.cohomology_at(p, prob.classes)
    assert basis.dims() == (9, 3, 6)  # complex dimensions
    omega = cv.form_on_cohomology(p, prob.classes, basis)
    assert np.iscomplexobj(omega)
    assert np.abs(omega + omega.T).max() < 1e-10
    assert np.abs(form_gram_coords(p, prob.classes, basis.b_coords,
                                   basis.z_coords)).max() < 1e-9
    rng = np.random.default_rng(4)
    u = cv.random_tangent(p.tuple, rng)
    v = cv.random_tangent(p.tuple, rng)
    val = theta(p, prob.classes, u, v)
    assert isinstance(val, complex)
    assert abs(val + theta(p, prob.classes, v, u)) < 1e-12

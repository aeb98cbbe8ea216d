"""Relator word, its differential, and the coboundary map."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import charvar as cv
from charvar import liegroup as lg
from charvar import presentation as pres
from charvar.presentation import GeneratorTuple, letter_tables
from charvar.twoform import first_sum_gram
from conftest import linearization, mat_product_partial_products
from test_liegroup import assert_slices_agree, batch_shapes


def fold_inverted_word_oracle(t):
    """Evaluate the inverse word left to right (independent fold).

    The inverse of the relator reads
        a_1^-1 b_1^-1 a_1 b_1 ... a_g^-1 b_g^-1 a_g b_g c_1^-1 ... c_m^-1
    left to right; folding it and inverting the result recovers the
    relator itself.
    """
    inv = lambda M: np.conj(M.T)  # SU only
    out = np.eye(t.spec.rank, dtype=complex)
    for i in range(t.genus):
        for f in (inv(t.a(i)), inv(t.b(i)), t.a(i), t.b(i)):
            out = out @ f
    for k in range(t.boundary_count):
        out = out @ inv(t.c(k))
    return inv(out)


def random_tuple(spec, g, m, rng):
    return GeneratorTuple(spec, g, m, lg.haar_sample(spec, rng, size=2 * g + m))


def conjugate_tuple(t, A):
    """Slotwise s -> A^-1 s A."""
    return t.replace_mats(lg.group_inverse(t.spec, A) @ t.mats @ A)


def differential(t):
    """Coordinate matrix of the relator differential at the tuple."""
    return linearization(t.spec, t.mats, t.genus, t.boundary_count).D


def coords(spec, comps):
    """Stacked slot-major coordinates of right-trivialized slot components."""
    return lg.algebra_coords(spec, comps).reshape(-1)


def apply_differential(t, H):
    """dPi(H) as an algebra element, H given by its slot components."""
    return lg.coords_to_algebra(t.spec, differential(t) @ coords(t.spec, H))


def coboundary(t, X):
    """Coordinates of the infinitesimal conjugation direction of X."""
    return pres.coboundary_matrix(t.spec, t.mats) @ lg.algebra_coords(t.spec, X)


def test_relator_all_identity(su2):
    t = GeneratorTuple.identity(su2, 2)
    assert np.array_equal(cv.evaluate_relator(t), np.eye(2))


def test_relator_commuting_diagonal(su2):
    d = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    t = GeneratorTuple.from_parts(su2, [d], [d])
    assert np.abs(cv.evaluate_relator(t) - np.eye(2)).max() < 1e-15


def test_relator_against_fold_oracle(su2):
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = random_tuple(su2, 2, 1, rng)
        got = cv.evaluate_relator(t)
        assert np.abs(got - fold_inverted_word_oracle(t)).max() < 1e-13


def test_relator_letter_order(su2):
    """The genus block must multiply as b^-1 a^-1 b a, rightmost first."""
    rng = np.random.default_rng(1)
    t = random_tuple(su2, 1, 0, rng)
    a, b = t.a(0), t.b(0)
    inv = lambda M: np.conj(M.T)
    expected = inv(b) @ inv(a) @ b @ a
    assert np.abs(cv.evaluate_relator(t) - expected).max() < 1e-14
    tables = letter_tables(1, 2)
    assert tables.slots.tolist() == [0, 1, 0, 1, 2, 3]
    assert tables.exponents.tolist() == [1, 1, -1, -1, 1, 1]
    assert tables.reads.tolist() == [1, 2, 2, 3, 5, 6]


def test_relator_conjugation_equivariance(su2):
    rng = np.random.default_rng(2)
    t = random_tuple(su2, 2, 0, rng)
    A = cv.haar_sample(su2, rng)
    lhs = cv.evaluate_relator(conjugate_tuple(t, A))
    rhs = np.conj(A.T) @ cv.evaluate_relator(t) @ A
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

def test_differential_zero_at_identity_closed(su2):
    t = GeneratorTuple.identity(su2, 1)
    D = differential(t)
    assert np.abs(D).max() < 1e-14


def assert_finite_difference_slope(spec, g, m):
    """||analytic - finite difference|| = O(eps), slope >= 0.9 on a log-log fit.

    The tuple is off the variety (Ad(Pi) != 1), so the transport by Ad(Pi)
    and every letter of the word enter."""
    rng = np.random.default_rng(3)
    t = random_tuple(spec, g, m, rng)
    H = lg.random_algebra(spec, rng, size=t.n_generators)
    analytic = apply_differential(t, H)
    base_inv = lg.group_inverse(spec, cv.evaluate_relator(t))
    assert np.abs(cv.adjoint_matrix(spec, base_inv) - np.eye(spec.dim)).max() > 0.1
    errs = []
    eps_list = [1e-3, 1e-4, 1e-5]
    for eps in eps_list:
        moved = t.replace_mats(cv.exp(spec, eps * H) @ t.mats)
        fd = cv.log_near_identity(spec, cv.evaluate_relator(moved) @ base_inv) / eps
        errs.append(np.abs(fd - analytic).max())
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_differential_finite_difference_slope(su2):
    assert_finite_difference_slope(su2, 2, 0)


@pytest.mark.parametrize("family, rank, g, m", [("SU", 3, 1, 1), ("SLC", 2, 2, 0)],
                         ids=["su3-g1m1", "slc2-g2"])
def test_differential_finite_difference_slope_beyond_su2(family, rank, g, m):
    assert_finite_difference_slope(cv.GroupSpec(family, rank), g, m)


def test_differential_linearity(su2):
    rng = np.random.default_rng(4)
    t = random_tuple(su2, 2, 1, rng)
    H = coords(su2, lg.random_algebra(su2, rng, size=t.n_generators))
    K = coords(su2, lg.random_algebra(su2, rng, size=t.n_generators))
    D = differential(t)
    lhs = D @ (0.7 * H - 1.3 * K)
    rhs = 0.7 * (D @ H) - 1.3 * (D @ K)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_differential_equivariance(su2):
    """dPi at the conjugated tuple is Ad(A^-1) dPi (slotwise Ad(A^-1) input)."""
    rng = np.random.default_rng(5)
    t = random_tuple(su2, 2, 0, rng)
    A = cv.haar_sample(su2, rng)
    Ai = np.conj(A.T)
    H = lg.random_algebra(su2, rng, size=t.n_generators)
    moved = conjugate_tuple(t, A)
    lhs = apply_differential(moved, Ai @ H @ A)
    rhs = Ai @ apply_differential(t, H) @ A
    assert np.abs(lhs - rhs).max() < 1e-10


def einsum_slot_sum_differential(spec, T, Pi, g, m):
    """Oracle: Ad(Pi) times each slot's letter-operator sum, the sum taken
    by einsum over the 0/1 slot-membership matrix of the letters."""
    n, d = 2 * g + m, spec.dim
    slots = letter_tables(g, m).slots
    at_slot = (slots == np.arange(n)[:, None]).astype(float)
    sums = np.einsum("sj,...jab->...sab", at_slot, T)
    blocks = lg.adjoint_matrix(spec, Pi[..., None, :, :]) @ sums
    return np.moveaxis(blocks, -3, -2).reshape(T.shape[:-3] + (d, n * d))


@pytest.mark.parametrize("family, rank", [("SU", 2), ("SU", 3), ("SLC", 2)])
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_relator_differential_is_the_einsum_slot_sum(family, rank, g, m):
    """Summing each slot's letters by index gives the einsum's bits: the
    terms it drops are exact zeros."""
    spec = cv.GroupSpec(family, rank)
    mats = lg.haar_sample(spec, np.random.default_rng(100 * g + m), size=(5, 2 * g + m))
    f = pres.partial_products(spec, mats, g, m)
    T = pres.letter_transport(spec, f, g, m)
    got = pres.relator_differential_matrix(spec, T, f[..., -1, :, :], g, m)
    assert got.shape == (5, spec.dim, (2 * g + m) * spec.dim)
    assert np.array_equal(got, einsum_slot_sum_differential(spec, T, f[..., -1, :, :], g, m))


def su2_tuples(kind, g, batch):
    """(batch, 2g) SU(2) tuples of exact form [[a, -conj b], [b, conj a]]:
    Haar draws, their Gauss-Newton landings on the relator -I (irreducible
    at every genus), or identities."""
    su2 = cv.GroupSpec("SU", 2)
    if kind == "identity":
        return np.array(np.broadcast_to(np.eye(2, dtype=complex), (batch, 2 * g, 2, 2)))
    mats = lg.haar_sample(su2, np.random.default_rng(10 * g + batch), size=(batch, 2 * g))
    if kind == "haar":
        return mats
    landed, _, _, ok = cv.variety.project_batch(
        mats, cv.ConjugacyClassSpec(su2, (), -np.eye(2)), tol=1e-11)
    assert ok.mean() > 0.9
    return landed


@pytest.mark.parametrize("kind", ["haar", "landing", "identity"])
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 2048])
def test_su2_partial_products_are_the_mat_product_recurrence(kind, g, batch):
    """The SU(2) first-column recurrence gives the whole-matrix products bit
    for bit on exact-form tuples, up to the sign of a zero: where the two
    terms of a second-column entry cancel exactly (identities, the relator
    at a landing), the negated sum reads -0 and the sum of negated terms +0.
    The first columns are the products' bytes."""
    su2 = cv.GroupSpec("SU", 2)
    mats = su2_tuples(kind, g, batch)
    got = pres.partial_products(su2, mats, g, 0)
    want = mat_product_partial_products(su2, mats, g, 0)
    assert got.shape == (batch, 4 * g + 1, 2, 2)
    assert np.array_equal(got, want)  # -0 == 0
    assert got[..., 0].tobytes() == want[..., 0].tobytes()
    if kind == "haar":
        assert got.tobytes() == want.tobytes()


def test_su2_partial_products_with_a_class_projected_boundary():
    """A boundary generator projected onto its class by ``@`` is unitary but
    not of exact form: the first columns are still the whole products' bits,
    and the second columns agree to rounding."""
    su2 = cv.GroupSpec("SU", 2)
    rng = np.random.default_rng(4)
    rep = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    for g in (1, 2):
        mats = lg.haar_sample(su2, rng, size=(64, 2 * g + 1))
        mats[:, -1] = [cv.variety.project_to_class(su2, c, rep) for c in mats[:, -1]]
        got = pres.partial_products(su2, mats, g, 1)
        want = mat_product_partial_products(su2, mats, g, 1)
        assert got[..., 0].tobytes() == want[..., 0].tobytes()
        assert np.abs(got[..., 1] - want[..., 1]).max() <= 1e-15


def all_letters_transport(spec, f, g, m):
    """Oracle: Ad(f_j^-1) of every partial product j >= 1, then each letter's
    operator picked from them with its sign."""
    ad = lg.adjoint_matrix(spec, lg.group_inverse(spec, f[..., 1:, :, :]))
    exponents = letter_tables(g, m).exponents
    T = ad[..., [j if e == 1 else j - 1 for j, e in enumerate(exponents)], :, :]
    return T * exponents[:, None, None]


@pytest.mark.parametrize("family, rank", [("SU", 2), ("SU", 3), ("SLC", 2)])
@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_letter_transport_matches_all_letters_oracle(family, rank, g, m):
    """Taking the adjoints of only the partial products the letters read
    gives the all-letters operators bit for bit."""
    spec = cv.GroupSpec(family, rank)
    mats = lg.haar_sample(spec, np.random.default_rng(10 * g + m), size=(3, 2 * g + m))
    f = pres.partial_products(spec, mats, g, m)
    got = pres.letter_transport(spec, f, g, m)
    assert got.shape == (3, 4 * g + m, spec.dim, spec.dim)
    assert got.tobytes() == all_letters_transport(spec, f, g, m).tobytes()


@pytest.mark.parametrize("g, m", [(1, 0), (2, 1), (3, 2)])
def test_letter_transport_adjoints_only_the_products_read(su3, monkeypatch, g, m):
    """No letter reads f_{4i}: the transport takes 3g + m adjoints per tuple
    for its 4g + m letters."""
    seen, adjoint = [], lg.adjoint_matrix

    def counted(spec, x):
        seen.append(int(np.prod(x.shape[:-2])))
        return adjoint(spec, x)

    mats = lg.haar_sample(su3, np.random.default_rng(g), size=(5, 2 * g + m))
    f = pres.partial_products(su3, mats, g, m)
    monkeypatch.setattr(lg, "adjoint_matrix", counted)
    pres.letter_transport(su3, f, g, m)
    assert seen == [5 * (3 * g + m)]


@given(spec=st.sampled_from([cv.GroupSpec("SU", 2), cv.GroupSpec("SU", 3),
                              cv.GroupSpec("SLC", 2)]),
       g=st.integers(1, 2), m=st.integers(0, 1), shape=batch_shapes,
       seed=st.integers(0, 2**32 - 1))
def test_word_calculus_batch_matches_per_slice(spec, g, m, shape, seed):
    """The relator, its differential and the form's first sum on a stack of
    tuples equal the calls on each tuple: the letter gather and the
    per-slot scatter act on the trailing axes only."""
    rng = np.random.default_rng(seed)
    n = 2 * g + m
    mats = lg.haar_sample(spec, rng, size=shape + (n,))
    U = rng.standard_normal(shape + (n * spec.dim, 3))
    V = rng.standard_normal(shape + (n * spec.dim, 2))

    def word_calculus(mats, U, V):
        lin = linearization(spec, mats, g, m)
        return (pres.partial_products(spec, mats, g, m)[..., -1, :, :], lin.D,
                first_sum_gram(lin, U, V))

    batched = word_calculus(mats, U, V)
    slices = [word_calculus(mats[i], U[i], V[i]) for i in np.ndindex(shape)]
    for k, got in enumerate(batched):
        want = np.array([sl[k] for sl in slices]).reshape(got.shape)
        assert_slices_agree(spec, got, want)


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------

def test_coboundary_zero_input(su2):
    rng = np.random.default_rng(6)
    t = random_tuple(su2, 2, 0, rng)
    out = coboundary(t, np.zeros((2, 2), dtype=complex))
    assert np.linalg.norm(out) == 0.0


def test_coboundary_central_tuple(su2):
    t = GeneratorTuple(su2, 1, 0, np.stack([-np.eye(2, dtype=complex)] * 2))
    rng = np.random.default_rng(7)
    X = cv.random_algebra(su2, rng)
    assert np.linalg.norm(coboundary(t, X)) < 1e-15


def test_coboundary_chain_rule(su2):
    """dPi(coboundary(X)) equals the coboundary of the single word value."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        t = random_tuple(su2, 2, 1, rng)
        X = cv.random_algebra(su2, rng)
        lhs = lg.coords_to_algebra(su2, differential(t) @ coboundary(t, X))
        P = cv.evaluate_relator(t)
        rhs = X - P @ X @ np.conj(P.T)
        assert np.abs(lhs - rhs).max() < 1e-11
        # finite-difference oracle for the same identity
        eps = 1e-6
        U = cv.exp(su2, eps * X)
        moved = t.replace_mats(U @ t.mats @ np.conj(U.T))
        fd = cv.log_near_identity(
            su2, cv.evaluate_relator(moved) @ np.conj(P.T)) / eps
        assert np.abs(fd - lhs).max() < 1e-4


def test_coboundaries_are_cocycles_at_flat_points(solved_points, su2):
    """dPi kills conjugation directions once the relator value is central."""
    basis = cv.algebra_basis(su2)
    for p in solved_points[:5]:
        t = p.tuple
        D = differential(t)
        for X in basis:
            assert np.abs(D @ coboundary(t, X)).max() < 1e-10


# ---------------------------------------------------------------------------
# dataclasses and serialization
# ---------------------------------------------------------------------------

def test_presentation_validation(su2):
    """A problem needs genus >= 1; its class data fix m, so 2g + m slots."""
    reps = (np.diag([1j, -1j]),) * 2
    with pytest.raises(ValueError):
        cv.VarietyProblem(0, cv.ConjugacyClassSpec(su2, reps))
    assert GeneratorTuple.identity(su2, 3, 2).n_generators == 8
    assert cv.VarietyProblem(3, cv.ConjugacyClassSpec(su2, reps)).boundary_count == 2


def test_generator_tuple_json_roundtrip(su2):
    rng = np.random.default_rng(9)
    t = random_tuple(su2, 2, 1, rng)
    back = GeneratorTuple.from_json(su2, t.to_json())
    assert np.array_equal(back.mats, t.mats)
    assert (back.genus, back.boundary_count) == (2, 1)

"""Group/algebra numerics against independent series and statistics oracles."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import charvar as cv
from charvar import liegroup as lg
from charvar import twoform
from charvar.errors import OutsideDomainError

from conftest import TOL_ALG, adjoint, algebra_defect, group_defect


def series_exp(X, terms=40):
    """Truncated power-series exponential (oracle)."""
    out = np.eye(X.shape[0], dtype=complex)
    term = np.eye(X.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def commutator_series(X, Y, terms=30):
    """exp(ad_X) Y via the iterated-commutator series (oracle)."""
    out = Y.astype(complex)
    term = Y.astype(complex)
    for k in range(1, terms):
        term = (X @ term - term @ X) / k
        out = out + term
    return out


def test_exp_zero_is_identity_exactly(su2, su3, slc2):
    for spec in (su2, su3, slc2):
        Z = np.zeros((spec.rank, spec.rank))
        assert np.array_equal(cv.exp(spec, Z), np.eye(spec.rank))


def test_exp_su2_diagonal_example(su2):
    X = np.diag([1j * np.pi / 2, -1j * np.pi / 2])
    expected = np.diag([1j, -1j])
    got = cv.exp(su2, X)
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(series_exp(X) - expected).max() < 1e-12


@pytest.mark.parametrize("spec_name", ["su2", "su3", "slc2"])
def test_exp_matches_series(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(0)
    for _ in range(25):
        X = cv.random_algebra(spec, rng, scale=0.4)
        assert np.abs(cv.exp(spec, X) - series_exp(X)).max() < 1e-12


def test_adjoint_of_exp_matches_commutator_series(su2, su3):
    """Ad(exp X)Y against the iterated-commutator series, ||X|| up to 1."""
    rng = np.random.default_rng(1)
    for spec in (su2, su3):
        for _ in range(10):
            X = cv.random_algebra(spec, rng)
            nrm = np.linalg.norm(X)
            if nrm > 1.0:
                X = X / nrm
            Y = cv.random_algebra(spec, rng, scale=1.0)
            lhs = adjoint(spec, cv.exp(spec, X), Y)
            assert np.abs(lhs - commutator_series(X, Y)).max() < 1e-10


def test_exp_lands_on_group(su2, su3, slc2):
    rng = np.random.default_rng(2)
    for spec in (su2, su3, slc2):
        X = cv.random_algebra(spec, rng, scale=1.0, size=50)
        g = cv.exp(spec, X)
        assert group_defect(spec, g).max() < lg.TOL_GROUP


def test_log_identity_is_zero(su2, su3):
    for spec in (su2, su3):
        L, bad = lg.principal_log(spec, np.eye(spec.rank))
        assert np.abs(L).max() < 1e-14 and not bad


@pytest.mark.parametrize("spec_name", ["su2", "su3", "slc2"])
def test_exp_log_roundtrip(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    rng = np.random.default_rng(3)
    n = 1000 if spec.rank == 2 and spec.family == "SU" else 100
    worst = 0.0
    for _ in range(n):
        X = cv.random_algebra(spec, rng, scale=0.2)
        nrm = np.linalg.norm(X)
        if nrm > 0.5:
            X = X * (0.5 / nrm)
        back, bad = lg.principal_log(spec, cv.exp(spec, X))
        assert not bad
        worst = max(worst, np.abs(back - X).max())
    assert worst < 1e-10


def displacement_raises(spec, g):
    """Whether the chart's log displacement of ``g`` from the identity raises
    :class:`OutsideDomainError`."""
    try:
        twoform._displacement(spec, g[None], lg.identity(spec.rank)[None])
    except OutsideDomainError:
        return True
    return False


def test_log_branch_cut_raises(su2, su3):
    """The mask marks an eigenvalue pair on the cut, and the chart's
    displacement raises there."""
    for spec, g in ((su2, np.diag([-1.0 + 0j, -1.0])),
                    (su3, np.diag([-1.0 + 0j, -1.0, 1.0]))):
        L, bad = lg.principal_log(spec, g)
        assert bad and not np.any(L)
        assert displacement_raises(spec, g)


def test_log_rejects_nontrivial_central_factor(su3):
    """omega*I in SU(3) has a trace-only principal log; projecting the trace
    out would read it as the identity."""
    omega = np.exp(2j * np.pi / 3)
    X = cv.random_algebra(su3, np.random.default_rng(0), scale=0.1)
    for g in (omega * np.eye(3), omega * cv.exp(su3, X)):
        L, bad = lg.principal_log(su3, g)
        assert bad and not np.any(L)
        assert displacement_raises(su3, g)


def test_log_output_in_algebra(su2, su3):
    rng = np.random.default_rng(4)
    for spec in (su2, su3):
        for _ in range(20):
            g = cv.exp(spec, cv.random_algebra(spec, rng, scale=0.4))
            L, bad = lg.principal_log(spec, g)
            assert not bad
            assert algebra_defect(spec, L).max() < TOL_ALG


def test_adjoint_identity_and_inverse(su2):
    rng = np.random.default_rng(5)
    X = cv.random_algebra(su2, rng)
    assert np.abs(adjoint(su2, np.eye(2), X) - X).max() == 0.0
    g = cv.haar_sample(su2, rng)
    gi = np.conj(g.T)
    roundtrip = adjoint(su2, g, adjoint(su2, gi, X))
    assert np.abs(roundtrip - X).max() < 1e-12


def test_adjoint_is_homomorphism(su2, su3):
    rng = np.random.default_rng(6)
    for spec in (su2, su3):
        for _ in range(20):
            g = cv.haar_sample(spec, rng)
            h = cv.haar_sample(spec, rng)
            X = cv.random_algebra(spec, rng)
            lhs = adjoint(spec, g @ h, X)
            rhs = adjoint(spec, g, adjoint(spec, h, X))
            assert np.abs(lhs - rhs).max() < 1e-11


def test_pairing_basics(su2):
    rng = np.random.default_rng(7)
    X = cv.random_algebra(su2, rng)
    assert cv.pairing(su2, X, np.zeros((2, 2))) == 0.0
    D = np.diag([1j, -1j])
    assert abs(cv.pairing(su2, D, D) - 2.0) < 1e-14


def test_pairing_symmetry_and_bilinearity(su2, slc2):
    rng = np.random.default_rng(8)
    for spec in (su2, slc2):
        for _ in range(30):
            X = cv.random_algebra(spec, rng)
            Y = cv.random_algebra(spec, rng)
            Z = cv.random_algebra(spec, rng)
            assert abs(cv.pairing(spec, X, Y) - cv.pairing(spec, Y, X)) < 1e-14
            lin = cv.pairing(spec, X + 2.5 * Z, Y) \
                - cv.pairing(spec, X, Y) - 2.5 * cv.pairing(spec, Z, Y)
            assert abs(lin) < 1e-13


def test_pairing_ad_invariance(su2, su3, slc2):
    """<Ad X, Ad Y> = <X, Y>, and the same of the Gram the two-form uses:
    Ad^T G Ad = G, with pairing(X, Y) = coords(X) . G . coords(Y)."""
    rng = np.random.default_rng(9)
    for spec in (su2, su3, slc2):
        Gp = lg.pairing_gram(spec)
        for _ in range(30):
            g = cv.haar_sample(spec, rng)
            X = cv.random_algebra(spec, rng)
            Y = cv.random_algebra(spec, rng)
            a = cv.pairing(spec, adjoint(spec, g, X), adjoint(spec, g, Y))
            b = cv.pairing(spec, X, Y)
            assert abs(a - b) < 1e-12
            Ad = cv.adjoint_matrix(spec, g)
            assert np.abs(Ad.T @ Gp @ Ad - Gp).max() < 1e-12
            via_gram = cv.algebra_coords(spec, X) @ Gp @ cv.algebra_coords(spec, Y)
            assert abs(via_gram - b) < 1e-13


def test_negative_trace_form_positive_definite(su2, su3):
    """The family pairing on su(r), -trace(XY): the Gram matrix of a random
    basis and the pairing Gram of the algebra basis are positive definite."""
    rng = np.random.default_rng(10)
    for spec in (su2, su3):
        d = spec.dim
        vecs = [cv.random_algebra(spec, rng) for _ in range(d)]
        G = np.array([[cv.pairing(spec, a, b) for b in vecs] for a in vecs])
        assert np.linalg.eigvalsh(G).min() > 0
        assert np.linalg.eigvalsh(lg.pairing_gram(spec)).min() > 0


@pytest.mark.parametrize("family, rank", [("SU", 2), ("SU", 3), ("SU", 4), ("SLC", 2), ("SLC", 3)])
def test_pairing_gram_is_the_identity_on_su_only(family, rank):
    """The two-form's first sum multiplies by the pairing Gram on SL(r, C)
    alone: the su(r) basis is orthonormal for -trace, the sl(r, C) one is
    not orthonormal for trace."""
    spec = cv.GroupSpec(family, rank)
    assert np.allclose(lg.pairing_gram(spec), np.eye(spec.dim)) == (family == "SU")


def test_adjoint_matrix_consistent(su2, su3):
    rng = np.random.default_rng(11)
    for spec in (su2, su3):
        g = cv.haar_sample(spec, rng)
        X = cv.random_algebra(spec, rng)
        via_matrix = cv.coords_to_algebra(
            spec, cv.adjoint_matrix(spec, g) @ cv.algebra_coords(spec, X))
        assert np.abs(via_matrix - adjoint(spec, g, X)).max() < 1e-12


# ---------------------------------------------------------------------------
# batched exp and principal log against per-slice calls
# ---------------------------------------------------------------------------

SPECS = [cv.GroupSpec("SU", 2), cv.GroupSpec("SU", 3),
         cv.GroupSpec("SLC", 2), cv.GroupSpec("SLC", 3)]

batch_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 6)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)


def per_slice(fn, spec, A):
    """fn applied to each (r, r) slice of A, restacked to A's batch shape."""
    outs = [fn(spec, a) for a in A.reshape((-1,) + A.shape[-2:])]

    def stack(vals):
        return np.array(vals).reshape(A.shape[:-2] + np.shape(vals[0]))

    if isinstance(outs[0], tuple):
        return tuple(stack(o) for o in zip(*outs))
    return stack(outs)


def assert_slices_agree(spec, got, want):
    """Bit for bit on SU(r); to 1e-15 on SL(r, C), whose scipy logm draws
    random probe vectors for its norm estimates at r >= 3 (from a fixed seed
    per call, so a slice's probes depend on its place in the batch)."""
    if spec.family == "SU":
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-15, atol=1e-15)


def planted_outside(spec):
    """Slices outside the principal-log domain: an eigenvalue pair on the
    cut and, at rank 3, omega*I and omega*exp(X) (logs of trace 2 pi i)."""
    r = spec.rank
    pair = [-1.0, -1.0] if spec.family == "SU" else [-2.0, -0.5]
    planted = [np.diag(pair + [1.0] * (r - 2)).astype(complex)]
    if r == 3:
        omega = np.exp(2j * np.pi / 3)
        X = 0.1 * lg.algebra_basis(spec).sum(axis=0)
        planted += [omega * np.eye(3), omega * cv.exp(spec, X)]
    return planted


@given(spec=st.sampled_from(SPECS), shape=batch_shapes,
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0))
def test_batched_exp_matches_per_slice(spec, shape, seed, scale):
    X = cv.random_algebra(spec, np.random.default_rng(seed), scale=scale, size=shape)
    assert_slices_agree(spec, cv.exp(spec, X), per_slice(cv.exp, spec, X))


@given(spec=st.sampled_from(SPECS), shape=batch_shapes,
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0))
def test_batched_log_matches_per_slice_and_raises(spec, shape, seed, scale):
    rng = np.random.default_rng(seed)
    g = cv.exp(spec, cv.random_algebra(spec, rng, scale=scale, size=shape))
    if shape:
        # plant out-of-domain slices at random positions of larger batches
        flat = g.reshape((-1,) + g.shape[-2:]).copy()
        for bad_g in planted_outside(spec):
            flat[rng.integers(flat.shape[0])] = bad_g
        g = flat.reshape(g.shape)
    L, bad = lg.principal_log(spec, g)
    L1, bad1 = per_slice(lg.principal_log, spec, g)
    assert_slices_agree(spec, L, L1)
    assert np.array_equal(bad, bad1)
    assert not np.any(L[bad])
    assert np.array_equal(bad, per_slice(displacement_raises, spec, g))


@given(spec=st.sampled_from(SPECS), k=st.integers(2, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 1.0))
def test_planted_slice_leaves_neighbours_unchanged(spec, k, data, seed, scale):
    g = cv.exp(spec, cv.random_algebra(spec, np.random.default_rng(seed),
                                       scale=scale, size=k))
    L, bad = lg.principal_log(spec, g)
    j = data.draw(st.integers(0, k - 1))
    for planted in planted_outside(spec):
        h = g.copy()
        h[j] = planted
        Lh, badh = lg.principal_log(spec, h)
        keep = np.arange(k) != j
        assert badh[j] and not np.any(Lh[j])
        assert np.array_equal(badh[keep], bad[keep])
        assert_slices_agree(spec, Lh[keep], L[keep])


# ---------------------------------------------------------------------------
# the SU(r >= 3) eigensolve against scipy's expm and Schur form
# ---------------------------------------------------------------------------

SU_HIGH = [cv.GroupSpec("SU", 3), cv.GroupSpec("SU", 4)]


def with_phases(rng, r, phases):
    """A Haar-frame unitary with eigenvalues exp(i * phases)."""
    V = cv.haar_sample(cv.GroupSpec("SU", r), rng)
    return (V * np.exp(1j * np.asarray(phases))) @ V.conj().T


def schur_log(g):
    """Principal log and domain mask of one unitary g from the complex Schur
    form (oracle): the cut at relative 1e-12, and |tr L| > pi."""
    T, Z = scipy.linalg.schur(g, output="complex")
    lam = np.diag(T)
    L = Z @ np.diag(np.log(lam)) @ Z.conj().T
    bad = np.any((lam.real < 0) & (np.abs(lam.imag) < 1e-12 * np.abs(lam.real)))
    return L, bool(bad or abs(np.trace(L)) > np.pi)


@settings(max_examples=40)
@given(spec=st.sampled_from(SU_HIGH), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.05, 3.0), eps=st.sampled_from([1e-14, 1e-8]))
def test_su_exp_matches_projected_expm(spec, seed, scale, eps):
    """Random, tiny, zero and repeated-eigenvalue algebra elements: within
    1e-13 max(1, ||X||) of scipy's ``expm`` retracted onto the group, and a
    slice reads the same bits in any batch."""
    rng, r = np.random.default_rng(seed), spec.rank
    X = cv.random_algebra(spec, rng, scale=scale, size=3)
    a, b = rng.uniform(-3, 3, size=2)
    pair = [a, a, -2 * a] if r == 3 else [a, a, b, -2 * a - b]
    V = cv.haar_sample(spec, rng)
    repeated = (V * (1j * np.array(pair))) @ V.conj().T
    X = np.concatenate([X, eps * X[:1], repeated[None], np.zeros((1, r, r))])
    g = cv.exp(spec, X)
    want = lg.project_to_group(spec, np.array([scipy.linalg.expm(x) for x in X]))
    nrm = np.linalg.norm(X, axis=(-2, -1))
    assert np.all(np.abs(g - want).max(axis=(-2, -1)) <= 1e-13 * np.maximum(1.0, nrm))
    assert np.array_equal(g[-1], np.eye(r))
    assert_slices_agree(spec, g, per_slice(cv.exp, spec, X))


@settings(max_examples=40)
@given(spec=st.sampled_from(SU_HIGH), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([1e-14, 1e-8]), delta=st.sampled_from([0.0, 1e-15, 1e-9]))
def test_su_log_matches_schur_oracle(spec, seed, eps, delta):
    """Haar elements, clustered spectra ``zeta I exp(eps X)`` at the r-th
    roots of unity zeta, a repeated eigenvalue pair, an eigenvalue next to a
    candidate pole ``exp(i pi / 2r)``, and the planted out-of-domain slices:
    the mask is the Schur-oracle mask, the log is within 1e-13 of the
    oracle's and exponentiates back to g, and a slice reads the same bits in
    any batch."""
    rng, r = np.random.default_rng(seed), spec.rank
    X = cv.random_algebra(spec, rng, scale=1.0)
    # zeta = -1 (r = 4) is left out: its cluster straddles the cut, where
    # the log jumps by 2 pi i across the eigenframe
    zetas = np.exp(2j * np.pi * np.array([k for k in range(r) if 2 * k != r]) / r)
    a, b = rng.uniform(-0.9, 0.9, size=2)
    rest = rng.uniform(-1.0, 1.0, size=r - 2)
    near_pole = [np.pi / (2 * r) + delta, *rest, -np.pi / (2 * r) - delta - rest.sum()]
    g = np.array([cv.haar_sample(spec, rng), *(z * cv.exp(spec, eps * X) for z in zetas),
                  with_phases(rng, r, [a, a, -2 * a] if r == 3 else [a, a, b, -2 * a - b]),
                  with_phases(rng, r, near_pole), *planted_outside(spec)])
    L, bad = lg.principal_log(spec, g)
    want = [schur_log(x) for x in g]
    assert np.array_equal(bad, [w[1] for w in want])
    assert bad[2:len(zetas) + 1].all() and not bad[1]  # zeta != 1: central factor
    assert np.abs(L[1] - eps * X).max() < 1e-15
    for Lk, (Wk, badk), gk in zip(L, want, g):
        if not badk:
            assert np.abs(Lk - lg.project_to_algebra(spec, Wk)).max() < 1e-13
            assert np.abs(cv.exp(spec, Lk) - gk).max() < 1e-13
    Ls, bads = per_slice(lg.principal_log, spec, g)
    assert np.array_equal(bad, bads)
    assert_slices_agree(spec, L, Ls)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@given(spec=st.sampled_from(SPECS), shape=batch_shapes,
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 1.0))
def test_adjoint_operator_against_direct_conjugation(spec, shape, seed, scale):
    """The constant operator against coords(g B_k g^-1), the homomorphism and
    orthogonality identities, and per-slice calls of the same stack."""
    rng = np.random.default_rng(seed)

    def group(size):
        return cv.exp(spec, cv.random_algebra(spec, rng, scale=scale, size=size))

    g, h = group(shape), group(shape)
    B = lg.algebra_basis(spec)
    gi = lg.group_inverse(spec, g)[..., None, :, :]
    direct = np.swapaxes(lg.algebra_coords(spec, g[..., None, :, :] @ B @ gi), -2, -1)
    Ad_g = cv.adjoint_matrix(spec, g)
    assert Ad_g.shape == shape + (spec.dim, spec.dim)
    assert _rel(Ad_g, direct) < 1e-14
    assert _rel(cv.adjoint_matrix(spec, g @ h), Ad_g @ cv.adjoint_matrix(spec, h)) < 1e-13
    if spec.family == "SU":
        assert np.abs(Ad_g @ np.swapaxes(Ad_g, -2, -1) - np.eye(spec.dim)).max() < 1e-13
    assert_slices_agree(spec, Ad_g, per_slice(cv.adjoint_matrix, spec, g))


@given(spec=st.sampled_from(SPECS), shape=batch_shapes,
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 1.0))
def test_ad_algebra_matrix_is_the_bracket_and_the_derivative_of_ad(spec, shape, seed,
                                                                   scale):
    """ad(K) coords(X) = coords([K, X]), and ad(K) is d/dt Ad(exp(tK)) at 0
    (central difference, error O(t^2))."""
    rng = np.random.default_rng(seed)
    K = cv.random_algebra(spec, rng, scale=scale, size=shape)
    X = cv.random_algebra(spec, rng, size=shape)
    ad_K = lg.ad_algebra_matrix(spec, K)
    got = (ad_K @ cv.algebra_coords(spec, X)[..., None])[..., 0]
    assert _rel(got, cv.algebra_coords(spec, K @ X - X @ K)) < 1e-14
    t = 1e-4
    fd = (cv.adjoint_matrix(spec, cv.exp(spec, t * K))
          - cv.adjoint_matrix(spec, cv.exp(spec, -t * K))) / (2 * t)
    # Taylor remainder t^2/6 |ad K|^3 e^(t |ad K|), plus rounding over 2t
    nrm = np.linalg.norm(ad_K.reshape((-1,) + ad_K.shape[-2:]), 2, axis=(-2, -1)).max()
    assert np.abs(fd - ad_K).max() < 1.01 * t**2 * nrm**3 / 6 + 1e-10
    assert_slices_agree(spec, ad_K, per_slice(lg.ad_algebra_matrix, spec, K))


def test_sl3_log_independent_of_global_random_state():
    """scipy's logm estimates norms with random probes from numpy's global
    RandomState; the log must not depend on that state nor move it."""
    sl3 = cv.GroupSpec("SLC", 3)
    rng = np.random.default_rng(2)
    g = cv.exp(sl3, cv.random_algebra(sl3, rng, scale=1.2, size=16))
    first = None
    for k in range(20):
        np.random.seed(k)
        before = np.random.get_state()
        L, bad = lg.principal_log(sl3, g)
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        if first is None:
            first = L
        assert np.array_equal(L, first)


# ---------------------------------------------------------------------------
# stacked product kernel and the closed-form SU(2) adjoint
# ---------------------------------------------------------------------------

kernel_shapes = st.sampled_from([(), (5,), (2, 3)])


@given(spec=st.sampled_from(SPECS), shape=kernel_shapes,
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 2.0))
def test_mat_product_matches_matmul_and_its_slices(spec, shape, seed, scale):
    rng = np.random.default_rng(seed)

    def group(size):
        return cv.exp(spec, cv.random_algebra(spec, rng, scale=scale, size=size))

    A, B, C = group(shape), group(shape), group(None)
    AB = lg.mat_product(A, B)
    assert AB.shape == shape + (spec.rank, spec.rank)
    assert _rel(AB, A @ B) < 1e-14
    assert _rel(lg.mat_product(A, C), A @ C) < 1e-14  # one factor broadcast
    out = np.empty_like(AB)
    assert lg.mat_product(A, B, out=out) is out and np.array_equal(out, AB)
    if shape:
        Af, Bf = A.reshape((-1,) + A.shape[-2:]), B.reshape((-1,) + B.shape[-2:])
        one = np.array([lg.mat_product(a, b) for a, b in zip(Af, Bf)])
        assert np.array_equal(AB, one.reshape(AB.shape))
        assert np.array_equal(lg.mat_product(A, C),
                              per_slice(lambda _, a: lg.mat_product(a, C), spec, A))


@given(shape=batch_shapes, seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 3.0))
def test_su2_adjoint_closed_form(shape, seed, scale):
    """The quaternion rotation against the generic operator on the product
    tensor, SO(3) membership, the homomorphism, and per-slice calls."""
    su2 = cv.GroupSpec("SU", 2)
    rng = np.random.default_rng(seed)

    def group(size):
        return cv.exp(su2, cv.random_algebra(su2, rng, scale=scale, size=size))

    g, h = group(shape), group(shape)
    Ad_g, Ad_h = cv.adjoint_matrix(su2, g), cv.adjoint_matrix(su2, h)
    gi = lg.group_inverse(su2, g)
    reference = lg._apply_adjoint_operator(
        su2, g[..., :, :, None, None] * gi[..., None, None, :, :])
    assert Ad_g.shape == shape + (3, 3)
    assert np.abs(Ad_g - reference).max() < 1e-14
    assert np.abs(Ad_g @ np.swapaxes(Ad_g, -2, -1) - np.eye(3)).max() < 1e-14
    assert np.abs(np.linalg.det(Ad_g) - 1.0).max() < 1e-14
    assert np.abs(cv.adjoint_matrix(su2, g @ h) - Ad_g @ Ad_h).max() < 1e-14
    assert np.array_equal(Ad_g, per_slice(cv.adjoint_matrix, su2, g))


def test_su2_adjoint_of_quaternion_units(su2):
    """Known answers: I = diag(i, -i) turns the (J, K) plane by pi and fixes I;
    exp(t I / 2) turns it by t (basis order (J, K, I)/sqrt(2))."""
    t = 0.7
    rot = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                    [0.0, 0.0, 1.0]])
    g = np.diag(np.exp([0.5j * t, -0.5j * t]))
    assert np.abs(cv.adjoint_matrix(su2, g) - rot).max() < 1e-15
    assert np.array_equal(cv.adjoint_matrix(su2, np.diag([1j, -1j])),
                          np.diag([-1.0, -1.0, 1.0]))
    assert np.array_equal(cv.adjoint_matrix(su2, -np.eye(2, dtype=complex)), np.eye(3))


def su2_coords_with_zeros(n=10_000):
    """Random su(2) coordinates over several scales, with zero and signed-zero
    coordinates planted in every position."""
    v = np.random.default_rng(41).standard_normal((n, 3))
    v *= 10.0 ** np.random.default_rng(42).integers(-8, 3, size=(n, 1))
    v[::7, 0], v[::5, 1], v[::3, 2], v[::11, 0] = 0.0, 0.0, 0.0, -0.0
    v[::13] = 0.0
    return v


def test_su2_coords_to_algebra_is_the_basis_einsum(su2):
    """The closed form is the einsum over the basis bit for bit: its other
    products are exact zeros."""
    v = su2_coords_with_zeros()
    basis = cv.algebra_basis(su2)
    assert np.array_equal(cv.coords_to_algebra(su2, v), np.einsum("...k,kab->...ab", v, basis))
    assert np.array_equal(cv.coords_to_algebra(su2, v[0]), np.einsum("k,kab->ab", v[0], basis))
    assert cv.coords_to_algebra(su2, v.reshape(100, 100, 3)).shape == (100, 100, 2, 2)


def test_su2_algebra_coords_inverts_coords_to_algebra(su2):
    """Within 2 ulp of the coordinates, and on any matrix the einsum's bits
    (its projection onto the algebra, off it too)."""
    v = su2_coords_with_zeros()
    back = cv.algebra_coords(su2, cv.coords_to_algebra(su2, v))
    assert np.all(np.abs(back - v) <= 2 * np.spacing(np.abs(v)))
    Z = np.random.default_rng(43).standard_normal((2, 1000, 2, 2, 2)) @ [1.0, 1j]
    basis = cv.algebra_basis(su2)
    assert np.array_equal(cv.algebra_coords(su2, Z),
                          -np.einsum("...ab,kba->...k", Z, basis).real)


def test_su2_exp_matches_the_trace_closed_form(su2):
    """The entry-read theta^2 against theta^2 = -tr(X^2) / 2 by einsum."""
    v = su2_coords_with_zeros()
    X = cv.coords_to_algebra(su2, v * np.random.default_rng(44).uniform(0, 3, (len(v), 1)))
    theta2 = -np.einsum("...ab,...ba->...", X, X).real / 2.0
    theta = np.sqrt(np.maximum(theta2, 0.0))
    sinc = np.where(theta > 1e-30, np.sin(theta) / np.where(theta > 1e-30, theta, 1.0),
                    1.0 - theta2 / 6.0)
    want = np.cos(theta)[:, None, None] * np.eye(2) + sinc[:, None, None] * X
    assert np.abs(cv.exp(su2, X) - want).max() < 1e-15


def test_identity_is_built_once_per_rank_and_read_only():
    eye = lg.identity(3)
    assert lg.identity(3) is eye and np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Haar statistics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3])
def test_haar_group_invariants(r):
    spec = cv.GroupSpec("SU", r)
    rng = np.random.default_rng(12)
    g = cv.haar_sample(spec, rng, size=500)
    assert group_defect(spec, g).max() < lg.TOL_GROUP


@pytest.mark.parametrize("r", [2, 3])
def test_haar_entry_statistics(r):
    """Mean 0 and E|entry|^2 = 1/r within five Monte Carlo sigma at 1e5."""
    spec = cv.GroupSpec("SU", r)
    rng = np.random.default_rng(13)
    n = 100_000
    g = cv.haar_sample(spec, rng, size=n)
    mean = g.mean(axis=0)
    # var of each real/imag part of an entry is about 1/(2r)
    sigma_mean = np.sqrt(1.0 / (2 * r * n))
    assert np.abs(mean.real).max() < 5 * sigma_mean
    assert np.abs(mean.imag).max() < 5 * sigma_mean
    sq = np.abs(g) ** 2
    # oracle: columns are unit vectors, so entries of one column average to 1/r
    col_sums = sq.sum(axis=1)
    assert np.abs(col_sums - 1.0).max() < 1e-12
    emp = sq.mean(axis=0)
    sigma_emp = sq.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(emp - 1.0 / r) < 5 * sigma_emp)


def test_haar_translation_invariance_statistic(su2):
    """Left translation by a fixed V leaves the first-moment statistics flat."""
    rng = np.random.default_rng(14)
    V = cv.haar_sample(su2, rng)
    g = cv.haar_sample(su2, rng, size=50_000)
    shifted = V @ g
    sigma_mean = np.sqrt(1.0 / (2 * 2 * 50_000))
    assert np.abs(shifted.mean(axis=0)).max() < 5 * sigma_mean


def qr_haar(r, rng, shape):
    """Oracle: the Ginibre QR recipe with the positive-diagonal phase fix and
    the determinant phase correction, one LAPACK QR per matrix."""
    z = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
    q, rmat = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(rmat, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / r)[..., None, None]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("shape", [(), (7,), (5, 4)])
def test_haar_draw_is_the_qr_recipe(r, shape):
    """From equal generator states the draw is the QR recipe's matrix (the
    closed form on SU(2)), and both leave the generator in the same state."""
    spec = cv.GroupSpec("SU", r)
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = cv.haar_sample(spec, rng, size=shape if shape else None)
        want = qr_haar(r, ref, shape)
        assert g.shape == shape + (r, r)
        assert np.abs(g - want).max() < 1e-13
        assert rng.bit_generator.state == ref.bit_generator.state


def test_su2_haar_draw_is_quaternion_structured(su2):
    """The second column is exactly ``(-conj b, conj a)`` of the first
    column ``(a, b)``, a unit vector."""
    g = cv.haar_sample(su2, np.random.default_rng(17), size=(300, 3))
    a, b = g[..., 0, 0], g[..., 1, 0]
    assert np.array_equal(g[..., 0, 1], -b.conj())
    assert np.array_equal(g[..., 1, 1], a.conj())
    assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max() < 1e-15


def weyl_ks_distance(g):
    """Kolmogorov-Smirnov distance of the trace angles ``arccos(Re tr g / 2)``
    of SU(2) draws from Weyl's law, the CDF ``(t - sin t cos t) / pi`` that
    Haar measure gives on [0, pi]."""
    t = np.sort(np.arccos(np.clip(0.5 * np.trace(g, axis1=-2, axis2=-1).real, -1, 1)))
    cdf = (t - np.sin(t) * np.cos(t)) / np.pi
    n = t.size
    return max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())


def test_su2_haar_trace_angle_follows_weyls_law(su2):
    """KS at n = 2e5 against the 0.1 % critical value 1.95 / sqrt(n); a draw
    of exp of a Gaussian algebra element is planted and must fail."""
    n = 200_000
    crit = 1.95 / np.sqrt(n)
    assert weyl_ks_distance(cv.haar_sample(su2, np.random.default_rng(18), size=n)) < crit
    planted = cv.exp(su2, cv.random_algebra(su2, np.random.default_rng(18), size=n))
    assert weyl_ks_distance(planted) > crit


@pytest.mark.parametrize("family,r", [("SU", 2), ("SU", 3), ("SLC", 2)])
def test_lone_haar_draw_is_the_slice_of_a_stack_of_one(family, r):
    """``haar_sample(spec, rng)`` and ``haar_sample(spec, rng, size=1)[0]``
    read the same bits and leave the generator in the same state."""
    spec = cv.GroupSpec(family, r)
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        g = cv.haar_sample(spec, rng)
        assert g.shape == (r, r)
        assert g.tobytes() == cv.haar_sample(spec, ref, size=1)[0].tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_slc_sampler_lands_on_group(slc2):
    rng = np.random.default_rng(15)
    g = cv.haar_sample(slc2, rng, size=200)
    assert np.abs(np.linalg.det(g) - 1).max() < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_matrix_json_roundtrip(su2):
    rng = np.random.default_rng(16)
    M = cv.haar_sample(su2, rng)
    back = lg.matrix_from_json(lg.matrix_to_json(M))
    assert np.array_equal(back, M)


def test_group_spec_json():
    spec = cv.GroupSpec("SLC", 3)
    assert cv.GroupSpec.from_json(spec.to_json()) == spec


def test_group_spec_validation():
    with pytest.raises(ValueError):
        cv.GroupSpec("SU", 1)
    with pytest.raises(ValueError):
        cv.GroupSpec("SO", 3)
    assert cv.GroupSpec("SU", 4).dim == 15

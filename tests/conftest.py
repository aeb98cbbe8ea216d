import os

import numpy as np
import pytest
from hypothesis import settings

import charvar as cv
from charvar.twoform import form_gram_stack
from charvar.variety import Linearization

# subprocesses the tests start import charvar from where the suite did
os.environ["PYTHONPATH"] = os.pathsep.join(
    [os.path.dirname(os.path.dirname(cv.__file__))]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

# Property tests draw the same examples on every run and are not timed:
# tier-1 stays deterministic and does not flake on a slow machine.
settings.register_profile("charvar", derandomize=True, deadline=None, database=None)
settings.load_profile("charvar")

TOL_ALG = 1e-10


def group_defect(spec, g):
    """Oracle: max violation of the group invariants (det = 1, unitarity for SU)."""
    d = np.abs(np.linalg.det(g) - 1.0)
    if spec.family == "SU":
        gram = np.einsum("...ij,...kj->...ik", g, g.conj())
        d = np.maximum(d, np.abs(gram - np.eye(spec.rank)).max(axis=(-2, -1)))
    return d


def algebra_defect(spec, X):
    """Oracle: max violation of the algebra invariants (traceless,
    skew-Hermitian for SU)."""
    d = np.abs(np.trace(X, axis1=-2, axis2=-1))
    if spec.family == "SU":
        d = np.maximum(d, np.abs(X + np.swapaxes(X, -2, -1).conj()).max(axis=(-2, -1)))
    return d


def adjoint(spec, g, X):
    """Oracle: Ad(g) X = g X g^-1, by two matrix products."""
    return g @ X @ cv.liegroup.group_inverse(spec, g)


def mat_product_partial_products(spec, mats, g, m):
    """Oracle: the partial products f_j = alpha_j f_{j-1} of the relator's
    letters, each a whole :func:`liegroup.mat_product`."""
    tables = cv.presentation.letter_tables(g, m)
    inv = cv.liegroup.group_inverse(spec, mats)
    f = [np.broadcast_to(np.eye(spec.rank, dtype=complex), mats.shape[:-3] + (spec.rank,) * 2)]
    for s, e in zip(tables.slots, tables.exponents):
        f.append(cv.liegroup.mat_product((mats if e == 1 else inv)[..., s, :, :], f[-1]))
    return np.stack(f, axis=-3)


def identity_tuple(spec, genus, boundary_count=0):
    """The tuple of 2g + m identity matrices."""
    n = 2 * genus + boundary_count
    return cv.GeneratorTuple(spec, genus, boundary_count,
                             np.broadcast_to(np.eye(spec.rank), (n, spec.rank, spec.rank)))


def form_gram_coords(p, classes, U, V):
    """Oracle: the form matrix (k, l) between coordinate stacks U (n*dim, k)
    and V (n*dim, l) at one point, from a linearization built for the call."""
    t = p.tuple
    lin = Linearization.at(t.mats, classes)
    return form_gram_stack(lin, U, V)


def form_on_cohomology(p, classes, basis=None):
    """Oracle: the form matrix (dh, dh) over the orthonormal h1 basis of
    :func:`cohomology_at`, or of ``basis`` when given."""
    if basis is None:
        basis = cv.cohomology_at(p, classes)
    return form_gram_stack(basis.lin, basis.h_coords, basis.h_coords)


def _dexp(spec, X):
    """(e^{ad X} - 1) / ad X by its series, (..., dim, dim): the velocity of
    ``exp(X + s e) exp(-X)`` at s = 0 is this matrix applied to e."""
    A = cv.liegroup.ad_algebra_matrix(spec, X)
    out = term = np.broadcast_to(np.eye(spec.dim), A.shape)
    for k in range(2, 20):
        term = term @ A / k
        out = out + term
    return out


def d_omega_by_differences(spec, mats, g, m, classes, h):
    """Oracle: d omega (K, K, K), K = n dim, of the form at one tuple over
    the frame of ``twoform.closedness_defect``, by central differences of
    step h in an explicit chart, with no Newton solve.  The chart moves
    interior slot s to ``exp(t_s) q_s`` and boundary slot k to
    ``exp(t_k) c_k exp(-t_k)``, for t_s in the algebra; its coordinate
    fields commute and equal the frame at t = 0, so
    d omega_xyz = d_x W_yz - d_y W_xz + d_z W_xy there."""
    n, d = 2 * g + m, spec.dim
    K = n * d
    t = np.concatenate([h * np.eye(K), -h * np.eye(K)]).reshape(2 * K, n, d)
    X = cv.liegroup.coords_to_algebra(spec, t)
    E = cv.exp(spec, X)
    q = E @ mats
    q[:, 2 * g:] = q[:, 2 * g:] @ cv.liegroup.group_inverse(spec, E[:, 2 * g:])
    lin = Linearization.at(q, classes)
    blocks = _dexp(spec, X)  # (2K, n, d, d): velocity columns of the chart fields
    blocks[:, 2 * g:] = (np.eye(d) - cv.adjoint_matrix(spec, q[:, 2 * g:])) @ blocks[:, 2 * g:]
    V = np.zeros((2 * K, K, K), dtype=blocks.dtype)
    for s in range(n):
        V[:, s * d:(s + 1) * d, s * d:(s + 1) * d] = blocks[:, s]
    W = form_gram_stack(lin, V, V)
    grad = (W[:K] - W[K:]) / (2.0 * h)
    return grad - grad.transpose(1, 0, 2) + grad.transpose(1, 2, 0)


def certify_point(p, classes, tolerances=None, closedness=False):
    """The check list of :func:`cli.certification_checks` on a stack of one
    point, at the target of ``classes``."""
    from charvar import cli

    (checks,) = cli.certification_checks(
        p.tuple.mats[None], classes.target[None], classes,
        cli.DEFAULT_TOLERANCES if tolerances is None else tolerances, closedness)
    return checks


def linearization(spec, mats, g, m, classes=None):
    """``Linearization.at`` of (a stack of) tuples.  Without ``classes``
    every boundary class is the identity's, of rank 0: its slots move
    nothing, and the letter transport and the relator differential, which
    do not depend on the classes, are read as at any class."""
    if classes is None:
        classes = cv.ConjugacyClassSpec(spec, (np.eye(spec.rank),) * m)
    return Linearization.at(mats, classes)


@pytest.fixture(scope="session")
def su2():
    return cv.GroupSpec("SU", 2)


@pytest.fixture(scope="session")
def su3():
    return cv.GroupSpec("SU", 3)


@pytest.fixture(scope="session")
def slc2():
    return cv.GroupSpec("SLC", 2)


@pytest.fixture(scope="session")
def closed_problem(su2):
    """SU(2), genus 2, no boundary, trivial target."""
    return cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2))


@pytest.fixture(scope="session")
def solved_points(closed_problem):
    """Twenty independently solved irreducible points on the g=2 variety."""
    return [closed_problem.solve(np.random.default_rng(1000 + seed)) for seed in range(20)]


@pytest.fixture(scope="session")
def minus_problem(su2):
    """SU(2), genus 2, central target -I (the other Seifert component)."""
    return cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2, (), -np.eye(2)))


@pytest.fixture(scope="session")
def minus_points(minus_problem):
    return [minus_problem.solve(np.random.default_rng(2000 + seed)) for seed in range(5)]


@pytest.fixture(scope="session")
def boundary_problem(su2):
    """SU(2), genus 1, one boundary loop in the class of diag(i, -i)."""
    rep = np.diag([1j, -1j])
    return cv.VarietyProblem(1, cv.ConjugacyClassSpec(su2, (rep,)))


@pytest.fixture(scope="session")
def boundary_points(boundary_problem):
    return [boundary_problem.solve(np.random.default_rng(3000 + seed)) for seed in range(5)]


@pytest.fixture(scope="session", params=[0.3, 1.0], ids=lambda t: f"theta{t}")
def generic_problem(request, su2):
    """SU(2), genus 2, one boundary loop in the class of diag(e^{it}, e^{-it}).

    Ad(c)^2 is not the identity there, so the boundary term of the form
    does not vanish.
    """
    t = request.param
    rep = np.diag([np.exp(1j * t), np.exp(-1j * t)])
    return cv.VarietyProblem(2, cv.ConjugacyClassSpec(su2, (rep,)))


@pytest.fixture(scope="session")
def generic_points(generic_problem):
    return [generic_problem.solve(np.random.default_rng(4000 + seed))
            for seed in range(3)]


@pytest.fixture(scope="session")
def su3_regular_problem(su3):
    """SU(3), genus 1, one boundary loop at a regular class (distinct eigenvalues)."""
    rep = np.diag(np.exp(1j * np.array([0.3, 0.5, -0.8])))
    return cv.VarietyProblem(1, cv.ConjugacyClassSpec(su3, (rep,)))

"""Numerics for SU(r) and SL(r, C): exp/log, adjoint action, invariant
pairing, Haar sampling, and the stacked small-matrix product.

Group elements and algebra elements are plain complex ndarrays of shape
``(..., r, r)``; leading axes are batch axes and broadcast through every
operation here.  ``GroupSpec`` carries the family and the rank and is the
only typed wrapper at this level.

SU(2) has closed forms for exp (``_exp_su2``), the principal log
(``_log_su2``), the adjoint matrix (``_adjoint_su2``, the SO(3) rotation
of the unit quaternion read off g), the Haar draw (``_haar_su2``, the
Ginibre QR recipe without the QR) and the algebra coordinates (entries
``+-v_k / sqrt 2``); SU(r >= 3) exp and log use numpy's
batched ``eigh`` (of iX, and in :func:`eigenframe`), its Haar draw a
batched QR, and other adjoint matrices the cached adjoint operator.  Only
SL(r, C) exp and log use scipy, imported on first use, so SU runs never
load ``scipy.linalg``.

Conventions
-----------
* su(r) = traceless skew-Hermitian matrices, a real vector space of
  dimension r^2 - 1; sl(r, C) = traceless matrices, complex dimension
  r^2 - 1.
* The family fixes the invariant pairing: ``-trace(XY)`` on su(r), where it
  is positive definite, and ``trace(XY)`` on sl(r, C); no extra
  normalization factor is used.
* Matrix coordinates use an orthonormal algebra basis: orthonormal for
  ``-trace(XY)`` on su(r), orthonormal for the Hermitian form
  ``trace(X Y*)`` on sl(r, C).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, OutsideDomainError

TOL_GROUP = 1e-10

_BRANCH_TOL = 1e-12
_SQRT_HALF = 1.0 / np.sqrt(2.0)  # the entries of the su(2) basis


@dataclass(frozen=True)
class GroupSpec:
    """Which matrix group is in play: family ``"SU"`` or ``"SLC"``, rank r >= 2."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("SU", "SLC"):
            raise ValueError(f"unknown family {self.family!r} (want 'SU' or 'SLC')")
        if self.rank < 2:
            raise ValueError(f"rank must be >= 2, got {self.rank}")

    @property
    def dim(self) -> int:
        """Algebra dimension r^2 - 1 (real for SU, complex for SLC)."""
        return self.rank * self.rank - 1

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        return cls(family=data["family"], rank=int(data["rank"]))


@functools.lru_cache(maxsize=None)
def identity(r: int) -> np.ndarray:
    """The complex r x r identity, built once per rank: a read-only view."""
    return np.broadcast_to(np.eye(r, dtype=complex), (r, r))


# ---------------------------------------------------------------------------
# algebra basis and coordinates
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def algebra_basis(spec: GroupSpec) -> np.ndarray:
    """Orthonormal basis of the Lie algebra, shape (dim, r, r).

    su(r): i*(off-diagonal symmetric), (off-diagonal antisymmetric), and
    i*(traceless real diagonal) combinations, orthonormal for -trace(XY).
    sl(r, C): elementary off-diagonal matrices and traceless real
    diagonals, orthonormal for trace(X Y*).
    """
    r = spec.rank
    mats = []
    if spec.family == "SU":
        for j in range(r):
            for k in range(j + 1, r):
                A = np.zeros((r, r), dtype=complex)
                A[j, k] = 1.0
                A[k, j] = -1.0
                mats.append(A / np.sqrt(2.0))
                B = np.zeros((r, r), dtype=complex)
                B[j, k] = 1j
                B[k, j] = 1j
                mats.append(B / np.sqrt(2.0))
    else:
        for j in range(r):
            for k in range(r):
                if j != k:
                    E = np.zeros((r, r), dtype=complex)
                    E[j, k] = 1.0
                    mats.append(E)
    for l in range(1, r):
        d = np.zeros(r)
        d[:l] = 1.0
        d[l] = -float(l)
        d = d / np.linalg.norm(d)
        D = np.diag(d).astype(complex)
        mats.append(1j * D if spec.family == "SU" else D)
    basis = np.array(mats)
    if basis.shape[0] != spec.dim:
        raise AssertionError("basis size mismatch")
    return basis


def algebra_coords(spec: GroupSpec, X: np.ndarray) -> np.ndarray:
    """Coordinates of X in the orthonormal basis; shape (..., dim).

    Real for SU (the basis is orthonormal for -trace), complex for SLC
    (orthonormal for the Hermitian trace form).  On SU(2) the entries are
    read directly, with the einsum's products in its order: its bits.
    """
    if spec.family == "SU" and spec.rank == 2:
        Xs = X * _SQRT_HALF
        return np.stack([Xs[..., 0, 1].real - Xs[..., 1, 0].real,
                         Xs[..., 0, 1].imag + Xs[..., 1, 0].imag,
                         Xs[..., 0, 0].imag - Xs[..., 1, 1].imag], axis=-1)
    B = algebra_basis(spec)
    if spec.family == "SU":
        return -np.einsum("...ab,kba->...k", X, B).real
    return np.einsum("...ab,kba->...k", X, B.conj().transpose(0, 2, 1))


def coords_to_algebra(spec: GroupSpec, v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`algebra_coords`; shape (..., r, r).  SU(2) writes the
    entries ``+-v_k / sqrt 2``: the einsum's bits (its other terms are 0)."""
    if spec.family == "SU" and spec.rank == 2:
        w = np.asarray(v) * _SQRT_HALF
        out = np.zeros(w.shape[:-1] + (2, 2), dtype=complex)
        re, im = out.real, out.imag
        re[..., 0, 1], im[..., 0, 1], im[..., 0, 0] = w[..., 0], w[..., 1], w[..., 2]
        re[..., 1, 0], im[..., 1, 0], im[..., 1, 1] = -w[..., 0], w[..., 1], -w[..., 2]
        return out
    B = algebra_basis(spec)
    return np.einsum("...k,kab->...ab", v, B)


def project_to_algebra(spec: GroupSpec, X: np.ndarray) -> np.ndarray:
    """Nearest algebra element: remove trace, and the Hermitian part for SU."""
    r = spec.rank
    if spec.family == "SU":
        X = 0.5 * (X - np.swapaxes(X, -2, -1).conj())
    tr = np.trace(X, axis1=-2, axis2=-1)
    return X - tr[..., None, None] * identity(r) / r


def project_to_group(spec: GroupSpec, M: np.ndarray) -> np.ndarray:
    """Retract onto the group: polar factor (SU) and det-phase normalization."""
    r = spec.rank
    if spec.family == "SU":
        U, _, Vh = np.linalg.svd(M)
        M = U @ Vh
    det = np.linalg.det(M)
    if spec.family == "SU":
        # det is a phase; divide by its r-th root
        M = M * np.exp(-1j * np.angle(det) / r)[..., None, None]
    else:
        # np.power, not ``**``: an array ``** 0.5`` takes a sqrt fast path
        # that rounds unlike the scalar power, so a stack and its slices
        # would disagree
        M = M / np.power(det, 1.0 / r)[..., None, None]
    return M


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

def _exp_su2(X: np.ndarray) -> np.ndarray:
    """Closed-form exponential on su(2): X^2 = -theta^2 I, theta^2 = Im(X00)^2 + |X01|^2."""
    theta2 = X[..., 0, 0].imag ** 2 + (X[..., 0, 1].real ** 2 + X[..., 0, 1].imag ** 2)
    theta = np.sqrt(theta2)
    safe = np.where(theta > 1e-30, theta, 1.0)
    sinc = np.where(theta > 1e-30, np.sin(theta) / safe, 1.0 - theta2 / 6.0)
    out = sinc[..., None, None] * X
    cos = np.cos(theta)
    out.real[..., 0, 0] += cos
    out.real[..., 1, 1] += cos
    return out


def exp(spec: GroupSpec, X: np.ndarray) -> np.ndarray:
    """Group exponential of (a batch of) algebra elements, retracted onto the group.

    Closed form on SU(2); ``V diag(e^{-iw}) V*`` from the batched ``eigh``
    of ``iX = V diag(w) V*`` on SU(r >= 3); on SL(r, C) scipy's Pade
    ``expm`` (``scipy.linalg`` is loaded on the first such call; it loops
    over a stack in Python), re-projected so that invariant drift cannot
    accumulate over long solver runs.  exp(0) is the identity exactly.
    """
    X = np.asarray(X, dtype=complex)
    if not np.all(np.isfinite(X)):
        raise ValueError("exp requires finite entries")
    if spec.family == "SU" and spec.rank == 2:
        return _exp_su2(X)
    if spec.family == "SU":
        w, V = np.linalg.eigh(1j * X)
        return (V * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(V, -2, -1).conj()
    import scipy.linalg
    return project_to_group(spec, scipy.linalg.expm(X))


def _log_su2(g: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """Closed-form principal log on SU(2), off the cut at trace = -2, from
    the half traces ``ct`` of g."""
    ct = np.clip(ct, -1.0, 1.0)
    theta = np.arccos(ct)
    A = 0.5 * (g - np.swapaxes(g, -2, -1).conj())  # sin(theta) * (unit su(2) dir)
    st = np.sin(theta)
    safe = np.where(st > 1e-9, st, 1.0)
    fac = np.where(st > 1e-9, theta / safe, 1.0 + theta**2 / 6.0)
    return fac[..., None, None] * A


def _logm(g: np.ndarray) -> np.ndarray:
    """``scipy.linalg.logm`` with its norm estimator's random probes (numpy's
    global RandomState, r >= 3) seeded; the caller's state is restored."""
    import scipy.linalg
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return scipy.linalg.logm(g)
    finally:
        np.random.set_state(state)


@functools.lru_cache(maxsize=None)
def _cayley_poles(r: int) -> np.ndarray:
    return np.exp(1j * np.pi * (2 * np.arange(2 * r) + 1) / (2 * r))


def eigenframe(spec: GroupSpec, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lam, V, W)`` with ``g = V diag(lam) W`` and ``W = V^-1`` for (a batch
    of) group elements: ``np.linalg.eig`` on SL(r, C).  On SU(r), V is
    orthonormal (W = V*), from ``np.linalg.eigh`` of the Cayley transform
    ``i (p - g)^-1 (p + g)``, whose eigenvalue at ``p e^{ia}`` is ``-cot(a/2)``,
    and ``lam = diag(V* g V)``.  Per slice the pole p is the one of the 2r
    points ``exp(i pi (2j + 1) / 2r)`` farthest from ``np.linalg.eigvals(g)``,
    at chord >= 2 sin(pi / 4r); cot is monotone on the circle, so close
    eigenvalues mix only within their cluster.  A slice reads the same bits
    in any batch."""
    if spec.family != "SU":
        lam, V = np.linalg.eig(g)
        return lam, V, np.linalg.inv(V)
    poles = _cayley_poles(spec.rank)
    gap = np.abs(np.linalg.eigvals(g)[..., :, None] - poles).min(axis=-2)
    p = poles[gap.argmax(axis=-1)][..., None, None] * identity(spec.rank)
    _, V = np.linalg.eigh(1j * np.linalg.solve(p - g, p + g))
    W = np.swapaxes(V, -2, -1).conj()
    return np.diagonal(W @ g @ V, axis1=-2, axis2=-1), V, W


def principal_log(spec: GroupSpec, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal matrix logarithm of (a batch of) group elements, with a domain mask.

    Returns ``(L, bad)``: ``L`` (..., r, r) is the log projected onto the
    algebra and ``bad`` (...) marks the slices outside the domain, where
    ``L`` is 0 (the log of the identity).  A slice is outside
    when an eigenvalue sits within a relative 1e-12 of the negative real
    axis (e.g. eigenvalue -1 of a unitary matrix), or when the
    unprojected log has ``|tr L| > pi``: then g is a non-trivial central
    element times exp of the result (e.g. omega*I in SU(3)), which the
    trace projection would hide.  Well-conditioned when ``||g - I|| < 1``.
    Closed form on SU(2), ``V diag(i arg lam) V*`` from :func:`eigenframe` on
    SU(r >= 3), scipy's ``logm`` on SL(r, C).
    """
    g = np.asarray(g, dtype=complex)
    r = spec.rank
    eye = identity(r)
    if spec.family == "SU" and r == 2:
        # the cut and the central factor -I both sit at trace -2
        ct = 0.5 * np.trace(g, axis1=-2, axis2=-1).real
        bad = ct < -1.0 + _BRANCH_TOL
        if bad.any():  # the log of the identity
            g, ct = np.where(bad[..., None, None], eye, g), np.where(bad, 1.0, ct)
        return _log_su2(g, ct), bad
    if spec.family == "SU":
        lam, V, W = eigenframe(spec, g)
    else:
        lam = np.linalg.eigvals(g)
    bad = ((lam.real < 0) & (np.abs(lam.imag) < _BRANCH_TOL * np.abs(lam.real))).any(axis=-1)
    L = ((V * (1j * np.angle(lam))[..., None, :]) @ W if spec.family == "SU"
         else _logm(np.where(bad[..., None, None], eye, g)))
    bad = bad | (np.abs(np.trace(L, axis1=-2, axis2=-1)) > np.pi)
    if bad.any():
        L = np.where(bad[..., None, None], 0.0, L)
    return project_to_algebra(spec, L), bad


def log_near_identity(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Principal logarithm of (a batch of) group elements, projected onto the algebra.

    Raises :class:`OutsideDomainError` when any slice is outside the
    principal-log domain of :func:`principal_log`, which callers use to
    get a per-slice mask instead.
    """
    L, bad = principal_log(spec, g)
    if np.any(bad):
        raise OutsideDomainError(
            "outside the principal-log domain: an eigenvalue on the branch cut "
            "or a non-trivial central factor")
    return L


# ---------------------------------------------------------------------------
# stacked product, adjoint action and pairing
# ---------------------------------------------------------------------------

def mat_product(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``A @ B`` for broadcast stacks of small square matrices (..., r, r).

    ``out = sum_k A[..., :, k] B[..., k, :]`` as broadcast multiply-adds in
    the fixed order k = 0, 1, ...: elementwise ufuncs instead of one BLAS
    call per slice, and a slice reads the same bits in any batch.  ``out``
    must not share memory with ``A`` or ``B``.
    """
    out = np.multiply(A[..., :, :1], B[..., :1, :], out=out)
    for k in range(1, A.shape[-1]):
        out += A[..., :, k:k + 1] * B[..., k:k + 1, :]
    return out


def group_inverse(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    if spec.family == "SU":
        return np.swapaxes(g, -2, -1).conj()
    return np.linalg.inv(g)


@functools.lru_cache(maxsize=None)
def _adjoint_operator(spec: GroupSpec) -> np.ndarray:
    """M (r^4, dim^2) with ``Ad_ik = sum Bout_i[a,b] B_k[c,d] P[a,c,d,b]`` for the
    product tensor ``P = g[a,c] g^-1[d,b]`` and the dual basis ``Bout`` that
    reads coordinates.  SU coordinates are real, so there M acts on the
    interleaved real view of P: its rows alternate ``Re M`` and ``-Im M``."""
    B = algebra_basis(spec)
    Bout = -np.swapaxes(B, -2, -1) if spec.family == "SU" else B.conj()
    M = np.einsum("iab,kcd->acdbik", Bout, B).reshape(spec.rank**4, spec.dim**2)
    if spec.family == "SU":
        return np.stack([M.real, -M.imag], axis=1).reshape(-1, spec.dim**2)
    return M


def _apply_adjoint_operator(spec: GroupSpec, P: np.ndarray) -> np.ndarray:
    """Coordinate matrices (..., dim, dim) of product tensors P (..., r, r, r, r):
    one row-vector product per slice, so a slice reads the same bits in any
    batch (one 2-D GEMM over the batch would not)."""
    P = np.asarray(P, dtype=complex).reshape(P.shape[:-4] + (1, spec.rank**4))
    if spec.family == "SU":
        P = P.view(np.float64)
    out = P @ _adjoint_operator(spec)
    return out.reshape(out.shape[:-2] + (spec.dim, spec.dim))


def _adjoint_su2(g: np.ndarray) -> np.ndarray:
    """Closed-form Ad(g) on SU(2): the SO(3) rotation of the quaternion of g.

    ``g = [[alpha, beta], [-conj beta, conj alpha]]`` with alpha = w + ix,
    beta = y + iz is the unit quaternion w + xI + yJ + zK for I = diag(i, -i),
    J = [[0, 1], [-1, 0]], K = IJ.  The su(2) basis of :func:`algebra_basis`
    is (J, K, I)/sqrt(2), in which

        Ad(g) = [[Re(a^2 + b^2), Im(b^2 - a^2),  2 Im(a b)],
                 [Im(a^2 + b^2), Re(a^2 - b^2), -2 Re(a b)],
                 [2 Im(a b*),    2 Re(a b*),     |a|^2 - |b|^2]]

    (a = alpha, b = beta, * the complex conjugate).  Only the first row of
    g is read.
    """
    c = g[..., 0, :]  # (alpha, beta)
    cj = c.conj()
    sq, nrm = c * c, c * cj
    ab, abj = c[..., 0] * c[..., 1], c[..., 0] * cj[..., 1]
    a2, b2 = sq[..., 0], sq[..., 1]
    out = np.empty(c.shape[:-1] + (3, 3))
    np.add(a2.real, b2.real, out=out[..., 0, 0])
    np.subtract(b2.imag, a2.imag, out=out[..., 0, 1])
    np.multiply(ab.imag, 2.0, out=out[..., 0, 2])
    np.add(a2.imag, b2.imag, out=out[..., 1, 0])
    np.subtract(a2.real, b2.real, out=out[..., 1, 1])
    np.multiply(ab.real, -2.0, out=out[..., 1, 2])
    np.multiply(abj.imag, 2.0, out=out[..., 2, 0])
    np.multiply(abj.real, 2.0, out=out[..., 2, 1])
    np.subtract(nrm[..., 0].real, nrm[..., 1].real, out=out[..., 2, 2])
    return out


def adjoint_matrix(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Matrix of Ad(g) in the orthonormal algebra basis; shape (..., dim, dim).

    Orthogonal for SU(r) (the pairing is Ad-invariant and definite).
    Closed form on SU(2); otherwise the cached adjoint operator.
    """
    if spec.family == "SU" and spec.rank == 2:
        return _adjoint_su2(g)
    gi = group_inverse(spec, g)
    return _apply_adjoint_operator(
        spec, g[..., :, :, None, None] * gi[..., None, None, :, :])


def ad_algebra_matrix(spec: GroupSpec, K: np.ndarray) -> np.ndarray:
    """Matrix of ad(K) = [K, .] in the orthonormal basis; shape (..., dim, dim)."""
    eye = np.eye(spec.rank)
    return _apply_adjoint_operator(spec, K[..., :, :, None, None] * eye
                                   - eye[:, :, None, None] * K[..., None, None, :, :])


def pairing(spec: GroupSpec, X: np.ndarray, Y: np.ndarray):
    """Invariant bilinear pairing of algebra elements, fixed by the family:
    -trace(XY) on su(r), positive definite and real there, and trace(XY)
    on sl(r, C), complex."""
    val = np.einsum("...ab,...ba->...", X, Y)
    if spec.family == "SU":
        val = -val.real
    if val.ndim == 0:
        return val.item()
    return val


@functools.lru_cache(maxsize=None)
def pairing_gram(spec: GroupSpec) -> np.ndarray:
    """Matrix <B_i, B_j> (dim, dim) of :func:`pairing` on the algebra basis."""
    B = algebra_basis(spec)
    return pairing(spec, B[:, None], B[None])


# ---------------------------------------------------------------------------
# random elements
# ---------------------------------------------------------------------------

def _haar_su2(z: np.ndarray) -> np.ndarray:
    """Closed-form SU(2) Haar draw from a Ginibre stack z (..., 2, 2): the QR
    recipe of :func:`haar_sample` in exact arithmetic.  For u the unit first
    column of z, ``c = u0 z11 - u1 z01`` is R22 up to its phase and det Q, so
    the draw is ``[[a, -conj b], [b, conj a]]``, ``(a, b) = u e^{-i arg(c) / 2}``."""
    col = z[..., :, 0]
    u = col / np.sqrt((col.real**2 + col.imag**2).sum(axis=-1))[..., None]
    c = u[..., 0] * z[..., 1, 1] - u[..., 1] * z[..., 0, 1]
    out = np.empty(z.shape, dtype=complex)
    out[..., :, 0] = u * np.exp(-0.5j * np.angle(c))[..., None]  # (a, b)
    np.conjugate(out[..., ::-1, 0], out=out[..., :, 1])
    out[..., 0, 1] *= -1.0
    return out


def haar_sample(spec: GroupSpec, rng: np.random.Generator,
                size: int | tuple | None = None) -> np.ndarray:
    """Random group elements.

    SU(r): exact Haar distribution via Ginibre + QR with the positive-
    diagonal phase fix, then a determinant phase correction into SU(r); on
    SU(2) the closed form :func:`_haar_su2` of that recipe, from the same
    normals.  SL(r, C): exp of a Gaussian algebra element -- there is no
    Haar probability measure on the noncompact group; this is a documented
    stand-in for seeding solvers only.  A lone draw (``size=None``) is the
    slice of a ``size=1`` draw, bit for bit.
    """
    shape = (1,) if size is None else (size if isinstance(size, tuple) else (size,))
    r = spec.rank
    if spec.family == "SU":
        z = rng.standard_normal(shape + (r, r)) + 1j * rng.standard_normal(shape + (r, r))
        if r == 2:
            g = _haar_su2(z)
        else:
            q, rmat = np.linalg.qr(z / np.sqrt(2.0))
            diag = np.diagonal(rmat, axis1=-2, axis2=-1)
            q = q * (diag / np.abs(diag))[..., None, :]
            det = np.linalg.det(q)
            g = q * np.exp(-1j * np.angle(det) / r)[..., None, None]
    else:
        g = exp(spec, random_algebra(spec, rng, scale=1.0, size=shape))
    return g[0] if size is None else g


def random_algebra(spec: GroupSpec, rng: np.random.Generator, scale: float = 1.0,
                   size: int | tuple | None = None) -> np.ndarray:
    """Gaussian algebra element with coordinate scale ``scale``."""
    shape = () if size is None else (size if isinstance(size, tuple) else (size,))
    d = spec.dim
    if spec.family == "SU":
        v = rng.standard_normal(shape + (d,)) * scale
    else:
        v = (rng.standard_normal(shape + (d,))
             + 1j * rng.standard_normal(shape + (d,))) * (scale / np.sqrt(2.0))
    return coords_to_algebra(spec, v)


# ---------------------------------------------------------------------------
# JSON matrix encoding: rows of [re, im] pairs
# ---------------------------------------------------------------------------

def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def matrix_from_json(data: list) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimensionMismatchError("matrix JSON must be rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]

"""The skew two-form on tangent tuples, its descent to cohomology, its
kernel, and its closedness.

Evaluation runs over the word spelled in single letters (genus blocks
``a, b, a^-1, b^-1`` then the boundary letters).  A tangent vector enters
left-trivialized; the inverse-letter components are determined by the free
ones, and every component is transported by Ad of the inverse partial
product of the letters to its right-hand side.  With ``eps(i, j) = sign(j - i)``,

    form(u, v) = 1/2 sum_{i,j} eps(i,j) <u_i~, v_j~>
               + 1/2 sum_k <Y_k^u, (Ad c_k - Ad c_k^-1) Y_k^v>,

where Y_k = (1 - Ad c_k)^+ H_k is the minimal conjugator of the
right-trivialized boundary component H_k: the element orthogonal to the
centralizer of c_k whose conjugation moves c_k with velocity H_k.
Boundary components must lie in image(1 - Ad c_k).  The boundary term is
the conjugacy-class two-form of Alekseev-Malkin-Meinrenken (Lie group
valued moment maps), skew because Ad c_k is orthogonal for the pairing.
The family fixes the pairing ``<., .>`` (:func:`liegroup.pairing_gram`):
``-tr`` on SU(r), ``tr`` on SL(r, C).  The 1/2 prefactor is part of
the convention here: the closed-surface form equals the boundary form at
m = 0 identically.  Writings of the closed-surface sum without the 1/2
are twice this one.

Closedness is checked exactly at one tuple (:func:`closedness_defect`):
the ambient form is quasi-Hamiltonian for the relator Phi, d omega =
Phi*eta with eta the Cartan 3-form, at every tuple, and Phi*eta vanishes
on the tangent space of the variety.  d omega comes from second-order
letter calculus on the transport the :class:`Linearization` holds, over
a frame of right translations and conjugations.  The finite-difference
sweep in implicit Newton charts (:func:`closedness_sweep`, ``_Chart``)
is the tests' oracle for the form on H1; no command runs it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import liegroup as lg
from . import presentation as pres
from .errors import DimensionMismatchError, NoConvergenceError, OutsideDomainError
from .liegroup import GroupSpec
from .variety import (
    CohomologyBasis,
    ConjugacyClassSpec,
    Linearization,
    RepresentationPoint,
    _batch_residual,
    apply_step,
    cohomology_at,
    split_rank,
)


# ---------------------------------------------------------------------------
# transported-letter evaluation
# ---------------------------------------------------------------------------

def _transported(T: np.ndarray, slots: list, coords: np.ndarray) -> np.ndarray:
    """Letter components of stacked tangent coordinates, moved to the start
    of the word by the letter operators T of :func:`pres.letter_transport`.

    coords: (..., n*dim, k) -> (..., N, dim, k)
    """
    d = T.shape[-1]
    shape = coords.shape[:-2] + (coords.shape[-2] // d, d, coords.shape[-1])
    return T @ coords.reshape(shape)[..., slots, :, :]


def _pair_letters(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over letters and coordinates:
    (..., N, dim, k), (..., N, dim, l) -> (..., k, l)."""
    def rows(t):
        return t.reshape(t.shape[:-3] + (t.shape[-3] * t.shape[-2], t.shape[-1]))
    return np.swapaxes(rows(x), -2, -1) @ rows(y)


def first_sum_gram(lin: Linearization, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gram array of the transported double sum over two coordinate stacks,
    through the letter operators ``T`` (..., N, dim, dim) of the tuples'
    :class:`Linearization`.

    U: (..., n*dim, k), V: (..., n*dim, l) -> (..., k, l).
    """
    slots = pres.letter_tables(lin.g, len(lin.slots)).slots
    tu = _transported(lin.T, slots, U)  # (..., N, d, k)
    tv = _transported(lin.T, slots, V)  # (..., N, d, l)
    if lin.spec.family != "SU":  # the su(r) basis is orthonormal for -tr
        tu = lg.pairing_gram(lin.spec) @ tu
    # inclusive prefix sums over the letters: the i = j terms cancel
    return 0.5 * (_pair_letters(np.cumsum(tu, axis=-3), tv)
                  - _pair_letters(tu, np.cumsum(tv, axis=-3)))


def form_gram_stack(lin: Linearization, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Form matrices (..., k, l) over coordinate stacks U (..., n*dim, k) and
    V (..., n*dim, l) at (a batch of) tuples, read from their
    :class:`Linearization`: its letter transport and boundary slots.
    Boundary components must be class-tangent (:class:`NotClassTangentError`
    otherwise); each enters the boundary term through its minimal conjugator.
    """
    G = first_sum_gram(lin, U, V)
    Gp = lg.pairing_gram(lin.spec)
    for rows, slot, M in lin.class_terms():
        Yu = slot.conjugator(U[..., rows, :])
        Yv = slot.conjugator(V[..., rows, :])
        G = G + 0.5 * (np.swapaxes(Yu, -2, -1) @ Gp @ M @ Yv)
    if lin.spec.family == "SU":
        G = np.real(G)
    return G


def kernel_of_form(gram: np.ndarray, z_coords: np.ndarray) -> np.ndarray | list:
    """Orthonormal columns (n*dim, k) spanning the null space of the form
    restricted to the cocycles, from its Gram (nz, nz) over the orthonormal
    cocycle columns ``z_coords`` (n*dim, nz).

    At irreducible compact-group points this coincides with the
    coboundary directions; the kernel dimension is read off the
    singular-value gap, so a larger kernel at a degenerate point is
    reported rather than hidden.  A stack of Grams (B, nz, nz) over
    ``z_coords`` (B, n*dim, nz) takes one stacked SVD and returns a list of
    B such column blocks, whose widths may differ.
    """
    one = gram.ndim == 2
    if one:
        gram, z_coords = gram[None], z_coords[None]
    if gram.shape[-1] == 0:
        K = list(z_coords)
    else:
        _, s, Vh = np.linalg.svd(gram)
        K = [z @ v[k:].conj().T for z, v, k in zip(z_coords, Vh, split_rank(s)[0])]
    return K[0] if one else K


# ---------------------------------------------------------------------------
# closedness at the point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _structure(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """``ad`` (dim, dim, dim) with ``ad[a]`` the matrix of ad(e_a), and the
    structure tensor ``C[a, b, c] = <e_a, [e_b, e_c]>`` of the pairing."""
    ad = lg.ad_algebra_matrix(spec, lg.algebra_basis(spec))
    C = np.einsum("ad,bdc->abc", lg.pairing_gram(spec), ad)
    ad.flags.writeable = C.flags.writeable = False
    return ad, C


def _frame_form(lin: Linearization) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame, the form on it and the form's derivatives along it, at
    one (unbatched) tuple.

    The frame has one field X per slot s and basis element e: ``q_s <-
    exp(t e) q_s`` at an interior slot, ``c_k <- exp(t e) c_k exp(-t e)`` at
    a boundary slot, with velocity columns ``U`` (K, K), K = n dim: ``e``,
    or ``(1 - Ad c_k) e``.  Returns ``U``, the form ``W`` (K, K) on the
    frame and ``dW`` (K, K, K), where ``dW[x]`` is the derivative of ``W``
    along X_x.  Along X_x every transported letter component moves by
    ``-[pi_j^x, .]``, with ``pi_j^x`` the prefix sum of the transported
    components of x up to f_j (direct letter) or f_{j-1} (inverse letter).
    """
    spec, d, T, terms = lin.spec, lin.spec.dim, lin.T, lin.class_terms()
    K = lin.mats.shape[-3] * d
    ad, C = _structure(spec)
    Gp = lg.pairing_gram(spec)
    U = np.eye(K, dtype=T.dtype)
    for rows, slot, _ in terms:
        U[rows, rows] -= slot.ad
    tables = pres.letter_tables(lin.g, len(terms))
    x = _transported(T, tables.slots, U)  # (N, d, K)
    P = np.cumsum(x, axis=0)
    pi = P[tables.reads - 1]  # P[j], or P[j - 1] at an inverse letter
    Z = P[-1] - 2.0 * P + x  # sum_i sign(i - j) x_i
    # dW[x, y, z] = -(E[x, y, z] - E[x, z, y]) / 2 for
    # E[x, y, z] = sum_j <pi_j^x, [x_j^y, Z_j^z]>; Ezy[x, z, y] = E[x, y, z]
    Q = np.tensordot(pi, C, axes=(1, 0)).reshape(len(x), K * d, d) @ Z
    Ezy = np.tensordot(Q.reshape(len(x), K, d, K), x, axes=([0, 2], [0, 1]))
    dW = 0.5 * (Ezy - Ezy.transpose(0, 2, 1))
    W = first_sum_gram(lin, U, U)
    for rows, slot, M in terms:
        W[rows, rows] += 0.5 * Gp @ M
        # along X_x at this slot, 1 - Ad c_k moves by -[ad e_x, Ad c_k] in
        # both arguments, and the class term by [ad e_x, M] / 2
        dU = np.zeros((d, K, d), dtype=U.dtype)
        dU[:, rows] = slot.ad @ ad - ad @ slot.ad
        R = first_sum_gram(lin, dU, U)  # (d, d, K)
        dW[rows, rows] += R
        dW[rows, :, rows] -= R.swapaxes(1, 2)
        dW[rows, rows, rows] += 0.5 * Gp @ (ad @ M - M @ ad)
    return U, W, dW


def _d_omega(lin: Linearization) -> tuple[np.ndarray, np.ndarray]:
    """The exterior derivative of the ambient form and the pullback of the
    Cartan 3-form by the relator, both (K, K, K) over the frame of
    :func:`_frame_form`: ``Phi*eta(x, y, z) = <Dx, [Dy, Dz]> / 2``.  Frame
    fields of one slot bracket as ``[X_a, X_b] = -X_[a,b]``; fields of two
    slots commute.
    """
    U, W, dW = _frame_form(lin)
    ad, C = _structure(lin.spec)
    d = lin.spec.dim
    n, K = lin.mats.shape[-3], W.shape[-1]
    # B[x, y, z] = W([X_x, X_y], X_z)
    B = np.zeros((K, K, K), dtype=W.dtype)
    Bs = -(ad.swapaxes(1, 2) @ W.reshape(n, 1, d, K))
    for s in range(n):
        B[s * d:(s + 1) * d, s * d:(s + 1) * d] = Bs[s]
    d_omega = (dW - dW.transpose(1, 0, 2) + dW.transpose(1, 2, 0)
               - B + B.transpose(0, 2, 1) - B.transpose(2, 0, 1))
    D = lin.D @ U
    eta = 0.5 * np.tensordot(D, D.T @ (C @ D), axes=(0, 0))
    return d_omega, eta


def closedness_defect(lin: Linearization) -> float:
    """``max |d omega - Phi*eta| / max |d omega|`` over all frame triples at
    one tuple, from its :class:`Linearization`: the quasi-Hamiltonian
    identity d omega = Phi*eta of the ambient form (Alekseev-Malkin-
    Meinrenken, J. Diff. Geom. 48, 1998, Def. 2.2), evaluated exactly.
    ``Phi*eta`` vanishes on ker dPhi, so on the variety the identity is the
    closedness of the form there.  The defect is absolute where d omega
    vanishes."""
    d_omega, eta = _d_omega(lin)
    scale = np.abs(d_omega).max()
    defect = np.abs(d_omega - eta).max()
    return float(defect / scale if scale else defect)


# ---------------------------------------------------------------------------
# closedness in a chart: the tests' finite-difference oracle of the form on H1
# ---------------------------------------------------------------------------

def _phi_series(A: np.ndarray) -> np.ndarray:
    """phi(A) = (exp(A) - 1) A^-1 = sum A^k / (k+1)!, safe at singular A.

    Batched over leading axes of A.
    """
    out = np.eye(A.shape[-1], dtype=A.dtype)
    term = out
    for k in range(1, 16):
        term = term @ (A / (k + 1.0))
        out = out + term
    return out


def _displacement(spec: GroupSpec, qmats: np.ndarray, pmats: np.ndarray):
    """Per-slot log(q_s p_s^-1) coordinates and their step Jacobians.

    Returns (ell, lam): ell (..., n*dim) is the stacked displacement
    coordinate vector and lam (..., n, dim, dim) the slot blocks of the
    block-diagonal d(ell)/d(right-trivialized slot velocity).  Raises
    :class:`OutsideDomainError` when a slot leaves the principal-log domain.
    """
    K = lg.log_near_identity(spec, qmats @ lg.group_inverse(spec, pmats))
    lam = np.linalg.inv(_phi_series(lg.ad_algebra_matrix(spec, K)))
    ell = lg.algebra_coords(spec, K)
    return ell.reshape(ell.shape[:-2] + (ell.shape[-2] * spec.dim,)), lam


_CHART_TOL = 1e-13  # Newton stop on the chart system's residual norm
_CLOSEDNESS_STEPS = (1e-3, 5e-4, 2.5e-4)  # the closedness sweep's steps h


class _Chart:
    """Implicit chart of the variety around a solved point.

    Coordinates are the h1 directions, in stacks (b, dh) of independent
    rows; the chart point q(t) solves flatness + (h1-coordinates of the
    displacement = t) + (b1-slice orthogonality), a square Newton system.
    :meth:`solve` returns the chart coefficients of the form at each row.
    Frame vectors dq/dt_i come from linear solves against the same
    Jacobian, so the only finite differencing happens at the
    exterior-derivative level.
    """

    def __init__(self, p: RepresentationPoint, classes: ConjugacyClassSpec,
                 basis: CohomologyBasis | None = None):
        if p.spec.family != "SU":
            raise DimensionMismatchError(
                "closedness charts use real coordinates (SU family only)")
        self.p = p
        self.classes = classes
        self.spec = p.spec
        self.basis = basis if basis is not None else cohomology_at(p, classes)
        self.H = self.basis.h_coords
        # h1 rows, then b1 rows: the chart equations besides flatness
        self.HB = np.concatenate([self.H, self.basis.b_coords], axis=1).T

    def _system(self, qmats):
        """Residual, displacement, Jacobian and linearization at qmats."""
        R, rnorm, f = _batch_residual(qmats, self.classes,
                                      lg.group_inverse(self.spec, self.classes.target))
        if np.any(rnorm == np.inf):
            raise OutsideDomainError("relator outside the principal-log domain")
        lin = Linearization.at(qmats, self.classes, f)
        ell, lam = _displacement(self.spec, qmats, self.p.tuple.mats)
        S = lin.S
        LS = lam @ S.reshape(S.shape[:-2] + lam.shape[-3:-1] + S.shape[-1:])
        LS = LS.reshape(LS.shape[:-3] + S.shape[-2:])  # d(ell) S, slot by slot
        return R, ell, np.concatenate([lin.D @ S, self.HB @ LS], axis=-2), lin

    def solve(self, t: np.ndarray) -> np.ndarray:
        """Chart coefficients (b, dh, dh) of the form at coordinates t (b, dh).

        Each Newton iteration runs on the rows not converged yet; the rows
        that converge at one iteration read their frame dq/dt and the form
        there, from their Jacobians and the linearization at their chart
        points.  A row not converged after 60 raises :class:`NoConvergenceError`."""
        base, d, dh = self.p.tuple.mats, self.spec.dim, t.shape[-1]
        qmats = np.array(np.broadcast_to(base, t.shape[:1] + base.shape))
        omega = np.empty((len(t), dh, dh))
        act = np.arange(len(t))
        if not act.size:  # the log of an empty SU(r >= 3) stack fails
            return omega
        for it in range(60):
            # every row starts at the base point, where one system serves them all
            R, ell, Ja, lin = self._system(qmats[act] if it else base[None])
            if not it:
                at = np.zeros(act.size, dtype=int)
                R, ell, Ja, lin = R[at], ell[at], Ja[at], lin.take(at)
            F = np.concatenate([R, (self.HB @ ell[..., None])[..., 0]], axis=-1)
            F[:, d:d + dh] -= t[act]
            done = np.linalg.norm(F, axis=-1) < _CHART_TOL
            if np.any(done):
                conv = lin.take(done)
                # slot-velocity coordinates of the frame dq/dt
                frame = conv.S @ np.linalg.solve(Ja[done], np.eye(Ja.shape[-1], dh, -d))
                omega[act[done]] = form_gram_stack(conv, frame, frame)
            go = ~done
            act, Ja, F, lin = act[go], Ja[go], F[go], lin.take(go)
            if not act.size:
                return omega
            step = np.linalg.solve(Ja, -F[..., None])[..., 0]
            qmats[act] = apply_step(self.spec, qmats[act], lin.slots, step)
        raise NoConvergenceError(60, float(np.linalg.norm(F, axis=-1).max()),
                                 "chart re-solve did not converge")


def closedness_sweep(p: RepresentationPoint, classes: ConjugacyClassSpec,
                     basis: CohomologyBasis | None = None) -> tuple[float, float | None]:
    """Closedness of the form in a chart around p: the max |dOmega|
    coefficient of the chart-pulled-back form at the first step of
    ``_CLOSEDNESS_STEPS``, and the observed order of its decay over the steps.

    Central second-order differences of the chart coefficients, from one
    chart solve over the stencil +-h e_i of every step h and h1 direction
    e_i; the value decays as O(h^2) when the form is closed.  Below three
    h1 directions no dOmega coefficient exists: the value reads 0 and the
    order None.
    """
    if basis is None:
        basis = cohomology_at(p, classes)
    dh = basis.h_coords.shape[-1]
    if dh < 3:
        return 0.0, None
    chart = _Chart(p, classes, basis)
    h = np.asarray(_CLOSEDNESS_STEPS)
    e = h[:, None, None] * np.eye(dh)  # (steps, i, dh): row i is h e_i
    t = np.stack([e, -e], axis=2)
    omega = chart.solve(t.reshape(-1, dh)).reshape(t.shape + (dh,))
    grad = (omega[:, :, 0] - omega[:, :, 1]) / (2.0 * h)[:, None, None, None]
    # dOmega_ijk = d_i Omega_jk - d_j Omega_ik + d_k Omega_ij over i < j < k
    d_omega = grad - grad.transpose(0, 2, 1, 3) + grad.transpose(0, 2, 3, 1)
    i, j, k = np.indices(grad.shape[1:])
    vals = np.abs(d_omega[:, (i < j) & (j < k)]).max(axis=-1)
    return float(vals[0]), _observed_order(h, vals)


def _observed_order(steps: np.ndarray, values: np.ndarray) -> float:
    """Log-log slope of values against steps (least squares)."""
    x = np.log(steps)
    y = np.log(np.maximum(values, 1e-300))
    A = np.stack([x, np.ones_like(x)], axis=1)
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)

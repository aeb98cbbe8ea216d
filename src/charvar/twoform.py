"""The skew two-form on tangent tuples, its descent to cohomology, and the
numerical closedness / nondegeneracy checks.

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
"""

from __future__ import annotations

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


def first_sum_gram(spec: GroupSpec, T: np.ndarray, g: int, m: int,
                   U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gram array of the transported double sum over two coordinate stacks.

    T: the letter operators (..., N, dim, dim) of the tuples;
    U: (..., n*dim, k), V: (..., n*dim, l) -> (..., k, l).
    """
    slots = [s for s, _ in pres.word_letters(g, m)]
    tu = _transported(T, slots, U)  # (..., N, d, k)
    tv = _transported(T, slots, V)  # (..., N, d, l)
    if spec.family != "SU":  # the su(r) basis is orthonormal for -tr
        tu = lg.pairing_gram(spec) @ tu
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
    spec, g, d, mats = lin.spec, lin.g, lin.spec.dim, lin.mats
    G = first_sum_gram(spec, lin.T, g, len(lin.slots), U, V)
    Gp = lg.pairing_gram(spec)
    for k, slot in enumerate(lin.slots):
        rows = slice((2 * g + k) * d, (2 * g + k + 1) * d)
        Yu = slot.conjugator(U[..., rows, :])
        Yv = slot.conjugator(V[..., rows, :])
        ad_inv = lg.adjoint_matrix(spec, lg.group_inverse(spec, mats[..., 2 * g + k, :, :]))
        G = G + 0.5 * (np.swapaxes(Yu, -2, -1) @ Gp @ (slot.ad - ad_inv) @ Yv)
    if spec.family == "SU":
        G = np.real(G)
    return G


def form_on_cohomology(p: RepresentationPoint, classes: ConjugacyClassSpec,
                       basis: CohomologyBasis | None = None) -> np.ndarray:
    """The form matrix (dh, dh) over the orthonormal h1 basis."""
    if basis is None:
        basis = cohomology_at(p, classes)
    return form_gram_stack(basis.lin, basis.h_coords, basis.h_coords)


def kernel_of_form(gram: np.ndarray, z_coords: np.ndarray) -> np.ndarray:
    """Orthonormal columns (n*dim, k) spanning the null space of the form
    restricted to the cocycles, from its Gram (nz, nz) over the orthonormal
    cocycle columns ``z_coords`` (n*dim, nz).

    At irreducible compact-group points this coincides with the
    coboundary directions; the kernel dimension is read off the
    singular-value gap, so a larger kernel at a degenerate point is
    reported rather than hidden.
    """
    if gram.shape[0] == 0:
        return z_coords
    _, s, Vh = np.linalg.svd(gram)
    rank, _, _ = split_rank(s)
    return z_coords @ Vh[rank:].conj().T


# ---------------------------------------------------------------------------
# closedness in a chart
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
        self.g = p.tuple.genus
        self.m = p.tuple.boundary_count
        self.H = self.basis.h_coords
        # h1 rows, then b1 rows: the chart equations besides flatness
        self.HB = np.concatenate([self.H, self.basis.b_coords], axis=1).T

    def _system(self, qmats):
        """Residual, displacement, Jacobian and linearization at qmats."""
        spec, g, m = self.spec, self.g, self.m
        R, rnorm, f = _batch_residual(spec, qmats, g, m,
                                      lg.group_inverse(spec, self.classes.target))
        if np.any(rnorm == np.inf):
            raise OutsideDomainError("relator outside the principal-log domain")
        lin = Linearization.at(spec, qmats, g, m, self.classes, f)
        ell, lam = _displacement(spec, qmats, self.p.tuple.mats)
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
            qmats[act] = apply_step(self.spec, qmats[act], self.g, lin.slots, step)
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

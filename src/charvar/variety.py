"""Points of the representation variety, Gauss-Newton projection onto it,
irreducibility, and the cocycle/coboundary/cohomology splitting that
realizes the tangent space.

The variety is the fiber of the relator word over a central target z0,
with boundary generators pinned to prescribed conjugacy classes.  Interior
generators move freely (right translation by exp of the step); boundary
generators move only by conjugation, so the class constraint is exact at
every iterate rather than penalized.

Step coordinates, shared by the Gauss-Newton solver and the closedness
chart: a step is one algebra vector per interior slot (its right-
trivialized velocity) followed by ``w_k`` coordinates ``x`` per boundary
slot.  With the SVD ``1 - Ad(c_k) = U S V*`` cut at the class rank
``w_k`` (a :class:`BoundarySlot`), ``x`` conjugates
``c_k <- exp(V x) c_k exp(-V x)``, whose velocity is ``U S x``.

Rank decisions are made from singular-value gaps, never from fixed
epsilons: ``split_rank`` finds the largest relative gap and reports its
quality, and :func:`cohomology_at` emits a :class:`RankDeficiencyWarning`
when a gap is weaker than ``1/gap_tol``.  Near reducible points that
warning is the contract -- results are still returned.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import liegroup as lg
from . import presentation as pres
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotClassTangentError,
    RankDeficiencyWarning,
)
from .liegroup import GroupSpec
from .presentation import GeneratorTuple

TOL_FLAT = 1e-9
SOLVE_TOL = 1e-12  # Gauss-Newton stop of a solve, below TOL_FLAT
GAP_TOL = 1e-6
CLASS_TANGENT_TOL = 1e-8

_ZERO_FLOOR = 1e-11


@dataclass(frozen=True)
class ConjugacyClassSpec:
    """Boundary conjugacy classes plus the central target of the relator.

    ``representatives[k]`` fixes the class of c_k (its orbit under
    conjugation); ``target`` is the central element z0 the relator must
    hit.  For SU(r) the target is zeta*I with zeta an r-th root of unity.
    """

    spec: GroupSpec
    representatives: tuple = ()
    target: np.ndarray | None = None
    # class rank w_k of each boundary slot, read once at the representative
    ranks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.spec.rank
        reps = tuple(np.asarray(m, dtype=complex) for m in self.representatives)
        object.__setattr__(self, "representatives", reps)
        tgt = self.target
        if tgt is None:
            tgt = np.eye(r, dtype=complex)
        tgt = np.asarray(tgt, dtype=complex)
        object.__setattr__(self, "target", tgt)
        zeta = np.trace(tgt) / r
        if np.abs(tgt - zeta * np.eye(r)).max() > lg.TOL_GROUP:
            raise ValueError("target must be a central (scalar) element")
        if abs(zeta**r - 1.0) > 1e-8:
            raise ValueError("target scalar must be an r-th root of unity")
        for m in reps:
            if m.shape != (r, r):
                raise DimensionMismatchError("class representative has wrong shape")
        object.__setattr__(self, "ranks", tuple(
            BoundarySlot.at(self.spec, m).s.shape[-1] for m in reps))

    @property
    def boundary_count(self) -> int:
        return len(self.representatives)

    def to_json(self) -> dict:
        return {
            "representatives": [lg.matrix_to_json(m) for m in self.representatives],
            "target": lg.matrix_to_json(self.target),
        }

    @classmethod
    def from_json(cls, spec: GroupSpec, data: dict) -> "ConjugacyClassSpec":
        reps = tuple(lg.matrix_from_json(m) for m in data.get("representatives", []))
        tgt = lg.matrix_from_json(data["target"]) if "target" in data else None
        return cls(spec, reps, tgt)


@dataclass(frozen=True)
class RepresentationPoint:
    """A solved tuple with its recorded relator residual."""

    tuple: GeneratorTuple
    residual_norm: float

    @property
    def spec(self) -> GroupSpec:
        return self.tuple.spec

    def to_json(self) -> dict:
        data = self.tuple.to_json()
        data["residual"] = self.residual_norm
        return data

    @classmethod
    def from_json(cls, spec: GroupSpec, data: dict) -> "RepresentationPoint":
        return cls(GeneratorTuple.from_json(spec, data), float(data["residual"]))


@dataclass(frozen=True)
class CohomologyBasis:
    """Orthonormal coordinate bases of cocycles, coboundaries, and H1.

    Columns of ``z_coords`` span {H : dPi(H) = 0, boundary components
    class-tangent}, ``b_coords`` the image of the coboundary map, and
    ``h_coords`` the orthocomplement of b1 inside z1, all in the
    slot-major algebra basis.  ``lin`` is the :class:`Linearization` the
    split was read from, and ``dpi_singular_values`` are those of the
    class-constrained relator differential ``D E``.  The arrays carry batch
    axes when :func:`cohomology_split` ran on a batch.
    """

    z_coords: np.ndarray = field(repr=False)
    b_coords: np.ndarray = field(repr=False)
    h_coords: np.ndarray = field(repr=False)
    lin: Linearization = field(repr=False)
    dpi_singular_values: np.ndarray = field(repr=False)
    gap_quality: float = float("inf")

    def dims(self) -> tuple[int, int, int]:
        return (self.z_coords.shape[-1], self.b_coords.shape[-1],
                self.h_coords.shape[-1])


# ---------------------------------------------------------------------------
# rank splitting
# ---------------------------------------------------------------------------

def split_rank(svals: np.ndarray):
    """Numerical rank from the largest relative singular-value gap.

    ``svals`` (..., k) is descending along its last axis.  Returns
    ``(rank, gap_quality)`` where ``gap_quality`` is the ratio of the
    smallest kept to the largest discarded singular value; a value below
    ``1e-16 s[0]``, and the value past the last, read as ``1e-16 s[0]``
    (inf for a zero spectrum).  Scalars for one vector, arrays over leading axes.
    """
    s = np.asarray(svals, dtype=float)
    s = s if s.shape[-1] else np.zeros(s.shape[:-1] + (1,))  # no values: rank 0
    # sentinel models an empty kernel at machine scale; a value below it, an
    # exact zero included, reads as it too, so no gap opens inside the noise
    sentinel = 1e-16 * s[..., :1]
    ext = np.concatenate([np.maximum(s, sentinel), sentinel], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = ext[..., 1:] / ext[..., :-1]
        idx = np.argmin(ratios, axis=-1)
        r = ratios.min(axis=-1)  # the ratio at idx, NaN included
        quality = np.where(r > 0, 1.0 / r, np.inf)
    zero = s[..., 0] <= _ZERO_FLOOR
    rank, quality = np.where(zero, 0, idx + 1), np.where(zero, np.inf, quality)
    return (int(rank), float(quality)) if s.ndim == 1 else (rank, quality)


# ---------------------------------------------------------------------------
# class membership helpers
# ---------------------------------------------------------------------------

def _sorted_eigenvalues(spec: GroupSpec, M: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvals(M)
    return w[np.argsort(np.angle(w), kind="stable")]


def class_distance(spec: GroupSpec, M: np.ndarray, rep: np.ndarray) -> float:
    """Eigenvalue-multiset distance (sorted by phase) between M and the class of rep."""
    a = _sorted_eigenvalues(spec, M)
    b = _sorted_eigenvalues(spec, rep)
    return float(np.abs(a - b).max())


# ---------------------------------------------------------------------------
# boundary slots and step coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySlot:
    """Admissible moves of one boundary generator c, batched over leading axes.

    One SVD ``1 - Ad(c) = U S V*``, cut at the class rank ``w``, gives
    every boundary quantity:

    * ``U`` (..., dim, w): orthonormal basis of the class-tangent
      velocities image(1 - Ad c);
    * step coordinates ``x`` (..., w) conjugate c by ``X = V x``, with
      right-trivialized velocity ``(1 - Ad c) X = U S x``;
    * the minimal conjugator of a class-tangent velocity ``H`` is
      ``V S^-1 U* H``.

    The rank depends only on the conjugacy class, so a batch shares it.
    """

    ad: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)

    @classmethod
    def at(cls, spec: GroupSpec, c: np.ndarray, rank: int | None = None) -> "BoundarySlot":
        """Factors at c; the rank is read off the singular-value gap of an
        unbatched c unless given."""
        ad = lg.adjoint_matrix(spec, c)
        U, s, Vh = np.linalg.svd(np.eye(spec.dim) - ad)
        if rank is None:
            rank, _ = split_rank(s)
        V = np.swapaxes(Vh[..., :rank, :], -2, -1).conj()
        return cls(ad, U[..., :rank], s[..., :rank], V)

    @property
    def velocities(self) -> np.ndarray:
        """(..., dim, w): the velocity U S of each step coordinate."""
        return self.U * self.s[..., None, :]

    def conjugator(self, H: np.ndarray) -> np.ndarray:
        """Minimal conjugators V S^-1 U* H of velocity columns H (..., dim, k).

        Raises :class:`NotClassTangentError` when a column leaves
        image(1 - Ad c) by more than ``CLASS_TANGENT_TOL * max(|H|, 1)``.
        """
        proj = np.swapaxes(self.U, -2, -1).conj() @ H
        resid = np.linalg.norm(H - self.U @ proj, axis=-2)
        if np.any(resid > CLASS_TANGENT_TOL * np.maximum(np.linalg.norm(H, axis=-2), 1.0)):
            raise NotClassTangentError("boundary component not in image(1 - Ad c)")
        return self.V @ (proj / self.s[..., :, None])

    def move(self, spec: GroupSpec, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Conjugate c by exp(V x)."""
        E = lg.exp(spec, lg.coords_to_algebra(spec, (self.V @ x[..., None])[..., 0]))
        return E @ c @ lg.group_inverse(spec, E)


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The read-only (n, n) identity, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def embed_moves(d: int, g: int, blocks: list) -> np.ndarray:
    """Block-diagonal map from step coordinates to stacked slot vectors.

    Identity on the 2g interior slots, then one (..., dim, w_k) block per
    boundary slot; the (read-only) identity itself when there is no boundary.
    """
    if not blocks:
        return _eye(2 * g * d)
    batch = blocks[0].shape[:-2]
    widths = [b.shape[-1] for b in blocks]
    dtype = np.result_type(*blocks)
    out = np.zeros(batch + ((2 * g + len(blocks)) * d, 2 * g * d + sum(widths)),
                   dtype=dtype)
    out[..., : 2 * g * d, : 2 * g * d] = np.eye(2 * g * d)
    col = 2 * g * d
    for k, (b, w) in enumerate(zip(blocks, widths)):
        row = (2 * g + k) * d
        out[..., row:row + d, col:col + w] = b
        col += w
    return out


def _layout(mats: np.ndarray, classes: ConjugacyClassSpec) -> tuple[GroupSpec, int, int]:
    """The group and m of the class data and g = (n - m) / 2 of a tuple stack
    (..., n, r, r); :class:`DimensionMismatchError` when the stack does not fit."""
    spec, m = classes.spec, classes.boundary_count
    n = mats.shape[-3] if mats.ndim >= 3 else 0
    if mats.shape[-2:] != (spec.rank, spec.rank) or (n - m) % 2 or n - m < 2:
        raise DimensionMismatchError(f"{n} generators of shape {mats.shape[-2:]} do not "
                                     f"fit {m} classes of {spec.family}({spec.rank}), g >= 1")
    return spec, (n - m) // 2, m


@dataclass(frozen=True)
class Linearization:
    """First-order data of (a batch of) tuples, built once by :meth:`at` for
    the solver, the split, the screen, the form and the chart: the letter
    transport ``T``, one :class:`BoundarySlot` per boundary generator, the
    relator differential ``D``, and the :func:`embed_moves` ``E`` of the
    slots' ``U`` and ``S`` of their ``U S`` (unbatched identities at m = 0).
    The group and the genus are read from the stack and its class data."""

    spec: GroupSpec
    g: int
    mats: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    slots: tuple = field(repr=False)
    D: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)

    @classmethod
    def at(cls, mats: np.ndarray, classes: ConjugacyClassSpec,
           f: np.ndarray | None = None) -> "Linearization":
        """The linearization at mats; ``f`` passes their partial products when
        a residual evaluation already made them."""
        spec, g, m = _layout(mats, classes)
        if f is None:
            f = pres.partial_products(spec, mats, g, m)
        T = pres.letter_transport(spec, f, g, m)
        slots = tuple(BoundarySlot.at(spec, mats[..., 2 * g + k, :, :], classes.ranks[k])
                      for k in range(m))
        return cls(spec, g, mats, T, slots,
                   pres.relator_differential_matrix(spec, T, f[..., -1, :, :], g, m),
                   embed_moves(spec.dim, g, [sl.U for sl in slots]),
                   embed_moves(spec.dim, g, [sl.velocities for sl in slots]))

    def take(self, idx) -> "Linearization":
        """The linearization of the tuples ``mats[idx]``."""
        slots = tuple(BoundarySlot(sl.ad[idx], sl.U[idx], sl.s[idx], sl.V[idx])
                      for sl in self.slots)
        E, S = (self.E[idx], self.S[idx]) if slots else (self.E, self.S)
        return replace(self, mats=self.mats[idx], T=self.T[idx], slots=slots,
                       D=self.D[idx], E=E, S=S)

    def class_terms(self) -> list:
        """Per boundary slot k: its rows of a stacked coordinate vector, its
        :class:`BoundarySlot` and ``Ad c_k - Ad c_k^-1``, the operator of its
        class term in the two-form.  Built on demand: the solver never reads it."""
        spec, g, d = self.spec, self.g, self.spec.dim
        return [(slice((2 * g + k) * d, (2 * g + k + 1) * d), slot,
                 slot.ad - lg.adjoint_matrix(spec, lg.group_inverse(
                     spec, self.mats[..., 2 * g + k, :, :])))
                for k, slot in enumerate(self.slots)]


def apply_step(spec: GroupSpec, mats: np.ndarray, slots: list,
               step: np.ndarray) -> np.ndarray:
    """Move (a batch of) tuples by stacked step coordinates.

    Interior slots (the n - m ahead of the m boundary ``slots``) are right-
    translated by exp of their velocity; boundary slot k is conjugated by its ``move``.
    """
    d, g = spec.dim, (mats.shape[-3] - len(slots)) // 2
    out = np.empty_like(mats)
    W = step[..., : 2 * g * d].reshape(step.shape[:-1] + (2 * g, d))
    move = lg.exp(spec, lg.coords_to_algebra(spec, W))
    lg.mat_product(move, mats[..., : 2 * g, :, :], out=out[..., : 2 * g, :, :])
    ofs = 2 * g * d
    for k, slot in enumerate(slots):
        w = slot.s.shape[-1]
        out[..., 2 * g + k, :, :] = slot.move(spec, mats[..., 2 * g + k, :, :],
                                              step[..., ofs:ofs + w])
        ofs += w
    return out


# ---------------------------------------------------------------------------
# Gauss-Newton projection
# ---------------------------------------------------------------------------

def _batch_residual(mats, classes, z0i):
    """Residual coords log(Pi . z0^-1) of (a batch of) tuples at their class
    data, their norms and the :func:`presentation.partial_products` ``f`` Pi
    was read from.  The norm is the domain flag: it reads inf where the
    relator is outside the principal-log domain, whose residual coords read
    0.  ``z0i`` broadcasts over the batch."""
    spec, g, m = _layout(mats, classes)
    f = pres.partial_products(spec, mats, g, m)
    L, bad = lg.principal_log(spec, lg.mat_product(f[..., -1, :, :], z0i))
    R = lg.algebra_coords(spec, L)
    return R, np.where(bad, np.inf, np.linalg.norm(R, axis=-1)), f


def _damped_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(A, b)`` over a stack.  When some slice's system is
    singular, every slice is solved alone and the singular ones take their
    least-squares step; LAPACK solves a stack slice by slice, so the others
    keep their bits."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        y = np.empty(b.shape, dtype=np.result_type(A, b))
        for i, (Ai, bi) in enumerate(zip(A, b)):
            try:
                y[i] = np.linalg.solve(Ai, bi)
            except np.linalg.LinAlgError:
                y[i] = np.linalg.lstsq(Ai, bi, rcond=None)[0]
        return y


def project_batch(mats: np.ndarray, classes: ConjugacyClassSpec, *, tol: float = SOLVE_TOL,
                  max_iter: int = 200, rng: np.random.Generator | None = None,
                  target: np.ndarray | None = None, start: tuple | None = None):
    """Damped Gauss-Newton flattening of a batch of tuples at their class
    data, which fixes the group, the genus and the boundary count.

    Returns ``(mats, residual_norms, iterations, converged)`` with leading
    batch axes preserved.  Each slice flattens onto its own relator target:
    ``target`` (..., r, r) broadcasts over the batch and defaults to
    ``classes.target``.  The solver holds the state of the unconverged
    slices only (tuples, residuals, norms, partial products, ``z0^-1``) and
    writes a slice's result once, at the iterate where it converges or runs
    out of budget, so a slice's iterates do not depend on its neighbours or
    their targets.  Each iterate evaluates the relator word once: the next
    Jacobian is built from the held partial products.  A singular damped
    normal system takes its least-squares step.  ``start`` passes the
    :func:`_batch_residual` triple of ``mats`` when the caller has it; the
    solver writes into its arrays.  Branch-cut hits are retried with small
    random interior nudges from ``rng``, drawn for the whole batch shape
    whenever any slice needs one (the same draws as a loop over every
    slice), so a nudged slice's draws depend on the batch it sits in;
    persistent failures stay unconverged.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    mats = np.array(mats, dtype=complex)
    batch = mats.shape[:-3]
    spec, g, m = _layout(mats, classes)
    mats = mats.reshape((-1,) + mats.shape[-3:])
    z0 = classes.target if target is None else target
    r = spec.rank
    za = np.broadcast_to(lg.group_inverse(spec, z0), batch + (r, r)).reshape(-1, r, r)
    R, rn, f = (_batch_residual(mats, classes, za) if start is None
                else (a.reshape(mats.shape[:1] + a.shape[len(batch):]) for a in start))
    rnorm = np.empty(mats.shape[0])
    iters = np.empty(mats.shape[0], dtype=int)
    act, x = np.arange(mats.shape[0]), mats  # the unconverged slices and their tuples
    for it in range(max_iter + 1 if act.size else 0):
        off = np.flatnonzero(rn == np.inf)  # relators off the principal-log domain
        if off.size and it < max_iter:
            kick = lg.random_algebra(spec, rng, scale=0.2, size=batch + (2 * g,))
            kick = kick.reshape((-1,) + kick.shape[-3:])[act[off]]
            x[off, : 2 * g] = lg.exp(spec, kick) @ x[off, : 2 * g]
            R[off], rn[off], f[off] = _batch_residual(x[off], classes, za[off])
        done = (rn <= tol) | (it == max_iter)
        if done.any():  # the one write-back of these slices
            at = act[done]
            mats[at], rnorm[at], iters[at] = x[done], rn[done], it
            if done.all():
                break
            go = ~done
            act, x, R, rn, f, za = act[go], x[go], R[go], rn[go], f[go], za[go]
        lin = Linearization.at(x, classes, f)
        J, slots = (lin.D @ lin.S if m else lin.D), lin.slots  # S is I at m = 0
        del lin  # its transport is freed before the trials: bounds the peak memory
        lam = np.minimum(1.0, np.where(np.isfinite(rn), rn, 1.0))
        Jh = np.swapaxes(J, -2, -1).conj()  # a view when J is real
        A = J @ Jh + (lam**2)[..., None, None] * _eye(J.shape[-2])
        full_step = -(Jh @ _damped_solve(A, R[..., None]))[..., 0]
        if spec.family == "SU":
            full_step = full_step.real
        # backtracking: halve steps that do not reduce the residual.  A slice
        # that improves is stored at once and never taken again, so later
        # trials of the others still start from this iterate's state
        scale = np.ones(act.size)
        improved = np.zeros(act.size, dtype=bool)
        for _ in range(8):
            trial = apply_step(spec, x, slots, scale[:, None] * full_step)
            Rt, rt, ft = _batch_residual(trial, classes, za)
            take = ~improved & (rt < rn)
            if take.all():  # every active slice takes this trial
                x[...], R, rn, f = trial, Rt, rt, ft
            else:
                x[take], R[take], rn[take], f[take] = trial[take], Rt[take], rt[take], ft[take]
            del trial, ft  # freed before the next halving: bounds the peak memory
            improved |= take
            if improved.all():
                break
            scale = np.where(improved, scale, scale * 0.5)
    converged = rnorm <= tol
    rnorm = np.where(np.isfinite(rnorm), rnorm, np.inf)
    return (mats.reshape(batch + mats.shape[1:]), rnorm.reshape(batch),
            iters.reshape(batch), converged.reshape(batch))


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def is_irreducible(t: GeneratorTuple) -> bool:
    """True iff the coboundary map ``C: X -> (X - Ad(rho(s)) X)_s`` has rank
    ``dim g``, read off its singular-value gap by :func:`split_rank`.

    The map's kernel is the traceless part of the joint commutant, so full
    rank means the commutant is the scalars.  ``rank(C)`` is the
    ``rank(E* C)`` of :func:`cohomology_split`, since ``E`` has orthonormal
    columns spanning every coboundary; the volume sampler's mask and the
    certification battery read that rank and ``rank(D E)`` too.  On SU(r)
    this is irreducibility.  On SL(r, C) it is not: a tuple with a common
    invariant subspace (an upper-triangular one, say) can still have a
    trivial commutant and read True.
    """
    s = np.linalg.svd(pres.coboundary_matrix(t.spec, t.mats), compute_uv=False)
    return split_rank(s)[0] == t.spec.dim


# ---------------------------------------------------------------------------
# cohomology at a point
# ---------------------------------------------------------------------------

def cohomology_split(lin: Linearization, ranks: tuple[int, int] | None = None):
    """Cocycles, coboundaries and H1 of (a batch of) tuples from three
    stacked SVDs of their :class:`Linearization`: of the class-constrained
    differential ``D E``, of the constrained coboundaries ``E* C`` and of
    the cocycles with the coboundaries projected out.  Every slice is cut
    at ``ranks`` (of ``D E`` and ``E* C``), or at an unbatched tuple's own
    gaps when None; h1 takes the ``nz - nb`` leading directions of the
    third SVD, so ``nh + nb = nz``, and that SVD's gap is a quality figure
    only.  Returns the :class:`CohomologyBasis` (arrays with the batch
    axes) and the ``split_rank`` pair of each SVD.
    """
    _, s, Vh = np.linalg.svd(lin.D @ lin.E)
    own_z = split_rank(s)
    Ub, sb, _ = np.linalg.svd(np.swapaxes(lin.E, -2, -1).conj()
                              @ pres.coboundary_matrix(lin.spec, lin.mats),
                              full_matrices=False)
    own_b = split_rank(sb)
    rz, rb = (own_z[0], own_b[0]) if ranks is None else ranks
    Zc = np.swapaxes(Vh[..., rz:, :], -2, -1).conj()  # (..., D_c, nz), orthonormal
    Bc = Ub[..., :rb]
    P = Zc - Bc @ (np.swapaxes(Bc, -2, -1).conj() @ Zc)
    Uh, sh, _ = np.linalg.svd(P, full_matrices=False)
    own_h = split_rank(sh)
    Hc = Uh[..., :Zc.shape[-1] - rb]
    return CohomologyBasis(
        z_coords=lin.E @ Zc, b_coords=lin.E @ Bc, h_coords=lin.E @ Hc, lin=lin,
        dpi_singular_values=s,
        gap_quality=np.minimum(np.minimum(own_z[1], own_b[1]), own_h[1]),
    ), (own_z, own_b, own_h)


def cohomology_at(p: RepresentationPoint, classes: ConjugacyClassSpec,
                  gap_tol: float = GAP_TOL, tol_flat: float = TOL_FLAT) -> CohomologyBasis:
    """Split the admissible directions into cocycles, coboundaries, and H1.

    Cocycles are the null space of the relator differential restricted to
    class-tangent boundary moves; coboundaries are the conjugation
    directions; h1 is the orthocomplement of the latter in the former.
    Emits :class:`RankDeficiencyWarning` when any singular-value gap is
    weaker than 1/gap_tol (non-smooth or reducible-adjacent point), and
    raises :class:`DimensionMismatchError` when the point's group or
    boundary count is not the class data's.
    """
    t = p.tuple
    if (t.spec, t.boundary_count) != (classes.spec, classes.boundary_count):
        raise DimensionMismatchError("tuple group or boundary count disagrees with class data")
    if p.residual_norm > tol_flat:
        raise ValueError(
            f"point residual {p.residual_norm:.3e} above tol_flat {tol_flat:.1e}")
    basis, own = cohomology_split(Linearization.at(t.mats, classes))
    _warn_weak_gaps(own, gap_tol, stacklevel=2)
    return basis


def _warn_weak_gaps(own: tuple, gap_tol: float, stacklevel: int = 1):
    """One :class:`RankDeficiencyWarning` per gap weaker than ``1/gap_tol``
    among the ``split_rank`` pairs of an unbatched :func:`cohomology_split`,
    in its order; ``stacklevel`` as the caller's ``warnings.warn`` takes it."""
    for what, (_, quality) in zip(
            ("kernel/range split", "coboundary rank", "h1 complement"), own):
        if quality < 1.0 / gap_tol:
            warnings.warn(f"{what} gap {quality:.2e} below 1/gap_tol",
                          RankDeficiencyWarning, stacklevel=stacklevel + 1)


# ---------------------------------------------------------------------------
# problem bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietyProblem:
    """Genus + class data: everything defining one variety.  The class data
    fix the group, the boundary count m and the relator target."""

    genus: int
    classes: ConjugacyClassSpec

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        off = np.abs(self.classes.target - lg.identity(self.spec.rank)).max()
        if (self.genus, self.boundary_count) == (1, 0) and off <= lg.TOL_GROUP:
            # the dataclass __init__ sits between this frame and the caller
            warnings.warn(
                "closed genus-1 surface over the target I: commuting matrices "
                "share an eigenvector, so every point is reducible",
                stacklevel=3,
            )

    @property
    def spec(self) -> GroupSpec:
        return self.classes.spec

    @property
    def boundary_count(self) -> int:
        return self.classes.boundary_count

    def initial_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` starting tuples, shape (size, 2g + m, r, r): Haar interior
        generators for the whole batch, then Haar conjugates of the class
        representatives.  At m = 0 this is ``haar_sample(size=(size, 2g))``."""
        spec, r = self.spec, self.spec.rank
        g, m = self.genus, self.boundary_count
        interior = lg.haar_sample(spec, rng, size=(size, 2 * g))
        if not m:  # an empty draw consumes nothing
            return interior
        U = lg.haar_sample(spec, rng, size=(size, m))
        reps = np.array(self.classes.representatives).reshape(m, r, r)
        return np.concatenate([interior, U @ reps @ lg.group_inverse(spec, U)], axis=-3)

    def solve(self, rng: np.random.Generator, *, tol_flat: float = TOL_FLAT,
              max_iter: int = 200) -> RepresentationPoint:
        """Flatten one :meth:`initial_batch` draw onto the variety with
        :func:`project_batch`, stopping at ``min(SOLVE_TOL, tol_flat)``; its
        branch-cut nudges continue ``rng``.  Boundary entries start on their
        classes and move only by conjugation.  Raises
        :class:`NoConvergenceError` with the iteration count and final
        residual when the budget runs out."""
        mats, rnorm, iters, conv = project_batch(
            self.initial_batch(rng, 1), self.classes, tol=min(SOLVE_TOL, tol_flat),
            max_iter=max_iter, rng=rng)
        if not conv[0]:
            raise NoConvergenceError(int(iters[0]), float(rnorm[0]))
        t = GeneratorTuple(self.spec, self.genus, self.boundary_count, mats[0])
        return RepresentationPoint(t, float(rnorm[0]))

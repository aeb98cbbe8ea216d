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
quality, and a :class:`RankDeficiencyWarning` is emitted when the gap is
weaker than ``1/gap_tol``.  Near reducible points that warning is the
contract -- results are still returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import liegroup as lg
from . import presentation as pres
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotClassTangentError,
    OutsideDomainError,
    RankDeficiencyWarning,
)
from .liegroup import GroupSpec
from .presentation import GeneratorTuple, SurfacePresentation

TOL_FLAT = 1e-9
GAP_TOL = 1e-6
CLASS_TANGENT_TOL = 1e-8

_ZERO_FLOOR = 1e-11
_COMMUTANT_TOL = 1e-8  # relative to the largest commutator singular value


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

    def tangent_basis(self, k: int) -> np.ndarray:
        """Orthonormal basis of the class-tangent velocities image(1 - Ad c_k)
        at the representative.

        Shape (dim, w_k); empty second axis for a central class.  The
        same subspace at a conjugate of the representative is the ``U``
        of :meth:`BoundarySlot.at` there.
        """
        return BoundarySlot.at(self.spec, self.representatives[k], self.ranks[k]).U

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
    irreducible: bool | None = None

    @property
    def spec(self) -> GroupSpec:
        return self.tuple.spec

    def with_irreducible(self, flag: bool) -> "RepresentationPoint":
        return replace(self, irreducible=flag)

    def to_json(self) -> dict:
        data = self.tuple.to_json()
        data["residual"] = self.residual_norm
        data["irreducible"] = self.irreducible
        return data

    @classmethod
    def from_json(cls, spec: GroupSpec, data: dict) -> "RepresentationPoint":
        t = GeneratorTuple.from_json(spec, data)
        return cls(t, float(data["residual"]), data.get("irreducible"))


@dataclass(frozen=True)
class CohomologyBasis:
    """Orthonormal coordinate bases of cocycles, coboundaries, and H1.

    Columns of ``z_coords`` span {H : dPi(H) = 0, boundary components
    class-tangent}, ``b_coords`` the image of the coboundary map, and
    ``h_coords`` the orthocomplement of b1 inside z1, all in the
    slot-major algebra basis.  ``normal_rows`` span the row space of the
    class-constrained relator differential (the normal directions of the
    variety).  The arrays carry batch axes when :func:`cohomology_split`
    ran on a batch.
    """

    spec: GroupSpec
    z_coords: np.ndarray = field(repr=False)
    b_coords: np.ndarray = field(repr=False)
    h_coords: np.ndarray = field(repr=False)
    normal_rows: np.ndarray = field(repr=False)
    dpi_singular_values: np.ndarray = field(repr=False)
    gap_quality: float = float("inf")

    def dims(self) -> tuple[int, int, int]:
        return (self.z_coords.shape[-1], self.b_coords.shape[-1],
                self.h_coords.shape[-1])


# ---------------------------------------------------------------------------
# rank splitting
# ---------------------------------------------------------------------------

def split_rank(svals: np.ndarray, gap_tol: float = GAP_TOL):
    """Numerical rank from the largest relative singular-value gap.

    ``svals`` (..., k) is descending along its last axis.  Returns
    ``(rank, gap_quality, clean)`` where ``gap_quality`` is the ratio of
    the smallest kept to the largest discarded singular value (inf when
    nothing is discarded) and ``clean`` is False when the gap is weaker
    than ``1/gap_tol``: scalars for one vector, arrays over leading axes.
    """
    s = np.asarray(svals, dtype=float)
    s = s if s.shape[-1] else np.zeros(s.shape[:-1] + (1,))  # no values: rank 0
    # sentinel models an empty kernel at machine scale
    ext = np.concatenate([s, 1e-16 * s[..., :1]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = ext[..., 1:] / ext[..., :-1]
        idx = np.argmin(ratios, axis=-1)
        r = ratios.min(axis=-1)  # the ratio at idx, NaN included
        quality = np.where(r > 0, 1.0 / r, np.inf)
    zero = s[..., 0] <= _ZERO_FLOOR
    rank, quality = np.where(zero, 0, idx + 1), np.where(zero, np.inf, quality)
    clean = zero | (quality >= 1.0 / gap_tol)
    if s.ndim == 1:
        return int(rank), float(quality), bool(clean)
    return rank, quality, clean


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


def project_to_class(spec: GroupSpec, M: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Replace the spectrum of M by the class representative's, keeping frames.

    Intended for SU(r) (normal matrices); pairs eigenvalues sorted by
    phase, so it is exact when M is already in the class and a nearby
    retraction otherwise.
    """
    T, Z = scipy.linalg.schur(M, output="complex")
    lam = np.diag(T)
    order = np.argsort(np.angle(lam), kind="stable")
    target = _sorted_eigenvalues(spec, rep)
    new = np.empty_like(lam)
    new[order] = target
    return Z @ np.diag(new) @ Z.conj().T


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
            rank, _, _ = split_rank(s)
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


def boundary_slots(spec: GroupSpec, mats: np.ndarray, g: int, m: int,
                   classes: ConjugacyClassSpec) -> list:
    """One :class:`BoundarySlot` per boundary generator of (a batch of)
    tuples, each cut at its class rank."""
    return [BoundarySlot.at(spec, mats[..., 2 * g + k, :, :], classes.ranks[k])
            for k in range(m)]


def embed_moves(d: int, g: int, blocks: list) -> np.ndarray:
    """Block-diagonal map from step coordinates to stacked slot vectors.

    Identity on the 2g interior slots, then one (..., dim, w_k) block per
    boundary slot; the identity itself when there is no boundary.
    """
    if not blocks:
        return np.eye(2 * g * d)
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


def apply_step(spec: GroupSpec, mats: np.ndarray, g: int, slots: list,
               step: np.ndarray) -> np.ndarray:
    """Move (a batch of) tuples by stacked step coordinates.

    Interior slots are right-translated by exp of their velocity; boundary
    slot k is conjugated by its slot's ``move``.
    """
    d = spec.dim
    out = mats.copy()
    W = step[..., : 2 * g * d].reshape(step.shape[:-1] + (2 * g, d))
    move = lg.exp(spec, lg.coords_to_algebra(spec, W))
    out[..., : 2 * g, :, :] = move @ mats[..., : 2 * g, :, :]
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

def _batch_residual(spec, mats, g, m, z0i):
    """Residual coords log(Pi . z0^-1) of (a batch of) tuples, with the
    per-sample mask of relators outside the principal-log domain (their
    residual reads 0)."""
    P = pres.relator_product(spec, mats, g, m)
    L, bad = lg.principal_log(spec, P @ z0i)
    return lg.algebra_coords(spec, L), bad


def flat_residual(spec: GroupSpec, mats: np.ndarray, g: int, m: int,
                  target: np.ndarray) -> np.ndarray:
    """Algebra coordinates of log(Pi . z0^-1); shape (..., dim).

    Raises :class:`OutsideDomainError` when a relator is outside the
    principal-log domain.
    """
    R, bad = _batch_residual(spec, mats, g, m, lg.group_inverse(spec, target))
    if np.any(bad):
        raise OutsideDomainError("relator outside the principal-log domain")
    return R


def project_batch(spec: GroupSpec, mats: np.ndarray, g: int, m: int,
                  classes: ConjugacyClassSpec, *, tol: float = 1e-12,
                  max_iter: int = 200, rng: np.random.Generator | None = None):
    """Damped Gauss-Newton flattening of a batch of tuples.

    Returns ``(mats, residual_norms, iterations, converged)`` with leading
    batch axes preserved.  Each iteration runs on the unconverged slices
    only, so a slice's iterates do not depend on its neighbours.
    Branch-cut hits are retried with small random interior nudges, drawn
    for the whole batch shape whenever any slice needs one (the same draws
    as a loop over every slice); persistent failures stay unconverged.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    mats = np.array(mats, dtype=complex)
    batch = mats.shape[:-3]
    mats = mats.reshape((-1,) + mats.shape[-3:])
    z0i = lg.group_inverse(spec, classes.target)
    R, bad = _batch_residual(spec, mats, g, m, z0i)
    rnorm = np.where(bad, np.inf, np.linalg.norm(R, axis=-1))
    iters = np.zeros(mats.shape[0], dtype=int)
    for it in range(max_iter):
        act = np.flatnonzero(~(rnorm <= tol))
        if not act.size:
            break
        if np.any(bad):  # a bad slice reads rnorm = inf, so it is active
            kick = lg.random_algebra(spec, rng, scale=0.2, size=batch + (2 * g,))
            nb = np.flatnonzero(bad)
            kick = kick.reshape((-1,) + kick.shape[-3:])[nb]
            mats[nb, : 2 * g] = lg.exp(spec, kick) @ mats[nb, : 2 * g]
            R[nb], bad[nb] = _batch_residual(spec, mats[nb], g, m, z0i)
            rnorm[nb] = np.where(bad[nb], np.inf, np.linalg.norm(R[nb], axis=-1))
            act = act[~(rnorm[act] <= tol)]
        x, r0 = mats[act], rnorm[act]
        J = pres.relator_differential_matrix(spec, x, g, m)
        slots = boundary_slots(spec, x, g, m, classes)
        if slots:
            J = J @ embed_moves(spec.dim, g, [sl.velocities for sl in slots])
        lam = np.minimum(1.0, np.where(np.isfinite(r0), r0, 1.0))
        JJt = J @ np.swapaxes(J, -2, -1).conj()
        A = JJt + (lam**2)[..., None, None] * np.eye(J.shape[-2])
        y = np.linalg.solve(A, R[act][..., None])
        full_step = -(np.swapaxes(J, -2, -1).conj() @ y)[..., 0]
        if spec.family == "SU":
            full_step = full_step.real
        # backtracking: halve steps that do not reduce the residual
        scale = np.ones(act.size)
        improved = np.zeros(act.size, dtype=bool)
        for _ in range(8):
            trial = apply_step(spec, x, g, slots, scale[:, None] * full_step)
            Rt, badt = _batch_residual(spec, trial, g, m, z0i)
            rt = np.where(badt, np.inf, np.linalg.norm(Rt, axis=-1))
            take = ~improved & (rt < r0)
            at = act[take]
            mats[at], R[at] = trial[take], Rt[take]
            bad[at], rnorm[at] = badt[take], rt[take]
            improved |= take
            if np.all(improved):
                break
            scale = np.where(improved, scale, scale * 0.5)
        iters[act] = it + 1
    converged = rnorm <= tol
    rnorm = np.where(np.isfinite(rnorm), rnorm, np.inf)
    return (mats.reshape(batch + mats.shape[1:]), rnorm.reshape(batch),
            iters.reshape(batch), converged.reshape(batch))


def project_to_variety(initial: GeneratorTuple, classes: ConjugacyClassSpec,
                       *, tol_flat: float = TOL_FLAT, solve_tol: float = 1e-12,
                       max_iter: int = 200,
                       rng: np.random.Generator | None = None) -> RepresentationPoint:
    """Project a tuple onto the variety (relator = target, classes exact).

    Boundary entries are first snapped onto their prescribed classes and
    afterwards move only by conjugation.  Raises
    :class:`NoConvergenceError` with the iteration count and final
    residual when the budget runs out.
    """
    spec = initial.spec
    g, m = initial.genus, initial.boundary_count
    if m != classes.boundary_count:
        raise DimensionMismatchError("boundary count disagrees with class data")
    mats = initial.mats.copy()
    for k in range(m):
        mats[2 * g + k] = project_to_class(spec, mats[2 * g + k],
                                           classes.representatives[k])
    out, rnorm, iters, conv = project_batch(
        spec, mats, g, m, classes, tol=min(solve_tol, tol_flat),
        max_iter=max_iter, rng=rng)
    if not bool(conv):
        raise NoConvergenceError(int(iters), float(rnorm))
    t = initial.replace_mats(out)
    return RepresentationPoint(t, float(rnorm))


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def commutant_dimension(spec: GroupSpec, mats: np.ndarray) -> int:
    """Dimension of {M : M rho(s) = rho(s) M for all generators}."""
    eye = np.eye(spec.rank)
    op = np.concatenate([np.kron(eye, g) - np.kron(g.T, eye) for g in mats])
    svals = np.linalg.svd(op, compute_uv=False)
    scale = svals[0] if svals[0] > 0 else 1.0
    return int(np.sum(svals <= _COMMUTANT_TOL * scale))


def is_irreducible(point) -> bool:
    """True iff the joint commutant is the scalars (null dimension 1)."""
    t = point.tuple if isinstance(point, RepresentationPoint) else point
    return commutant_dimension(t.spec, t.mats) == 1


# ---------------------------------------------------------------------------
# cohomology at a point
# ---------------------------------------------------------------------------

def cohomology_split(spec: GroupSpec, mats: np.ndarray, g: int, m: int,
                     classes: ConjugacyClassSpec, gap_tol: float = GAP_TOL,
                     ranks: tuple[int, int] | None = None):
    """Cocycles, coboundaries and H1 of (a batch of) tuples from three
    stacked SVDs: of the class-constrained differential ``D E``, of the
    constrained coboundaries ``E* C`` and of the cocycles with the
    coboundaries projected out.  Every slice is cut at ``ranks`` (of ``D E``
    and ``E* C``), or at an unbatched tuple's own gaps when None.  Returns
    the :class:`CohomologyBasis` (arrays with the batch axes) and the
    ``split_rank`` triple of each SVD.
    """
    slots = boundary_slots(spec, mats, g, m, classes)
    E = embed_moves(spec.dim, g, [sl.U for sl in slots])
    Eh = np.swapaxes(E, -2, -1).conj()
    D = pres.relator_differential_matrix(spec, mats, g, m)
    _, s, Vh = np.linalg.svd(D @ E)
    own_z = split_rank(s, gap_tol)
    Ub, sb, _ = np.linalg.svd(Eh @ pres.coboundary_matrix(spec, mats),
                              full_matrices=False)
    own_b = split_rank(sb, gap_tol)
    rz, rb = (own_z[0], own_b[0]) if ranks is None else ranks
    Zc = np.swapaxes(Vh[..., rz:, :], -2, -1).conj()  # (..., D_c, nz), orthonormal
    Bc = Ub[..., :rb]
    P = Zc - Bc @ (np.swapaxes(Bc, -2, -1).conj() @ Zc)
    Uh, sh, _ = np.linalg.svd(P, full_matrices=False)
    own_h = split_rank(sh, gap_tol)
    Hc = Uh[..., :own_h[0] if ranks is None else Zc.shape[-1] - rb]
    return CohomologyBasis(
        spec, z_coords=E @ Zc, b_coords=E @ Bc, h_coords=E @ Hc,
        normal_rows=Vh[..., :rz, :] @ Eh, dpi_singular_values=s,
        gap_quality=np.minimum(np.minimum(own_z[1], own_b[1]), own_h[1]),
    ), (own_z, own_b, own_h)


def cohomology_at(p: RepresentationPoint, classes: ConjugacyClassSpec,
                  gap_tol: float = GAP_TOL, tol_flat: float = TOL_FLAT) -> CohomologyBasis:
    """Split the admissible directions into cocycles, coboundaries, and H1.

    Cocycles are the null space of the relator differential restricted to
    class-tangent boundary moves; coboundaries are the conjugation
    directions; h1 is the orthocomplement of the latter in the former.
    Emits :class:`RankDeficiencyWarning` when any singular-value gap is
    weaker than 1/gap_tol (non-smooth or reducible-adjacent point).
    """
    t = p.tuple
    if p.residual_norm > tol_flat:
        raise ValueError(
            f"point residual {p.residual_norm:.3e} above tol_flat {tol_flat:.1e}")
    basis, own = cohomology_split(t.spec, t.mats, t.genus, t.boundary_count,
                                  classes, gap_tol)
    for what, (_, quality, clean) in zip(
            ("kernel/range split", "coboundary rank", "h1 complement"), own):
        if not clean:
            warnings.warn(f"{what} gap {quality:.2e} below 1/gap_tol",
                          RankDeficiencyWarning, stacklevel=2)
    return basis


def conjugate_point(p: RepresentationPoint, A: np.ndarray,
                    classes: ConjugacyClassSpec | None = None) -> RepresentationPoint:
    """Slotwise s -> A^-1 s A; the residual is conjugation-invariant.

    When class data is supplied the residual is recomputed at the moved
    tuple (it agrees with the stored one to rounding); otherwise the
    stored value is carried over.
    """
    t = pres.conjugate_tuple(p.tuple, A)
    if classes is None:
        return RepresentationPoint(t, p.residual_norm, p.irreducible)
    R = flat_residual(p.spec, t.mats, t.genus, t.boundary_count, classes.target)
    return RepresentationPoint(t, float(np.linalg.norm(R)), p.irreducible)


# ---------------------------------------------------------------------------
# problem bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietyProblem:
    """Group + presentation + class data: everything defining one variety."""

    spec: GroupSpec
    presentation: SurfacePresentation
    classes: ConjugacyClassSpec

    def __post_init__(self):
        if self.presentation.boundary_count != self.classes.boundary_count:
            raise DimensionMismatchError(
                "presentation and class data disagree on boundary count")

    def random_initial(self, rng: np.random.Generator) -> GeneratorTuple:
        """Haar interior generators; boundary entries at their class representatives."""
        g = self.presentation.genus
        m = self.presentation.boundary_count
        mats = list(lg.haar_sample(self.spec, rng, size=2 * g))
        for k in range(m):
            U = lg.haar_sample(self.spec, rng)
            rep = self.classes.representatives[k]
            mats.append(U @ rep @ lg.group_inverse(self.spec, U))
        return GeneratorTuple(self.spec, g, m, np.array(mats))

    def solve(self, rng: np.random.Generator, **kw) -> RepresentationPoint:
        return project_to_variety(self.random_initial(rng), self.classes,
                                  rng=rng, **kw)


def perturb_point(p: RepresentationPoint, classes: ConjugacyClassSpec,
                  rng: np.random.Generator, scale: float = 0.1,
                  **solve_kw) -> RepresentationPoint:
    """Kick the interior generators and re-project (one random-walk step)."""
    t = p.tuple
    g = t.genus
    mats = t.mats.copy()
    kick = lg.exp(t.spec, lg.random_algebra(t.spec, rng, scale=scale, size=2 * g))
    mats[: 2 * g] = kick @ mats[: 2 * g]
    return project_to_variety(t.replace_mats(mats), classes, rng=rng, **solve_kw)

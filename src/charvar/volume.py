"""Monte Carlo estimation of Pfaffian-weighted volumes of moduli components.

The density against the Riemannian measure induced by the invariant
pairing is the Pfaffian ``pf`` of the form matrix over an orthonormal h1
basis (sign fixed positive by orientation convention).  The payload is
not the Liouville volume ``int pf``: both estimators integrate ``pf`` over
the relator's level set in the tuple space, which weights each moduli
point by the volume of its conjugation orbit, proportional to the product
``O`` of the ``dim g`` singular values of the coboundary map.  The payload
is ``int pf O``, and ``O`` varies.  Two estimator variants thicken the
variety in different metrics and must agree:

* ``coarea``: accept a Haar sample when its initial relator residual
  lies in a ball of radius ``residual_gate``; the mass of that acceptance
  region over a foot point scales like 1/J with J the product of the
  nonzero singular values of the relator differential, so each accepted
  landing is weighted by ``pf * J / ball_volume``.
* ``tube``: accept when the normal component of the Riemannian
  displacement consumed by the projection (distance to the variety, to
  leading order) is below ``distance_gate``; weight ``pf / ball_volume``.

Both converge to the same relative volume as the gates shrink; their
leading biases differ (residual-metric vs distance-metric tube), which is
exactly what makes the cross-check informative.  Absolute normalization
is not reproducible without conventions the underlying construction does
not fix, so values are relative to the stated baseline: Haar probability
on the ambient tuple space and the -trace(XY) metric scale (the
density scales by lambda^(dim h1 / 2) if the pairing is scaled by lambda).

Each estimator runs on its own stream with its own gate.  The tube stream
projects every sample; the co-area stream projects only the samples whose
initial residual is inside its gate, the only ones it can accept.  A stream
builds one :class:`variety.Linearization` per batch of converged landings,
screens them all by their normal distance, from one QR, and evaluates the
density only where its gate accepts, from that linearization's cut.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import liegroup as lg
from .errors import (
    DimensionMismatchError,
    InsufficientSamplesError,
    OddDimensionError,
)
from .twoform import form_gram_stack
from .variety import (
    Linearization,
    VarietyProblem,
    _batch_residual,
    cohomology_split,
    project_batch,
)

MIN_LANDINGS = 30
LANDING_CHUNK = 1024  # landings per density call: bounds the peak memory
SAMPLE_BATCH = 2048  # Haar samples projected per project_batch call
LANDING_TOL = 1e-11  # Gauss-Newton residual at which a sample has landed
LANDING_MAX_ITER = 120
CONVENTION = ("relative symplectic volume; Haar-probability ambient baseline; "
              "-trace(XY) pairing metric")


@dataclass(frozen=True)
class VolumeEstimate:
    """A relative-volume estimate with its Monte Carlo error."""

    value: float
    stderr: float
    samples: int
    convention: str
    landings: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def pfaffian_abs(omega: np.ndarray) -> np.ndarray:
    """|Pf| of a stack of skew matrices (..., n, n) via sqrt(det), shape (...);
    :class:`OddDimensionError` on an odd size."""
    n = omega.shape[-1]
    if n % 2 != 0:
        raise OddDimensionError(f"skew matrix of odd size {n}")
    return np.sqrt(np.maximum(np.real(np.linalg.det(omega)), 0.0))


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the Euclidean ball of given dimension and radius."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius ** dim


# ---------------------------------------------------------------------------
# sampling pipeline
# ---------------------------------------------------------------------------

def _displacement_coords(spec, final, initial):
    """Right-trivialized log displacement coordinates, stacked per slot.

    Slots outside the principal-log domain, or with an eigen-angle of
    the log above 3 (near-antipodal: the log direction is ill-conditioned),
    are parked at a large sentinel: they are far outside every gate and
    must not abort the stream.  The eigen-angles of the skew-Hermitian L
    are the eigenvalues of iL; on SU(2), ``L = [[ia, b], [-conj b, -ia]]``
    has the pair ``+-sqrt(a^2 + |b|^2)``, the norm of its first row.
    """
    rel = lg.mat_product(final, lg.group_inverse(spec, initial))
    L, bad = lg.principal_log(spec, rel)
    angle = (np.linalg.norm(L[..., 0, :], axis=-1) if spec.rank == 2
             else np.abs(np.linalg.eigvalsh(1j * L)).max(axis=-1))
    far = bad | (angle > 3.0)
    out = np.where(far[..., None], 2.0 * np.pi, lg.algebra_coords(spec, L))
    return out.reshape(rel.shape[:-3] + (rel.shape[-3] * spec.dim,))


def landing_densities(lin: Linearization):
    """(pf, coarea_jacobian, irreducible) at a stack of landings, from their
    :class:`Linearization`.

    One :func:`cohomology_split`, cut at the ranks of an irreducible point
    ``rank(D E) = rank(E* C) = dim g``, and one form Gram serve the stack;
    a slice whose own ranks differ reads ``(0, 0, False)``.  For a
    unitary representation the coboundary rank is ``dim g`` exactly when
    the commutant is the scalars: a larger commutant is a *-algebra, so it
    holds a non-scalar Hermitian ``H``, and ``i(H - tr H / r)`` is a nonzero
    traceless element centralizing the image, which the coboundary map kills.
    An empty stack gives three empty arrays.
    """
    if not len(lin.mats):
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
    d = lin.spec.dim
    basis, own = cohomology_split(lin, ranks=(d, d))
    ok = (own[0][0] == d) & (own[1][0] == d)
    pf = pfaffian_abs(form_gram_stack(lin, basis.h_coords, basis.h_coords))
    jac = np.prod(basis.dpi_singular_values[..., :d], axis=-1)
    return np.where(ok, pf, 0.0), np.where(ok, jac, 0.0), ok


def _screened_distance(lin: Linearization, displacement: np.ndarray) -> np.ndarray:
    """The tube distance at a stack of landings: the log displacement's
    component ``|Q* E* ell|`` normal to the variety, ``Q`` the QR factor of
    ``(D E)*`` (the row space of the class-constrained relator differential
    where ``D E`` has full rank), read from the landings' :class:`Linearization`.
    A QR does not raise on a reducible slice."""
    Q = np.linalg.qr(np.swapaxes(lin.D @ lin.E, -2, -1).conj())[0]
    # ell is real, so |Q* E* ell| = |ell^T E Q|
    return np.linalg.norm((displacement[..., None, :] @ lin.E @ Q)[..., 0, :], axis=-1)


@dataclass
class SampleRecords:
    """Per-sample diagnostics of one Monte Carlo stream.  ``projected`` marks
    the samples the stream projected: all of them for ``tube``, only those
    inside the gate for ``coarea``.  ``converged`` and ``displacement``, the
    screened distance, hold only where projected (False and inf elsewhere);
    ``irreducible``, ``density`` and ``jacobian`` only where ``evaluated``,
    the converged samples inside the stream's gate (False, 0, 0 elsewhere)."""

    projected: np.ndarray
    converged: np.ndarray
    evaluated: np.ndarray
    irreducible: np.ndarray
    initial_residual: np.ndarray
    displacement: np.ndarray
    density: np.ndarray
    jacobian: np.ndarray

    @property
    def n(self) -> int:
        return self.converged.shape[0]


# each estimator's gate, by its config key
GATE_NAMES = {"coarea": "residual_gate", "tube": "distance_gate"}


def sample_stream(problem: VarietyProblem, n_samples: int, seed: int,
                  estimator: str, gate: float) -> SampleRecords:
    """Haar-sample and project; screen every converged landing and evaluate
    :func:`landing_densities` where the estimator's gate accepts: initial
    residual within ``gate`` for ``coarea``, screened distance for ``tube``.

    The co-area gate is known before projection, so that stream projects
    only the samples inside it; a sample lands on the same bits in any
    batch.  Branch-cut nudges come from a child generator, so the Haar
    draws never depend on which samples a stream projects."""
    spec = problem.spec
    if spec.family != "SU":
        raise DimensionMismatchError(
            "volume estimation is defined for the SU family only")
    if estimator not in GATE_NAMES:
        raise ValueError(f"unknown estimator {estimator!r}")
    rng = np.random.default_rng(seed)
    nudges = rng.spawn(1)[0]  # spawning leaves rng's state as it is
    proj = np.zeros(n_samples, dtype=bool)
    conv = np.zeros(n_samples, dtype=bool)
    evald = np.zeros(n_samples, dtype=bool)
    irr = np.zeros(n_samples, dtype=bool)
    res0 = np.full(n_samples, np.inf)
    disp = np.full(n_samples, np.inf)
    dens = np.zeros(n_samples)
    jac = np.zeros(n_samples)
    gated = res0 if estimator == "coarea" else disp  # filled batch by batch
    z0i = lg.group_inverse(spec, problem.classes.target)
    done = 0
    while done < n_samples:
        nb = min(SAMPLE_BATCH, n_samples - done)
        init = problem.initial_batch(rng, nb)
        R0, rn0, f0 = _batch_residual(init, problem.classes, z0i)
        res0[done:done + nb] = rn0
        sel = (np.flatnonzero(rn0 <= gate) if estimator == "coarea"
               else slice(None))  # views: the tube stream projects the whole batch
        init, rows = init[sel], np.arange(done, done + nb)[sel]
        mats, _, _, ok = project_batch(init, problem.classes,
                                       tol=LANDING_TOL, max_iter=LANDING_MAX_ITER,
                                       rng=nudges, start=(R0[sel], rn0[sel], f0[sel]))
        del R0, rn0, f0  # freed before the landings' linearization: bounds the peak memory
        proj[rows], conv[rows] = True, ok
        mats, init, rows = mats[ok], init[ok], rows[ok]
        ell = _displacement_coords(spec, mats, init)
        lin = Linearization.at(mats, problem.classes)
        disp[rows] = _screened_distance(lin, ell)
        keep = np.flatnonzero(gated[rows] <= gate)
        lin, rows = lin.take(keep), rows[keep]  # only the gated landings go on
        evald[rows] = True
        for lo in range(0, keep.size, LANDING_CHUNK):
            at = slice(lo, lo + LANDING_CHUNK)
            dens[rows[at]], jac[rows[at]], irr[rows[at]] = landing_densities(lin.take(at))
        done += nb
    return SampleRecords(proj, conv, evald, irr, res0, disp, dens, jac)


def _estimate_from_records(problem: VarietyProblem, rec: SampleRecords,
                           estimator: str, gate: float) -> VolumeEstimate:
    """The estimate of a stream gated at ``gate``: it accepts the evaluated
    irreducible landings, weighted by ``pf * J`` (co-area) or ``pf`` (tube).
    A gate that takes every sample it sees leaves no usable landing."""
    codim = problem.spec.dim  # rank of the relator differential at irreducible points
    accept = rec.evaluated & rec.irreducible
    pf_weight = rec.density * rec.jacobian if estimator == "coarea" else rec.density
    weights = np.where(accept, pf_weight, 0.0) / ball_volume(codim, gate)
    landings = int(np.sum(accept))
    if landings < MIN_LANDINGS:
        raise InsufficientSamplesError(landings, MIN_LANDINGS)
    n = rec.n
    seen = rec.initial_residual if estimator == "coarea" else rec.displacement[rec.converged]
    if np.all(seen <= gate):  # every draw (co-area) or converged landing (tube) it saw
        raise InsufficientSamplesError(0, MIN_LANDINGS, (
            f"no usable landing: the {estimator} stream's {GATE_NAMES[estimator]}={gate} "
            f"took all {seen.size} samples it saw, so its estimate measures the gate"))
    value = float(np.mean(weights))
    stderr = float(np.std(weights, ddof=1) / math.sqrt(n))
    return VolumeEstimate(value, stderr, n,
                          f"{CONVENTION}; {estimator}({GATE_NAMES[estimator]}={gate})",
                          landings)


def cross_check(problem: VarietyProblem, n_samples: int, seed: int, *,
                residual_gate: float = 0.6, distance_gate: float = 0.45) -> dict:
    """Relative volume ``int pf O`` of one component by gated Haar sampling:
    both estimator variants on independent streams, plus agreement stats.

    SU family only.  Each value is relative to the Haar-probability
    baseline in the metric of the -trace(XY) pairing that
    :func:`liegroup.pairing` fixes on su(r), which the convention note
    names; see the module docstring for the two estimator variants.
    ``coarea_records`` holds the per-sample records of the co-area stream.
    """
    records = sample_stream(problem, n_samples, seed, "coarea", residual_gate)
    a = _estimate_from_records(problem, records, "coarea", residual_gate)
    b = _estimate_from_records(
        problem, sample_stream(problem, n_samples, seed + 1, "tube", distance_gate),
        "tube", distance_gate)
    sigma = math.hypot(a.stderr, b.stderr)
    gap = abs(a.value - b.value)
    return {
        "coarea": a,
        "tube": b,
        "difference": gap,
        "combined_stderr": sigma,
        "agree_3sigma": bool(gap <= 3.0 * sigma),
        "coarea_records": records,
    }

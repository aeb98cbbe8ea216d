"""Monte Carlo estimation of relative symplectic (Liouville) volumes of
moduli components.

The density against the Riemannian measure induced by the invariant
pairing is the Pfaffian of the form matrix over an orthonormal h1 basis
(sign fixed positive by orientation convention).  Two estimator variants
thicken the variety in different metrics and must agree:

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
on the ambient tuple space and the NegativeTraceForm metric scale (the
density scales by lambda^(dim h1 / 2) if the pairing is scaled by lambda).
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
from .twoform import form_gram_stack, form_on_cohomology
from .variety import (
    CohomologyBasis,
    ConjugacyClassSpec,
    RepresentationPoint,
    VarietyProblem,
    _batch_residual,
    boundary_slots,
    cohomology_split,
    project_batch,
)

MIN_LANDINGS = 30
LANDING_CHUNK = 1024  # landings per density call: bounds the peak memory
SAMPLE_BATCH = 2048  # Haar samples projected per project_batch call
LANDING_TOL = 1e-11  # Gauss-Newton residual at which a sample has landed
LANDING_MAX_ITER = 120


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


def liouville_density(p: RepresentationPoint, classes: ConjugacyClassSpec,
                      basis: CohomologyBasis | None = None) -> float:
    """sqrt(det Omega) over an orthonormal h1 basis, sign fixed positive.

    Requires an even h1 dimension; basis-rotation invariant because the
    determinant of a skew matrix is unchanged under orthogonal rotation.
    """
    return pfaffian_abs(form_on_cohomology(p, classes, basis))


def pfaffian_abs(omega: np.ndarray):
    """|Pf| of (a stack of) skew matrices via sqrt(det): a float for one
    matrix; :class:`OddDimensionError` on an odd size."""
    n = omega.shape[-1]
    if n % 2 != 0:
        raise OddDimensionError(f"skew matrix of odd size {n}")
    pf = np.sqrt(np.maximum(np.real(np.linalg.det(omega)), 0.0))
    return float(pf) if pf.ndim == 0 else pf


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
    must not abort the stream.
    """
    rel = final @ lg.group_inverse(spec, initial)
    L, bad = lg.principal_log(spec, rel)
    # the eigen-angles of the skew-Hermitian L are the eigenvalues of iL
    far = bad | (np.abs(np.linalg.eigvalsh(1j * L)).max(axis=-1) > 3.0)
    out = np.where(far[..., None], 2.0 * np.pi, lg.algebra_coords(spec, L))
    return out.reshape(rel.shape[:-3] + (rel.shape[-3] * spec.dim,))


def landing_densities(problem: VarietyProblem, mats: np.ndarray,
                      displacement: np.ndarray):
    """(pf, coarea_jacobian, irreducible, normal_distance) at a stack of landings.

    One :func:`cohomology_split`, cut at the ranks of an irreducible point
    ``rank(D E) = rank(E* C) = dim g``, and one form Gram serve the stack;
    a slice whose own ranks differ reads ``(0, 0, False, inf)``.  For a
    unitary representation the coboundary rank is ``dim g`` exactly when
    the commutant is the scalars: a larger commutant is a *-algebra, so it
    holds a non-scalar Hermitian ``H``, and ``i(H - tr H / r)`` is a nonzero
    traceless element centralizing the image, which the coboundary map kills.

    The tube distance is the log displacement's component normal to the
    variety (the row space of the constrained relator differential).
    """
    spec, d = problem.spec, problem.spec.dim
    g, m = problem.presentation.genus, problem.presentation.boundary_count
    basis, own = cohomology_split(spec, mats, g, m, problem.classes, ranks=(d, d))
    ok = (own[0][0] == d) & (own[1][0] == d)
    G = form_gram_stack(spec, mats, g, m, basis.h_coords, basis.h_coords,
                        boundary_slots(spec, mats, g, m, problem.classes))
    pf = pfaffian_abs(G)
    jac = np.prod(basis.dpi_singular_values[..., :d], axis=-1)
    normal = basis.normal_rows @ displacement[..., None]
    # a (1, d) @ (d, 1) product rounds like the one-landing vector norm
    ndist = np.sqrt(np.swapaxes(normal, -2, -1) @ normal)[..., 0, 0]
    return (np.where(ok, pf, 0.0), np.where(ok, jac, 0.0), ok,
            np.where(ok, ndist, np.inf))


@dataclass
class SampleRecords:
    """Per-sample diagnostics of one Monte Carlo stream."""

    converged: np.ndarray
    irreducible: np.ndarray
    initial_residual: np.ndarray
    displacement: np.ndarray
    density: np.ndarray
    jacobian: np.ndarray

    @property
    def n(self) -> int:
        return self.converged.shape[0]


def sample_stream(problem: VarietyProblem, n_samples: int, seed: int) -> SampleRecords:
    """Haar-sample, project, and record density data for every sample."""
    spec = problem.spec
    if spec.family != "SU":
        raise DimensionMismatchError(
            "volume estimation is defined for the SU family only")
    g = problem.presentation.genus
    m = problem.presentation.boundary_count
    rng = np.random.default_rng(seed)
    conv = np.zeros(n_samples, dtype=bool)
    irr = np.zeros(n_samples, dtype=bool)
    res0 = np.full(n_samples, np.inf)
    disp = np.full(n_samples, np.inf)
    dens = np.zeros(n_samples)
    jac = np.zeros(n_samples)
    z0i = lg.group_inverse(spec, problem.classes.target)
    done = 0
    while done < n_samples:
        nb = min(SAMPLE_BATCH, n_samples - done)
        init = np.stack([
            problem.random_initial(rng).mats for _ in range(nb)
        ]) if m > 0 else lg.haar_sample(spec, rng, size=(nb, 2 * g))
        R0, bad0 = _batch_residual(spec, init, g, m, z0i)
        r0 = np.where(bad0, np.inf, np.linalg.norm(R0, axis=-1))
        mats, rnorm, iters, ok = project_batch(
            spec, init, g, m, problem.classes, tol=LANDING_TOL,
            max_iter=LANDING_MAX_ITER, rng=rng)
        sl = slice(done, done + nb)
        conv[sl] = ok
        res0[sl] = r0
        ell = _displacement_coords(spec, mats, init)
        landed = np.nonzero(ok)[0]
        for part in np.split(landed, range(LANDING_CHUNK, landed.size, LANDING_CHUNK)):
            at = done + part
            dens[at], jac[at], irr[at], disp[at] = landing_densities(
                problem, mats[part], ell[part])
        done += nb
    return SampleRecords(conv, irr, res0, disp, dens, jac)


def _estimate_from_records(rec: SampleRecords, codim: int, estimator: str,
                           residual_gate: float, distance_gate: float,
                           convention_note: str) -> VolumeEstimate:
    good = rec.converged & rec.irreducible
    if estimator == "coarea":
        accept = good & (rec.initial_residual <= residual_gate)
        weights = np.where(accept, rec.density * rec.jacobian, 0.0)
        weights = weights / ball_volume(codim, residual_gate)
        gate_note = f"coarea(residual_gate={residual_gate})"
    elif estimator == "tube":
        accept = good & (rec.displacement <= distance_gate)
        weights = np.where(accept, rec.density, 0.0)
        weights = weights / ball_volume(codim, distance_gate)
        gate_note = f"tube(distance_gate={distance_gate})"
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    landings = int(np.sum(accept))
    if landings < MIN_LANDINGS:
        raise InsufficientSamplesError(landings, MIN_LANDINGS)
    n = rec.n
    value = float(np.mean(weights))
    stderr = float(np.std(weights, ddof=1) / math.sqrt(n))
    return VolumeEstimate(value, stderr, n,
                          f"{convention_note}; {gate_note}", landings)


def estimate_relative_volume(problem: VarietyProblem, n_samples: int, seed: int,
                             *, estimator: str = "coarea",
                             residual_gate: float = 0.6,
                             distance_gate: float = 0.45,
                             records: SampleRecords | None = None) -> VolumeEstimate:
    """Relative Liouville volume of one component by gated Haar sampling.

    SU family only.  The returned value is relative to the Haar-probability
    baseline in the NegativeTraceForm metric convention; see the module
    docstring for the two estimator variants.
    """
    if records is None:
        records = sample_stream(problem, n_samples, seed)
    codim = problem.spec.dim  # rank of the relator differential at irreducible points
    note = ("relative symplectic volume; Haar-probability ambient baseline; "
            "NegativeTraceForm metric")
    return _estimate_from_records(records, codim, estimator,
                                  residual_gate, distance_gate, note)


def cross_check(problem: VarietyProblem, n_samples: int, seed: int,
                **gate_kw) -> dict:
    """Both estimator variants on independent streams plus agreement stats.

    ``coarea_records`` holds the per-sample records of the co-area stream.
    """
    records = sample_stream(problem, n_samples, seed)
    a = estimate_relative_volume(problem, n_samples, seed, estimator="coarea",
                                 records=records, **gate_kw)
    b = estimate_relative_volume(problem, n_samples, seed + 1,
                                 estimator="tube", **gate_kw)
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

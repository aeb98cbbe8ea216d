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
from dataclasses import dataclass

import numpy as np

from . import liegroup as lg
from . import presentation as pres
from .errors import InsufficientSamplesError, OddDimensionError
from .twoform import form_on_cohomology
from .variety import (
    CohomologyBasis,
    ConjugacyClassSpec,
    RepresentationPoint,
    VarietyProblem,
    _batch_residual,
    cohomology_at,
    commutant_dimension,
    project_batch,
    split_rank,
)

MIN_LANDINGS = 30


@dataclass(frozen=True)
class VolumeEstimate:
    """A relative-volume estimate with its Monte Carlo error."""

    value: float
    stderr: float
    samples: int
    convention: str
    landings: int = 0

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "convention": self.convention,
            "landings": self.landings,
        }


def liouville_density(p: RepresentationPoint, classes: ConjugacyClassSpec,
                      basis: CohomologyBasis | None = None) -> float:
    """sqrt(det Omega) over an orthonormal h1 basis, sign fixed positive.

    Requires an even h1 dimension; basis-rotation invariant because the
    determinant of a skew matrix is unchanged under orthogonal rotation.
    """
    if basis is None:
        basis = cohomology_at(p, classes)
    fm = form_on_cohomology(p, classes, basis)
    n = fm.entries.shape[0]
    if n % 2 != 0:
        raise OddDimensionError(f"h1 dimension {n} is odd")
    det = float(np.real(np.linalg.det(fm.entries)))
    return math.sqrt(max(det, 0.0))


def pfaffian_abs(omega: np.ndarray) -> float:
    """|Pf| of a skew matrix via sqrt(det); OddDimensionError on odd size."""
    n = omega.shape[0]
    if n % 2 != 0:
        raise OddDimensionError(f"skew matrix of odd size {n}")
    det = float(np.real(np.linalg.det(omega)))
    return math.sqrt(max(det, 0.0))


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


def _point_density(problem: VarietyProblem, mats: np.ndarray,
                   displacement: np.ndarray):
    """(pf, coarea_jacobian, irreducible, normal_distance) at one landing.

    The tube distance is the component of the log displacement normal to
    the variety at the foot point (the row space of the constrained
    relator differential); the solver's tangential wander does not count
    as distance to the variety.
    """
    spec = problem.spec
    if commutant_dimension(spec, mats) != 1:
        return 0.0, 0.0, False, np.inf
    t = pres.GeneratorTuple(spec, problem.presentation.genus,
                            problem.presentation.boundary_count, mats)
    p = RepresentationPoint(t, 0.0)
    basis = cohomology_at(p, problem.classes)
    rank, _, _ = split_rank(basis.dpi_singular_values)
    jac = float(np.prod(basis.dpi_singular_values[:rank]))
    pf = liouville_density(p, problem.classes, basis)
    ndist = float(np.linalg.norm(basis.normal_rows @ displacement))
    return pf, jac, True, ndist


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


def sample_stream(problem: VarietyProblem, n_samples: int, seed: int,
                  *, tol: float = 1e-11, max_iter: int = 120,
                  batch: int = 2048) -> SampleRecords:
    """Haar-sample, project, and record density data for every sample."""
    spec = problem.spec
    if spec.family != "SU":
        raise ValueError("volume estimation is defined for the SU family only")
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
        nb = min(batch, n_samples - done)
        init = np.stack([
            problem.random_initial(rng).mats for _ in range(nb)
        ]) if m > 0 else lg.haar_sample(spec, rng, size=(nb, 2 * g))
        R0, bad0 = _batch_residual(spec, init, g, m, z0i)
        r0 = np.where(bad0, np.inf, np.linalg.norm(R0, axis=-1))
        mats, rnorm, iters, ok = project_batch(
            spec, init, g, m, problem.classes, tol=tol,
            max_iter=max_iter, rng=rng)
        sl = slice(done, done + nb)
        conv[sl] = ok
        res0[sl] = r0
        ell = _displacement_coords(spec, mats, init)
        for i in np.nonzero(ok)[0]:
            pf, jj, isirr, ndist = _point_density(problem, mats[i], ell[i])
            irr[done + i] = isirr
            dens[done + i] = pf
            jac[done + i] = jj
            disp[done + i] = ndist
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

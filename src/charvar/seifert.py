"""Circle-bundle (Seifert) fundamental groups over surfaces and their
reduction to surface-group data with a central relator target.

The group is <a_1, b_1, ..., a_g, b_g, h | h central, commutator word = h^n>
with n the Euler number of the bundle.  An irreducible representation into
SU(r) or SL(r, C) sends the central fiber class h to a scalar zeta*I with
zeta^r = 1 (Schur plus det = 1), so each choice of zeta turns the problem
into a closed-surface relator equation with target zeta^n * I.  The sign
convention fixes the relation as h^{+n}; h -> h^{-1} gives the isomorphic
presentation with the opposite sign.

Only the regular / quasi-regular case (no orbifold cone points) is
modeled; cone points would add non-central boundary classes, which the
boundary-class machinery elsewhere in the package already supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liegroup as lg
from .liegroup import GroupSpec
from .presentation import SurfacePresentation, evaluate_relator
from .variety import ConjugacyClassSpec, RepresentationPoint, VarietyProblem


@dataclass(frozen=True)
class SeifertData:
    """Circle bundle of Euler number n over a closed genus-g surface, target rank r."""

    genus: int
    euler_number: int
    rank: int
    family: str = "SU"

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        if self.rank < 2:
            raise ValueError("rank must be >= 2")

    @property
    def group_spec(self) -> GroupSpec:
        return GroupSpec(self.family, self.rank)

    def to_json(self) -> dict:
        return {"g": self.genus, "n": self.euler_number, "r": self.rank}

    @classmethod
    def from_json(cls, data: dict) -> "SeifertData":
        return cls(int(data["g"]), int(data["n"]), int(data["r"]))


@dataclass(frozen=True)
class FiberHolonomy:
    """One allowed fiber holonomy scalar and its induced relator target."""

    index: int
    zeta: complex
    target: np.ndarray
    target_power: int

    def to_json(self) -> dict:
        return {
            "zeta": [self.zeta.real, self.zeta.imag],
            "target_power": self.target_power,
        }


def _root_of_unity(k: int, r: int) -> complex:
    return complex(np.exp(2j * np.pi * (k % r) / r))


def fiber_holonomy_candidates(d: SeifertData) -> list[FiberHolonomy]:
    """All zeta with zeta^r = 1, each tagged with its target zeta^n * I."""
    r = d.rank
    out = []
    for k in range(r):
        zeta = _root_of_unity(k, r)
        target = _root_of_unity(k * d.euler_number, r) * np.eye(r, dtype=complex)
        out.append(FiberHolonomy(k, zeta, target, d.euler_number))
    return out


def to_surface_problem(d: SeifertData, zeta: complex | FiberHolonomy):
    """Closed-surface data whose solutions are the representations with
    fiber holonomy zeta*I.

    Returns (SurfacePresentation, ConjugacyClassSpec); all two-form
    machinery applies unchanged to the resulting points.
    """
    cand = _resolve(d, zeta)
    spec = d.group_spec
    return (SurfacePresentation(d.genus, 0),
            ConjugacyClassSpec(spec, (), cand.target))


def variety_problem(d: SeifertData, zeta: complex | FiberHolonomy) -> VarietyProblem:
    presentation, classes = to_surface_problem(d, zeta)
    return VarietyProblem(d.group_spec, presentation, classes)


def _resolve(d: SeifertData, zeta) -> FiberHolonomy:
    if isinstance(zeta, FiberHolonomy):
        return zeta
    for cand in fiber_holonomy_candidates(d):
        if abs(cand.zeta - zeta) < 1e-8:
            return cand
    raise ValueError(f"{zeta} is not an order-{d.rank} root of unity")


def fiber_target_scalar(d: SeifertData, p: RepresentationPoint) -> complex | None:
    """The scalar lambda with relator value ~ lambda*I at the point.

    None when the relator value is not scalar to 1e-6 (the point is off
    every component).
    """
    P = evaluate_relator(p.tuple)
    r = d.rank
    lam = complex(np.trace(P) / r)
    if np.abs(P - lam * np.eye(r)).max() > 1e-6:
        return None
    return lam


def rigidity_check(d: SeifertData, zeta: complex | FiberHolonomy,
                   path: list[RepresentationPoint]) -> bool:
    """True iff the fiber holonomy target stays at zeta^n along the path.

    The finite-order central holonomy cannot deform, so a genuine
    random-walk of re-solves on one component keeps the target constant;
    a path that mixes components fails the check.  A point passes when its
    scalar is within ``max(100 TOL_GROUP, 10 residual)`` of zeta^n.
    """
    cand = _resolve(d, zeta)
    expected = complex(np.trace(cand.target) / d.rank)
    for p in path:
        lam = fiber_target_scalar(d, p)
        if lam is None or abs(lam - expected) > max(100 * lg.TOL_GROUP,
                                                     10 * p.residual_norm):
            return False
    return True

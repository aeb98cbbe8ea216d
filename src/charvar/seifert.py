"""Circle-bundle (Seifert) fundamental groups over surfaces and their
reduction to surface-group data with a central relator target.

The group is <a_1, b_1, ..., a_g, b_g, h | h central, commutator word = h^n>
with n the Euler number of the bundle.  An irreducible representation into
SU(r) or SL(r, C) sends the central fiber class h to a scalar zeta*I with
zeta^r = 1 (Schur plus det = 1), so each choice of zeta turns the problem
into a closed-surface relator equation with target zeta^n * I.  The sign
convention fixes the relation as h^{+n}; h -> h^{-1} gives the isomorphic
presentation with the opposite sign.

Only the regular case is modeled: a circle bundle over a closed surface,
with no orbifold cone points.  The quasi-regular case (Seifert fibrations
with cone points) would add non-central boundary classes, which the
boundary-class machinery elsewhere in the package already supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liegroup import GroupSpec
from .presentation import SurfacePresentation
from .variety import ConjugacyClassSpec, VarietyProblem


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


def variety_problem(d: SeifertData, cand: FiberHolonomy) -> VarietyProblem:
    """The closed-surface problem whose solutions are the representations
    with fiber holonomy ``cand.zeta * I``: genus g, no boundary, relator
    target ``cand.target``.  All two-form machinery applies unchanged to
    its points."""
    return VarietyProblem(d.group_spec, SurfacePresentation(d.genus, 0),
                          ConjugacyClassSpec(d.group_spec, (), cand.target))

"""Surface-group presentations with boundary, the relator word, its
differential, and the coboundary map.

Generator slots are ordered ``a_1, b_1, a_2, b_2, ..., a_g, b_g,
c_1, ..., c_m`` (2g + m slots).  The relator is

    Pi = c_m ... c_1 . (b_g^-1 a_g^-1 b_g a_g) ... (b_1^-1 a_1^-1 b_1 a_1),

evaluated right to left: a_1 acts first.  Spelled out in single letters
the word reads ``alpha_N ... alpha_1`` with the genus block
``(a_i, b_i, a_i^-1, b_i^-1)`` occupying letters 4i-3 .. 4i and the
boundary letters at the end; only letters 1, 2, 5, 6, ... (and the
boundary) are independent.  This letter order is load-bearing: the
partial products feeding the two-form depend on it (on SU(2) they recur
by first columns, see :func:`partial_products`).  One per-letter
transport (:func:`letter_transport`) serves both the relator differential
and the two-form; it reads 3g + m of the 4g + m + 1 partial products.

Tangent directions are coordinate stacks ``(..., n_slots*dim, k)`` in the
slot-major orthonormal algebra basis, right-trivialized: the component
H_s at slot s is the velocity of ``t -> exp(t H_s) . element_s``.  The left-trivialized
convention used by the two-form differs by Ad of the base point;
conversion happens at the form-evaluation boundary.

Low-level helpers take raw stacked arrays ``(..., n_slots, r, r)`` and
broadcast over leading batch axes; :class:`GeneratorTuple` wraps one tuple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import liegroup as lg
from .errors import DimensionMismatchError
from .liegroup import GroupSpec


class LetterTables(NamedTuple):
    """The relator spelled in single letters, rightmost first, as read-only
    index arrays.  Letter j (0-based) is ``alpha_{j+1}``; it reads f_{j+1},
    or f_j when it is an inverse letter, so none reads f_{4i}: 3g + m are read."""

    slots: np.ndarray      # each letter's slot: a_i -> 2i-2, b_i -> 2i-1, c_k -> 2g+k-1
    exponents: np.ndarray  # each letter's exponent, 1 or -1
    reads: np.ndarray      # the partial product each letter reads
    first: np.ndarray      # each slot's first letter
    inverse: np.ndarray    # each interior slot's inverse letter
    read: np.ndarray       # the partial products the letters read, ascending
    at: np.ndarray         # each letter's place in ``read``


@functools.lru_cache(maxsize=None)
def letter_tables(g: int, m: int) -> LetterTables:
    """The :class:`LetterTables` of genus g with m boundary letters."""
    letters = [(2 * i + s, e) for i in range(g) for e in (1, -1) for s in (0, 1)]
    letters += [(2 * g + k, 1) for k in range(m)]
    slots, exponents = np.array(letters).T
    reads = np.arange(len(letters)) + (exponents == 1)
    tables = LetterTables(slots, exponents, reads,
                          np.array([letters.index((s, 1)) for s in range(2 * g + m)]),
                          np.array([letters.index((s, -1)) for s in range(2 * g)]),
                          *np.unique(reads, return_inverse=True))
    for a in tables:
        a.flags.writeable = False
    return tables


def partial_products(spec: GroupSpec, mats: np.ndarray, g: int, m: int) -> np.ndarray:
    """f_0 = I, f_j = alpha_j ... alpha_1 over the letters alpha_j of
    :func:`letter_tables`; shape (..., N+1, r, r).

    On SU(2) only first columns ``c`` recur, by the multiply-adds of
    :func:`liegroup.mat_product`'s column 0 in its order; each second column
    is written as ``(-conj c_1, conj c_0)`` at the end.  That is the whole
    product bit for bit, but for the sign of an exactly cancelled zero, on
    generators ``[[a, -conj b], [b, conj a]]`` (Haar draws, exp steps and
    their products), and to rounding on others (``@`` class projections).
    """
    tables = letter_tables(g, m)
    r = spec.rank
    su2 = spec.family == "SU" and r == 2
    inv = lg.group_inverse(spec, mats)
    f = np.empty(mats.shape[:-3] + (len(tables.slots) + 1, r, r), dtype=complex)
    f[..., 0, :, :] = lg.identity(r)
    c = f[..., :, :, 0]  # (..., N+1, r): the first columns
    for j, (s, e) in enumerate(zip(tables.slots, tables.exponents)):
        a = (mats if e == 1 else inv)[..., s, :, :]
        if su2:
            np.multiply(a[..., :, 0], c[..., j, :1], out=c[..., j + 1, :])
            c[..., j + 1, :] += a[..., :, 1] * c[..., j, 1:]
        else:
            lg.mat_product(a, f[..., j, :, :], out=f[..., j + 1, :, :])
    if su2:
        np.negative(c[..., 1:, 1].conj(), out=f[..., 1:, 0, 1])
        np.conjugate(c[..., 1:, 0], out=f[..., 1:, 1, 1])
    return f


def letter_transport(spec: GroupSpec, f: np.ndarray, g: int, m: int) -> np.ndarray:
    """Per-letter operators moving a right-trivialized slot component to the
    start of the word, where the two-form pairs letter components.

    Letter j at slot s carries
        alpha_j = s:     T_j =  Ad(f_j^-1)
        alpha_j = s^-1:  T_j = -Ad(f_{j-1}^-1)
    (the left-trivialized letter component, Ad(s^-1) H or -H, transported
    by Ad(f_{j-1}^-1), with f_j^-1 = f_{j-1}^-1 s^-1 for a direct letter).
    ``f`` holds the :func:`partial_products` of the tuples; returns T of
    shape (..., N, dim, dim).
    """
    tables = letter_tables(g, m)
    T = lg.adjoint_matrix(spec, lg.group_inverse(
        spec, f[..., tables.read, :, :]))[..., tables.at, :, :]
    T[..., tables.inverse, :, :] *= -1
    return T


def relator_differential_matrix(spec: GroupSpec, T: np.ndarray, Pi: np.ndarray,
                                g: int, m: int) -> np.ndarray:
    """Differential of Pi in right trivialization, as a coordinate matrix.

    Shape (..., dim, n_slots*dim): maps stacked right-trivialized slot
    coordinates to the algebra coordinates of (d/dt Pi) Pi^-1.  The suffix
    alpha_N ... alpha_{j+1} is Pi f_j^-1, so slot s contributes
    Ad(Pi) sum_{j at s} T_j, from the :func:`letter_transport` ``T`` and
    the relator value ``Pi`` (..., r, r) of the tuples.
    """
    n, d = 2 * g + m, spec.dim
    tables = letter_tables(g, m)
    sums = T[..., tables.first, :, :]
    sums[..., : 2 * g, :, :] += T[..., tables.inverse, :, :]
    blocks = lg.adjoint_matrix(spec, Pi[..., None, :, :]) @ sums  # (..., n, d, d)
    return np.moveaxis(blocks, -3, -2).reshape(T.shape[:-3] + (d, n * d))


def coboundary_matrix(spec: GroupSpec, mats: np.ndarray) -> np.ndarray:
    """Coordinate matrix of X -> (X - Ad(rho(s)) X)_s, shape (..., n*dim, dim)."""
    blocks = np.eye(spec.dim) - lg.adjoint_matrix(spec, mats)  # (..., n, d, d)
    return blocks.reshape(blocks.shape[:-3] + (-1, spec.dim))


@dataclass(frozen=True)
class GeneratorTuple:
    """A point of G^{2g} x G^m: the images of the 2g + m generators."""

    spec: GroupSpec
    genus: int
    boundary_count: int
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = 2 * self.genus + self.boundary_count
        r = self.spec.rank
        mats = np.asarray(self.mats, dtype=complex)
        if mats.shape != (n, r, r):
            raise DimensionMismatchError(
                f"expected mats of shape {(n, r, r)}, got {mats.shape}"
            )
        object.__setattr__(self, "mats", mats)

    @property
    def n_generators(self) -> int:
        return 2 * self.genus + self.boundary_count

    def a(self, i: int) -> np.ndarray:
        return self.mats[2 * i]

    def b(self, i: int) -> np.ndarray:
        return self.mats[2 * i + 1]

    def c(self, k: int) -> np.ndarray:
        return self.mats[2 * self.genus + k]

    @classmethod
    def from_parts(cls, spec, a, b, c=()):
        a, b, c = list(a), list(b), list(c)
        if len(a) != len(b):
            raise DimensionMismatchError("need as many a's as b's")
        mats = []
        for ai, bi in zip(a, b):
            mats += [ai, bi]
        mats += c
        return cls(spec, len(a), len(c), np.array(mats, dtype=complex))

    @classmethod
    def identity(cls, spec, genus, boundary_count=0):
        n = 2 * genus + boundary_count
        mats = np.broadcast_to(lg.identity(spec.rank), (n, spec.rank, spec.rank)).copy()
        return cls(spec, genus, boundary_count, mats)

    def replace_mats(self, mats: np.ndarray) -> "GeneratorTuple":
        return GeneratorTuple(self.spec, self.genus, self.boundary_count, mats)

    def to_json(self) -> dict:
        g, m = self.genus, self.boundary_count
        return {
            "g": g,
            "m": m,
            "a": [lg.matrix_to_json(self.a(i)) for i in range(g)],
            "b": [lg.matrix_to_json(self.b(i)) for i in range(g)],
            "c": [lg.matrix_to_json(self.c(k)) for k in range(m)],
        }

    @classmethod
    def from_json(cls, spec: GroupSpec, data: dict) -> "GeneratorTuple":
        a = [lg.matrix_from_json(x) for x in data["a"]]
        b = [lg.matrix_from_json(x) for x in data["b"]]
        c = [lg.matrix_from_json(x) for x in data.get("c", [])]
        if len(a) != int(data["g"]) or len(c) != int(data["m"]):
            raise DimensionMismatchError("generator counts disagree with g, m")
        return cls.from_parts(spec, a, b, c)


# ---------------------------------------------------------------------------
# spec-facing operations
# ---------------------------------------------------------------------------

def evaluate_relator(t: GeneratorTuple) -> np.ndarray:
    """The relator word at the tuple, rightmost factor first."""
    return partial_products(t.spec, t.mats, t.genus, t.boundary_count)[-1]

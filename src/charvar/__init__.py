"""charvar: character varieties of surface and circle-bundle groups as
explicit matrix-tuple manifolds, with the symplectic two-form on them.

Workflow: pick a :class:`GroupSpec`, fix the boundary classes and the
relator target in a :class:`ConjugacyClassSpec`, and pair it with a genus
in a :class:`VarietyProblem` (or reduce :class:`SeifertData` through
:func:`variety_problem`); solve for a point of the variety with
:meth:`VarietyProblem.solve`, split the tangent directions with
:func:`cohomology_at`, and evaluate or certify the two-form with the
``twoform`` operations.  ``volume`` adds Monte Carlo Liouville-volume
estimation, and the ``charvar`` CLI wraps everything for batch runs.
"""

from .errors import (
    CharvarError,
    ConfigError,
    DimensionMismatchError,
    InsufficientSamplesError,
    NoConvergenceError,
    NotClassTangentError,
    OddDimensionError,
    OutsideDomainError,
    RankDeficiencyWarning,
)
from .liegroup import (
    GroupSpec,
    adjoint_matrix,
    algebra_basis,
    algebra_coords,
    coords_to_algebra,
    exp,
    haar_sample,
    pairing,
    random_algebra,
)
from .presentation import (
    GeneratorTuple,
    evaluate_relator,
)
from .seifert import (
    FiberHolonomy,
    SeifertData,
    fiber_holonomy_candidates,
    variety_problem,
)
from .twoform import kernel_of_form
from .variety import (
    CohomologyBasis,
    ConjugacyClassSpec,
    RepresentationPoint,
    VarietyProblem,
    cohomology_at,
    is_irreducible,
)
from .volume import VolumeEstimate, cross_check

__version__ = "0.1.0"

"""charvar: character varieties of surface and circle-bundle groups as
explicit matrix-tuple manifolds, with the symplectic two-form on them.

Workflow: pick a :class:`GroupSpec` and a :class:`SurfacePresentation`
(or :class:`SeifertData` reduced through :func:`to_surface_problem`),
project a seed tuple onto the variety with :func:`project_to_variety`,
split the tangent directions with :func:`cohomology_at`, and evaluate or
certify the two-form with the ``twoform`` operations.  ``volume`` adds
Monte Carlo Liouville-volume estimation, and the ``charvar`` CLI wraps
everything for batch runs.
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
    NEGATIVE_TRACE_FORM,
    TRACE_FORM,
    GroupSpec,
    adjoint,
    adjoint_matrix,
    algebra_basis,
    algebra_coords,
    coords_to_algebra,
    exp,
    haar_sample,
    log_near_identity,
    pairing,
    pairing_norm,
    random_algebra,
)
from .presentation import (
    GeneratorTuple,
    SurfacePresentation,
    TangentVector,
    apply_relator_differential,
    coboundary,
    conjugate_tuple,
    evaluate_relator,
    random_tangent,
    relator_differential,
)
from .seifert import (
    FiberHolonomy,
    SeifertData,
    fiber_holonomy_candidates,
    rigidity_check,
    to_surface_problem,
    variety_problem,
)
from .twoform import (
    closedness_sweep,
    form_on_cohomology,
    kernel_of_form,
    observed_order,
)
from .variety import (
    CohomologyBasis,
    ConjugacyClassSpec,
    RepresentationPoint,
    VarietyProblem,
    cohomology_at,
    conjugate_point,
    is_irreducible,
    perturb_point,
    project_to_variety,
)
from .volume import (
    VolumeEstimate,
    cross_check,
    estimate_relative_volume,
    liouville_density,
)

__version__ = "0.1.0"

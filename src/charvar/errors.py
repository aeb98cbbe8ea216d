"""Exception and warning types shared across the package."""


class CharvarError(Exception):
    """Base class for all package errors."""


class OutsideDomainError(CharvarError):
    """Matrix logarithm requested outside the principal branch."""


class NoConvergenceError(CharvarError):
    """Iterative solve exhausted its budget.

    Carries ``iterations`` and ``final_residual`` for diagnostics.
    """

    def __init__(self, iterations, final_residual, message=None):
        self.iterations = iterations
        self.final_residual = final_residual
        if message is None:
            message = (
                f"no convergence after {iterations} iterations "
                f"(residual {final_residual:.3e})"
            )
        super().__init__(message)


class DimensionMismatchError(CharvarError):
    """Operands with incompatible shapes or group specs."""


class NotClassTangentError(CharvarError):
    """Boundary tangent component not in the image of Ad(c^-1) - 1."""


class OddDimensionError(CharvarError):
    """Pfaffian-type quantity requested for an odd-dimensional space."""


class InsufficientSamplesError(CharvarError):
    """Monte Carlo run produced too few usable landings."""

    def __init__(self, landed, required, message=None):
        self.landed = landed
        self.required = required
        super().__init__(message or
                         f"only {landed} irreducible landings (need at least {required})")


class ConfigError(CharvarError):
    """Invalid run configuration."""


class RankDeficiencyWarning(UserWarning):
    """Singular-value gap too small to split kernel from range reliably.

    Emitted near reducible or otherwise non-smooth points; results are
    still returned but rank-derived dimensions should not be trusted.
    """

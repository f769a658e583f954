"""Exception and warning types shared across the package."""


class UnsupportedOrderError(ValueError):
    """Hermite order outside the range the recurrence supports at double precision."""


class QuadratureConvergenceError(RuntimeError):
    """A quadrature result did not stabilize under node refinement."""


class GouyPathError(ValueError):
    """On-axis phase extraction requested for a mode whose axis field vanishes."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class NumericOverflowError(ArithmeticError):
    """Evaluation produced non-finite values (overflow guard)."""


class BranchCutWarning(UserWarning):
    """Evaluation point lies close to the complex square-root branch cut."""

"""Exception types shared across the package."""


class QWalkError(Exception):
    """Base class for all qwalk1d errors."""


class NormViolation(QWalkError, ValueError):
    """A vector that must have unit norm does not, beyond tolerance."""


class DegenerateCoin(QWalkError, ValueError):
    """Coin has a = 0 or b = 0 where both entries must be non-zero."""


class ParamViolation(QWalkError, ValueError):
    """Numeric parameters violate a required constraint (e.g. s^2 + t^2 = 1)."""


class ResourceLimit(QWalkError, RuntimeError):
    """A requested computation exceeds a configured size limit."""


class QuadratureDivergence(QWalkError, RuntimeError):
    """Coefficient-side and quadrature-side values of a convolution disagree."""


class QuadratureFailure(QWalkError, RuntimeError):
    """A quadrature did not reach its accuracy target within the refinement cap."""


class PathMismatch(QWalkError, RuntimeError):
    """The direct and closed-form paths produced different lattice windows."""


class RelationFailure(QWalkError, AssertionError):
    """One or more operator identities exceeded the residual tolerance."""

    def __init__(self, failing: dict, report: dict):
        self.failing = dict(failing)
        self.report = dict(report)
        names = ", ".join(f"{k} (residual {v:.3e})" for k, v in failing.items())
        super().__init__(f"operator identities failed: {names}")


class InvalidConfig(QWalkError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""

"""Exception types shared across the package."""


class CruiseOptError(Exception):
    """Base class for all package errors."""


class ModelInconsistencyError(CruiseOptError):
    """A performance-model evaluation produced a non-physical result."""


class DomainError(CruiseOptError):
    """An input lies outside the physically admissible domain."""


class ValidationError(CruiseOptError):
    """A configuration file or scenario failed schema/invariant validation."""


class IllConditionedSystemError(CruiseOptError):
    """The co-state linear system is too close to singular to trust.

    Carries the (scaled) determinant and a condition estimate so callers can
    distinguish proximity to the degenerate zero-weight regime from a genuine
    loss of singular-arc validity.
    """

    def __init__(self, det: float, cond: float, msg: str = ""):
        self.det = det
        self.cond = cond
        super().__init__(
            msg or f"co-state system ill-conditioned: det={det:.3e}, cond~{cond:.3e}"
        )


class SingularDenominatorError(CruiseOptError):
    """The denominator of the singular throttle feedback vanished."""


class DegenerateArcError(CruiseOptError):
    """The zero-weight throttle feedback denominator vanished."""


class DegenerateGeometryError(CruiseOptError):
    """Endpoint geometry leaves the initial heading undefined."""


class IntegrationError(CruiseOptError):
    """Trajectory integration failed; carries the failing time and the last
    finite state, which say where the rollout broke down."""

    def __init__(self, t: float, msg: str, last_state=None):
        self.t = t
        self.last_state = last_state
        super().__init__(f"integration failed at t={t:.3f} s: {msg}")

"""Exception hierarchy.

Physics-domain failures derive from :class:`PhysicsError`, configuration
failures from :class:`ConfigError`.  The CLI maps these onto exit codes
(2 for config, 3 for physics, 4 for IO).
"""


class OptoEprError(Exception):
    """Base class for all package errors."""


class PhysicsError(OptoEprError):
    """A physical precondition or solver contract was violated."""


class ConstraintViolated(PhysicsError):
    """Drive amplitudes violate the normal-mode balance conditions."""


class NoSteadyState(PhysicsError):
    """The steady-state self-consistency equation has no root in the physical bracket."""


class SignConventionViolated(PhysicsError):
    """Steady state landed outside the assumed operating point (Delta_1' < 0 < Delta_2', delta > 0)."""


class DegenerateResponse(PhysicsError):
    """The cavity response denominator vanished (parametric instability boundary)."""


class SingularDrift(PhysicsError):
    """The frequency-domain drift matrix is singular at the requested frequency."""


class NonConvergent(PhysicsError):
    """Adaptive refinement exceeded its point budget without converging."""


class NotSymmetricState(PhysicsError):
    """Covariance is too far from the symmetric form for the symmetric-state metrics."""


class DomainError(PhysicsError):
    """Metric evaluated outside its mathematical domain (e.g. EPR variance <= 0)."""


class BracketError(PhysicsError):
    """1-D optimisation bracket is invalid or the objective is not unimodal on it."""


class ConfigError(OptoEprError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """Malformed line or a quantity given twice in a layer; carries its line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnitError(ConfigError):
    """Known quantity given without a recognised unit suffix."""


class UnknownKey(ConfigError):
    """Key does not name any configurable quantity."""


class ParameterError(ConfigError, ValueError):
    """A parameter value lies outside the domain the model is defined on.

    Also a ValueError, so library callers that validate by hand keep working.
    """

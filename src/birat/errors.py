"""Exception types shared across the package."""


class BiratError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(BiratError, ValueError):
    """A state vector or tensor does not match the field dimension."""


class SingularStepMatrix(BiratError):
    """The linear system of an implicit step is singular at the current state."""


class NonFiniteState(BiratError):
    """A map step produced a state with a NaN or infinite component."""


class PoleAtTwoOverH(BiratError, ZeroDivisionError):
    """The multiplier map has a pole: h*lambda equals 2."""


class NotASteadyState(BiratError, ValueError):
    """A point handed to a fixed-point routine is not a zero of the field."""


class ConstraintViolation(BiratError, ValueError):
    """Scheme parameters violate one of the defining sum constraints."""


class NotBirational(BiratError):
    """Neither elimination order yields a linear solvable relation."""


class DegenerateLinearTerm(BiratError):
    """The eliminated relation has no usable linear term; the map is undefined here."""


class SingularImplicitSystem(BiratError):
    """The implicit-function system for the step Jacobian is singular."""


class DenominatorVanishes(BiratError, ZeroDivisionError):
    """A closed-form update hits a vanishing denominator."""


class PoleError(BiratError, ZeroDivisionError):
    """Evaluation at a pole of a rational expression."""


class DomainError(BiratError, ValueError):
    """Argument outside the mathematical domain of the function."""

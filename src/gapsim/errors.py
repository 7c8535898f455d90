"""Exception types shared across the package."""

from __future__ import annotations


class GapsimError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(GapsimError):
    """Malformed shape: non-square matrix, index out of range, bad field."""


class AmplitudeError(GapsimError):
    """Transition entry outside the allowed numerator set."""


class ModelError(GapsimError):
    """A validated model invariant fails (orthogonality, condition shape)."""


class BoundsError(GapsimError):
    """Step count past the declared running-time bound."""


class ResourceError(GapsimError):
    """A cap was exceeded; the one refusal text names the value, the cap and its knob."""

    def __init__(self, what: str, value, cap: int, knob: str):
        super().__init__(f"{what} {value} exceeds the cap {cap} (raise {knob})")


class DecodeError(GapsimError):
    """A string does not decode as a pair code or binary string."""


class OracleError(GapsimError):
    """Oracle assignment not total on the queried universe."""


class DomainError(GapsimError):
    """Condition consulted at a length outside its domain."""


class ParseError(GapsimError):
    """Input file violates its documented format."""


class PromiseViolation(GapsimError):
    """A promise required by a construction fails; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class CategoricalityError(PromiseViolation):
    """An oracle machine leaves the promise interval under some assignment."""

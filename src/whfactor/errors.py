"""Exception types shared by all modules.

Failures that are *results* (a corona tuple with a common zero, a
frequency-gap violation) are returned as values, not raised; the
exceptions below signal violated preconditions or inputs outside the
exact fragment the library handles.
"""


class WHError(Exception):
    """Base class for all library errors."""


class ZeroDenominator(WHError):
    """Denominator polynomial is identically zero."""


class ShapeMismatch(WHError):
    """Matrix dimensions incompatible with the requested operation."""


class NotALeftInverse(WHError):
    """A claimed one-sided inverse fails its defining identity."""


class BezoutCertificateInvalid(WHError):
    """Supplied coefficients do not combine the minors to 1."""


class MembershipViolation(WHError):
    """An element lies outside the algebra required by the operation."""


class RootClassificationAmbiguous(WHError):
    """A root is within tolerance of the boundary but not exactly on it.

    The caller must refuse to factor rather than guess a half-plane.
    """


class FactorizationInexact(WHError):
    """Roots could not be pinned to exact Gaussian rationals.

    Raised by operations whose output must reconstruct the input by
    exact arithmetic.
    """


class SymbolSingularOnLine(WHError):
    """The symbol has a zero or pole on the extended real line."""

    def __init__(self, witness=None, message=None):
        self.witness = witness
        super().__init__(message or f"symbol singular on the line at {witness}")


class RealPole(WHError):
    """A pole on the (extended) real line where boundedness is required."""


class HypothesisViolation(WHError):
    """A structural hypothesis of a factorization route fails."""


class RHResidualNonzero(HypothesisViolation):
    """The boundary-relation residual G*phi_plus - phi_minus is nonzero."""


class IndexNonzero(WHError):
    """Operation requires a canonical factorization (all indices zero)."""


class NotUnitary(WHError):
    """Matrix fails the exact unitarity identity on the line."""


class NotOrthogonal(WHError):
    """Matrix fails the exact complex-orthogonality identity."""


class ShapeViolation(WHError):
    """Input does not have the row/column structure the operation needs."""


class ZeroInput(WHError):
    """Operation undefined for the zero element."""


class CertificateInvalid(WHError):
    """A supplied structural certificate fails its recheck."""


class NearZeroOnContour(WHError):
    """Numeric winding cannot proceed: the symbol nearly vanishes on the contour."""


class FloatRangeExceeded(WHError):
    """An exact value lies beyond the float range, so no numeric step can
    take it in."""

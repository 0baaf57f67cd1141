"""Exception types shared across the package."""


class HrnrError(Exception):
    """Base class for all package errors."""


class ModelFormatError(HrnrError):
    """Malformed model/matrix JSON or an invalid model description."""


class NotNormal(HrnrError):
    """Matrix does not commute with its adjoint within tolerance."""


class EigFailure(HrnrError):
    """Underlying eigensolver failed to converge."""


class InvariantViolation(HrnrError):
    """A computed object failed a check it must pass (e.g. a dilation is not
    unitary); raised instead of ``assert`` so the check survives ``python -O``."""


class UncertainGeometry(HrnrError):
    """A sign test fell inside the tolerance band and no rule resolves it."""


class RankExceedsDimension(HrnrError, ValueError):
    """Rank exceeds the dimension the model or matrix carries (k = inf on a
    finite model included); a ``ValueError`` too, like any invalid rank."""


class NotSelfAdjoint(HrnrError):
    """Model support is not contained in the real axis."""


class NotContraction(HrnrError):
    """Operator norm exceeds 1 beyond tolerance."""


class NotStrictContraction(HrnrError):
    """Spectral mass is not confined to the unit disk."""


class NoSeparatingAngle(HrnrError):
    """No rotation angle separates the point from the k-th support level."""


class NoWuWitness(HrnrError):
    """No critical-direction closed half plane has deficient dimension."""


class AtomNotStrictContraction(HrnrError):
    """An atom sits on or outside the unit circle, blocking a 2x2 dilation."""


class NotOnSegment(HrnrError):
    """Point is not on the closed segment joining the two circle points."""


class CoincidentEndpoints(HrnrError):
    """The two unimodular endpoints coincide; the chord is degenerate."""

"""Exception types raised across the library."""


class NcframeError(Exception):
    """Base class for all ncframe-specific errors."""


class ConstraintViolation(NcframeError, ValueError):
    """A group-element constructor received data violating its defining constraint."""


class NonFiniteInput(NcframeError, ValueError):
    """Input data contains a NaN or infinite entry."""


class NonUnitAxis(NcframeError):
    """Rotation/boost axis is not a real unit vector."""


class NotPureElement(NcframeError):
    """Element is neither a pure rotation nor a pure boost."""


class NotAntisymmetric(NcframeError):
    """4x4 parameter matrix is not antisymmetric within tolerance."""


class IsotropicInput(NcframeError):
    """Operation defined only for vectors with nonzero bilinear square."""


class NotUnitDelta(NcframeError):
    """Direction vector does not have bilinear square equal to one."""


class NotIsotropic(NcframeError):
    """Operation defined only for vectors with vanishing bilinear square."""


class ZeroVector(NcframeError):
    """Operation requires a nonzero vector."""


class DegenerateDelta(NcframeError):
    """Reduction to real form failed on degenerate input."""


class NotIsotropicElement(NcframeError):
    """Element is not of the isotropic family (scalar part +-1, null vector part)."""

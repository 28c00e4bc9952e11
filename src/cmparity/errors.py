"""Exception types shared across the package."""


class DegenerateLatticeError(ValueError):
    """Raised when alleged lattice generators are linearly dependent over Q."""


class NotInGroupError(ValueError):
    """Raised when a matrix is outside the odd-denominator, positive
    odd-unit-determinant group required for odd-degree isogeny constructions."""


class NotRealJError(ValueError):
    """Raised when a point off the real-j locus is passed where a real
    j-invariant is required."""


class BadBaseError(ValueError):
    """Raised when a density run is configured with a base point of the wrong
    shape or parity for the requested mode."""


class InternalCheckError(RuntimeError):
    """A computed invariant that should hold unconditionally failed; signals a
    defect, not bad input."""

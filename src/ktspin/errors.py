"""Exception types shared across the package."""


class KtspinError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveGap(KtspinError):
    """A vertex field strength is zero or negative."""


class DanglingVertexId(KtspinError):
    """An edge endpoint or vertex id falls outside the dense id range."""


class SelfLoop(KtspinError):
    """An edge connects a vertex to itself."""


class ParseError(KtspinError):
    """Malformed model file or operator expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EmptySet(KtspinError):
    """A vertex set that must be nonempty is empty."""


class TooManyQubits(KtspinError):
    """Model exceeds the size cap for dense reference computations."""


class OrthogonalToVacuum(KtspinError):
    """State has no overlap with the all-zero configuration."""


class NonPositivePrecision(KtspinError):
    """A requested precision or order target is not positive."""


class NonFiniteStrength(KtspinError):
    """A perturbation strength is NaN or infinite."""


class InvalidThreshold(KtspinError):
    """A coefficient threshold is not a finite number >= 0."""


class InvalidObservable(KtspinError):
    """Observable matrix is not Hermitian or has the wrong shape."""

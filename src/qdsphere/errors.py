"""Exception types shared across the package."""


class QdError(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(QdError):
    pass


class ConvergenceFailure(QdError):
    pass


class NotCoprime(QdError):
    pass


class WrongOrder(QdError):
    pass


class NotFiniteCritical(QdError):
    pass


class GuardViolation(QdError):
    pass


class StartTooClose(QdError):
    pass


class DirectionIndexError(QdError, IndexError):
    pass


class PoleOnPath(QdError):
    pass


class DriftExceeded(QdError):
    """Traced ray violated the imaginary-part drift bound; result untrustworthy."""


class BranchAmbiguity(QdError):
    pass


class ConstantRational(QdError):
    pass


class WrongProvenance(QdError):
    pass


class EmptyLevel(QdError):
    pass


class PathBlocked(QdError):
    pass


class ResidueObstruction(QdError):
    """Level values disagree between homotopically different paths: round
    the pole at, Im of the integral changes by gap = 2*pi*|Re Res(sqrt(phi))|,
    from the closed-form residue (qdiff.squared_residue), not measured."""

    def __init__(self, message, gap=None, at=None):
        super().__init__(message)
        self.gap = gap
        self.at = at


class SchemaError(QdError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class DegreeCap(SchemaError):
    def __init__(self, field, degree, cap):
        super().__init__(field, f"degree {degree} exceeds cap {cap}")
        self.degree = degree
        self.cap = cap

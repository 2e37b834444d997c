"""Exception hierarchy shared across the package.

Every error raised by qcbounds derives from :class:`QcboundsError`, so
callers (including the command line tool) can catch one base class.
"""


class QcboundsError(Exception):
    """Base class for all qcbounds errors."""


class NonFinite(QcboundsError):
    """An input array contains NaN or infinity."""


class NotHermitian(QcboundsError):
    """A matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(QcboundsError):
    """An eigenvalue is negative beyond the clamp window."""


class TraceNotOne(QcboundsError):
    """A density matrix trace differs from one beyond tolerance."""


class DimensionMismatch(QcboundsError):
    """Operands have incompatible shapes."""


class InvalidDimension(QcboundsError):
    """A requested matrix dimension is out of range."""


class InvalidRank(QcboundsError):
    """A requested state rank is out of range for the dimension."""


class InvalidSpectrum(QcboundsError):
    """A spectrum is unordered, negative, or not normalised."""


class DegenerateCoefficient(QcboundsError):
    """Flagged-infinite bound coefficient with a trace term not below a floor.

    Raised when the refined coefficient's denominator falls below
    ``bounds.DEGENERATE_DENOMINATOR`` while the modulus of the matching
    trace term is at least ``bounds.DEGENERATE_TERM``.  Valid input
    reaches it, on near-uniform spectra at |q| close to 1, where the
    bound is finite.
    """


class DomainError(QcboundsError):
    """A scalar argument lies outside the function's domain."""


class BudgetZero(QcboundsError):
    """A search was requested with no evaluation budget."""


class MasterInequalityViolation(QcboundsError):
    """A checked instance broke the variance-product lower bound."""


class InstanceFormatError(QcboundsError):
    """A serialised instance document is malformed."""

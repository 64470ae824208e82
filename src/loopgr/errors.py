"""Exception hierarchy, with the CLI exit code attached to each class."""

from __future__ import annotations

DEFAULT_PRECISION = 16  # working precision of a call that names none
MAX_PRECISION = 4096  # largest working precision accepted or suggested
MAX_DIGITS = 4300  # most digits of a numerator or denominator in a rational literal


class Error(Exception):
    """Base class for all loopgr errors."""

    exit_code = 1
    suggested_precision: int | None = None  # a retry precision that may help


class SchemaError(Error):
    """Input JSON does not match the documented schema."""

    exit_code = 2


class PrecisionError(Error):
    """A result cannot be certified from the known coefficient windows."""

    exit_code = 3


class ZeroToPrecision(PrecisionError):
    """Every known coefficient vanishes, so the operation is undecidable."""


class UndetectableValuation(PrecisionError):
    """No nonzero coefficient inside the known window."""


class InsufficientPrecision(PrecisionError):
    """Retryable precision failure.  The suggested retry precision is twice
    the precision in use (DEFAULT_PRECISION when None), and None when that
    would exceed MAX_PRECISION."""

    def __init__(self, message: str, precision: int | None = None):
        super().__init__(message)
        suggested = 2 * (precision or DEFAULT_PRECISION)
        self.suggested_precision = suggested if suggested <= MAX_PRECISION else None


class UnboundedPole(PrecisionError):
    """No finite pole bound can be certified for a loop matrix."""


class SingularToPrecision(Error):
    """A matrix is singular as far as the known windows can tell."""

    exit_code = 4


class DomainError(Error):
    """Input outside the mathematical domain of the operation."""

    exit_code = 5


class UnsupportedRank(DomainError, NotImplementedError):
    """The operation is implemented for rank 2 only."""


class BackendMismatch(DomainError):
    """Operands live over different coefficient backends."""


class NonUnitLeading(DomainError):
    """Leading coefficient is not a unit, so no inverse exists here."""


class MarkedPointError(DomainError):
    """Marked points must be pairwise distinct with unit differences."""


class InconsistentH0(DomainError):
    """No splitting type fits the section counts; indicates a bug upstream."""

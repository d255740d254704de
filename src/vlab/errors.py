"""Domain exceptions shared across the package."""


class VlabError(Exception):
    """Base class for all domain errors."""


class UnsupportedSpec(VlabError):
    """A real-number specification names an unknown kind or constant."""


class InsufficientDigits(VlabError):
    """A decimal specification carries fewer digits than the requested precision."""


class PrecisionExhausted(VlabError):
    """A comparison stayed undecidable up to the configured precision cap."""


class ZeroPolynomial(VlabError):
    """An operation received the identically zero polynomial."""


class RootCountMismatch(VlabError):
    """A certified root structure (count or location) failed to verify."""


class NoSignChange(VlabError):
    """A bisection bracket has equal signs at both endpoints."""


class NoRootInRange(VlabError):
    """A root was requested in an interval that provably contains none."""


class ExactZeroDetected(VlabError):
    """A polynomial value is exactly zero: the number is algebraic of low degree."""

    def __init__(self, message, poly=None):
        super().__init__(message)
        self.poly = poly


class DegreeOverflow(VlabError):
    """A polynomial exceeds the ambient degree of a linear-algebra operation."""


class IndexOutOfRange(VlabError):
    """A sequence index falls outside the computed record range."""


class DependentBase(VlabError):
    """Two polynomials expected to be independent are proportional."""


class DegenerateRecords(VlabError):
    """Consecutive records violate the height/value monotonicity contract."""


class BudgetExceeded(VlabError):
    """An enumeration would evaluate more candidates than the configured budget."""


class EmptyInput(VlabError):
    """An operation received an empty sequence."""

"""Best approximation polynomials: verified search and exponent data."""

from .records import BestApproxRecord, SequenceData, SequenceEstimates
from .search import best_approx_sequence, min_poly_at_height
from .exponents import derive_exponents

__all__ = [
    "BestApproxRecord",
    "SequenceData",
    "SequenceEstimates",
    "best_approx_sequence",
    "min_poly_at_height",
    "derive_exponents",
]

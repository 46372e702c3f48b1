"""Exception types shared across the package."""

from __future__ import annotations


class SkewgrassError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SkewgrassError):
    """Input data violates a structural requirement.

    ``path`` locates the offending value in a JSON document when the error
    comes from document ingestion (for example ``blocks[0].algebra.field``).
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class AlgebraDataError(SkewgrassError):
    """A structure-constant table failed a division-algebra requirement.

    Raised lazily, when an element that should be invertible is not; the
    message names the witness element.
    """


class SingularMatrixError(SkewgrassError):
    """A square matrix over a division algebra has no inverse."""


class IncompleteLiftTableError(ValidationError):
    """A needed center automorphism has no representative in the lift table."""


class SearchExhausted(SkewgrassError):
    """A random sampler (random_subspace, random_invertible) hit its draw budget.

    search_free turns this into an 'inconclusive' certificate that keeps the
    samples spent and the ideals found so far; it is never a certified
    negative.
    """

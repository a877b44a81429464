"""Exception types shared across the package.

Everything here is a subclass of :class:`BorderlabError`, so callers can
catch the whole family at once.  Errors that carry diagnostic payloads
(offending position, achievable precision, ...) expose them as attributes.
"""

from __future__ import annotations


class BorderlabError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatchError(BorderlabError):
    """Two values from different coefficient fields were combined."""


class PrecisionError(BorderlabError):
    """A result cannot be certified at the available truncation order.

    Typical causes: a pivot candidate that is zero to the working precision
    but not exactly zero, or a series whose valuation cannot be read off.
    """


class SingularError(BorderlabError):
    """A matrix that had to be invertible has exactly zero determinant."""


class ShapeError(BorderlabError):
    """Dimension mismatch between operands."""


class SchemaError(BorderlabError):
    """An input document does not have the shape its schema requires."""


class NoLimitError(BorderlabError):
    """A one-parameter-subgroup limit does not exist.

    Attributes
    ----------
    position : tuple | None
        A tensor position witnessing the failure (1-based).
    weight : int | None
        The offending weight (negative for a t->0 limit, positive for a
        t->inf one).
    """

    def __init__(self, message: str, position=None, weight=None):
        super().__init__(message)
        self.position = position
        self.weight = weight


class WitnessVerificationFailure(BorderlabError):
    """A clause of a witness that ``build_witness`` constructed fails; the CLI exits 1 (refuted)."""


class PlacementError(BorderlabError):
    """The full-rank blocks do not fit inside the ambient dimensions."""


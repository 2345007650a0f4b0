"""Exception and warning types shared across the package.

Everything raised deliberately by this package derives from
:class:`SegEvalError`, so callers (and the CLI) can distinguish our
diagnostics from genuine bugs.
"""

from __future__ import annotations


class SegEvalError(Exception):
    """Base class for all errors raised by seg_eval."""


class FormatError(SegEvalError):
    """A file is not a well-formed NIfTI-1 image (bad magic, bad header)."""


class UnsupportedDataTypeError(FormatError):
    """The NIfTI datatype code is valid but not supported here."""


class TruncatedFileError(SegEvalError):
    """The image payload ends before the header-declared voxel count."""


class InvalidLabelError(SegEvalError):
    """A voxel carries a label outside the expected set."""

    def __init__(self, message: str, value: float | None = None,
                 coordinate: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.value = value
        self.coordinate = coordinate


class ShapeMismatchError(SegEvalError):
    """Two volumes that must share a grid do not."""


class ArityError(SegEvalError):
    """Too few inputs for an operation (masks, methods, subjects, pairs)."""


class DegenerateInputError(SegEvalError):
    """Inputs are formally valid but leave the operation undefined."""


class AllMissingError(SegEvalError):
    """Every contributing value for an aggregation cell is missing."""


class CapacityError(SegEvalError):
    """A phantom specification cannot be realised in the requested grid."""


class ParseError(SegEvalError):
    """A CSV/manifest cell could not be parsed.

    Carries the 1-based row number and the column name when known.
    """

    def __init__(self, message: str, row: int | None = None,
                 column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class EvaluationWarning(UserWarning):
    """Non-fatal oddity noticed during evaluation or aggregation."""

"""Exception types shared across the package.  The command line maps
:class:`ConfigError` to exit code 2, :class:`VerificationError` to 4 and
every other :class:`CompfeatError` to 3."""


class CompfeatError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CompfeatError):
    """Invalid experiment configuration (bad key, value out of range)."""


class DataError(CompfeatError):
    """Base class for malformed input: unreadable or non-UTF-8 files, malformed
    CSV, schema or estimate files, arrays of a wrong dtype or values out of range."""


class MissingColumnError(DataError):
    """A column required by the schema is absent from the CSV header."""


class ParseError(DataError):
    """A cell failed to parse; carries the offending row and column."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class UnknownCategoryError(ParseError):
    """A categorical cell holds a value outside the column vocabulary."""


class MissingTruthError(DataError):
    """An operation needs hidden ground-truth values that are not present."""


class ShapeMismatchError(CompfeatError):
    """A ragged array, or arrays that disagree on rows, columns, ndim or block layout."""


class SingleClassError(CompfeatError):
    """Classifier training requires both label classes to be present."""


class VerificationError(CompfeatError):
    """A numeric verification check failed beyond its slack."""

"""Exception types shared across the package."""


class CompfeatError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CompfeatError):
    """Invalid experiment configuration (bad key, value out of range)."""


class DataError(CompfeatError):
    """Base class for dataset ingestion problems."""


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
    """Array arguments disagree on rows, columns, or block layout."""


class SingleClassError(CompfeatError):
    """Classifier training requires both label classes to be present."""


class CardinalityCapError(CompfeatError):
    """A joint-confidence table would exceed the configured size cap."""


class VerificationError(CompfeatError):
    """A numeric verification check failed beyond its slack."""

"""Shared exception types.

A refused input raises a `RectifyError`, which is a `ValueError`; a call
the library rejects raises a builtin `ValueError` or `TypeError`.  The
CLI exits 3 on a `CapExceededError`, 2 on any other `RectifyError` or on
an `OSError`, and 4 on anything else, a builtin `ValueError` included.
"""


class RectifyError(ValueError):
    """Base class of the errors this package raises for a refused input."""


class ParseError(RectifyError):
    """Malformed input text.  Carries a position when one is known."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class BuildError(RectifyError):
    """Ill-formed circuit expression: unknown identifier, bad arity, ..."""


class CapExceededError(RectifyError):
    """A brute-force operation was asked to enumerate too many variables."""


class CertificationError(RectifyError):
    """A circuit or tree given as a classifier is not a classification circuit.

    Some instance gets no label assignment, or more than one.  `Classifier`
    raises it on construction, `dt_rectify` on its classifier tree.
    """

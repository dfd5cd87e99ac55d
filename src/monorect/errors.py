"""Shared exception types.

The CLI maps these onto exit codes: parse/build/certification problems are
input errors (exit 2), blowing the enumeration cap is exit 3, and any
other exception (`RecursionError` and `MemoryError` included) is an
internal error (exit 4).
"""


class RectifyError(Exception):
    """Base class for errors raised by this package."""


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
